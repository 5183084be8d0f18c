#include "serve/cluster/cluster_service.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace ebi {
namespace serve {
namespace cluster {

namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Statuses a shard can return that mean "not now" rather than "wrong":
/// under kPartial they become a coverage-masked miss. Hard errors (bad
/// predicate, internal fault) always fail the query.
bool IsUnavailable(StatusCode code) {
  return code == StatusCode::kOverloaded ||
         code == StatusCode::kDeadlineExceeded;
}

// Metric handles, cached per the registry's hot-path contract.
obs::Counter* QueriesCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter(obs::kMetricClusterQueries);
  return counter;
}
obs::Counter* FanoutCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter(obs::kMetricClusterFanout);
  return counter;
}
obs::Counter* PartialResultsCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      obs::kMetricClusterPartialResults);
  return counter;
}
obs::Counter* ShardDeadlineMissCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      obs::kMetricClusterShardDeadlineMiss);
  return counter;
}
obs::Histogram* ShardLatencyHistogram() {
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          obs::kMetricClusterShardLatencyMs,
          obs::MetricsRegistry::LatencyBounds());
  return histogram;
}

/// Derives the per-shard ServeOptions: path-carrying knobs get a
/// ".s<shard>" suffix so shards never share a WAL, workload log, or
/// export file.
ServeOptions ShardServeOptions(const ServeOptions& base, size_t shard) {
  ServeOptions out = base;
  const std::string suffix = ".s" + std::to_string(shard);
  if (!out.wal_path.empty()) {
    out.wal_path += suffix;
  }
  if (!out.telemetry.workload_log_path.empty()) {
    out.telemetry.workload_log_path += suffix;
  }
  if (!out.telemetry.export_path_prefix.empty()) {
    out.telemetry.export_path_prefix += suffix;
  }
  return out;
}

}  // namespace

ClusterQueryService::ClusterQueryService(ClusterOptions options)
    : options_(std::move(options)) {}

ClusterQueryService::~ClusterQueryService() { Shutdown().IgnoreError(); }

Status ClusterQueryService::Start(std::unique_ptr<Table> table,
                                  std::vector<IndexSpec> specs) {
  if (started_.load(std::memory_order_seq_cst)) {
    return Status::FailedPrecondition("cluster already started");
  }
  if (options_.shards == 0) {
    return Status::InvalidArgument("cluster needs at least one shard");
  }
  // Written so NaN fails it too.
  if (!(options_.shard_deadline_fraction > 0.0 &&
        options_.shard_deadline_fraction <= 1.0)) {
    return Status::InvalidArgument(
        "shard_deadline_fraction must be in (0, 1]");
  }
  if (table == nullptr) {
    return Status::InvalidArgument("cluster Start needs a table");
  }
  EBI_ASSIGN_OR_RETURN(size_t key_index,
                       table->ColumnIndex(options_.key_column));
  if (table->column(key_index).type() != Column::Type::kInt64) {
    return Status::InvalidArgument("partition key column '" +
                                   options_.key_column +
                                   "' must be int64");
  }
  for (size_t r = 0; r < table->NumRows(); ++r) {
    if (!table->RowExists(r)) {
      return Status::FailedPrecondition(
          "cluster Start cannot partition a table with deleted rows (a "
          "void slot has no owning shard)");
    }
  }

  EBI_ASSIGN_OR_RETURN(
      std::unique_ptr<Partitioner> partitioner,
      MakePartitioner(options_.partition, options_.shards,
                      options_.split_points));
  router_ =
      std::make_unique<ShardRouter>(std::move(partitioner),
                                    options_.key_column);
  key_index_ = key_index;
  schema_ = Table(table->name());
  for (size_t c = 0; c < table->NumColumns(); ++c) {
    EBI_RETURN_IF_ERROR(schema_.AddColumn(table->column(c).name(),
                                          table->column(c).type()));
  }

  // Materialize rows in table order: row r becomes global id r, so the
  // merged cluster bitmap lines up with a single service on `table`.
  std::vector<std::vector<Value>> rows;
  rows.reserve(table->NumRows());
  for (size_t r = 0; r < table->NumRows(); ++r) {
    std::vector<Value> row;
    row.reserve(table->NumColumns());
    for (size_t c = 0; c < table->NumColumns(); ++c) {
      row.push_back(table->column(c).ValueAt(r));
    }
    rows.push_back(std::move(row));
  }

  MutexLock lock(append_mu_);
  EBI_ASSIGN_OR_RETURN(ShardRouter::RoutedBatch routed,
                       router_->RouteAppend(rows, key_index_));

  shards_.resize(options_.shards);
  for (size_t s = 0; s < options_.shards; ++s) {
    auto shard_table =
        std::make_unique<Table>(table->name() + ".shard" + std::to_string(s));
    for (size_t c = 0; c < table->NumColumns(); ++c) {
      EBI_RETURN_IF_ERROR(shard_table->AddColumn(table->column(c).name(),
                                                 table->column(c).type()));
    }
    for (const auto& row : routed.per_shard_rows[s]) {
      EBI_RETURN_IF_ERROR(shard_table->AppendRow(row));
    }
    shards_[s] = std::make_unique<QueryService>(
        ShardServeOptions(options_.shard_options, s));
    EBI_RETURN_IF_ERROR(shards_[s]->Start(std::move(shard_table), specs));
  }
  started_.store(true, std::memory_order_seq_cst);
  return Status::OK();
}

Result<ClusterResult> ClusterQueryService::Select(
    const std::vector<Predicate>& predicates,
    const RequestOptions& options) {
  if (!started_.load(std::memory_order_seq_cst)) {
    return Status::FailedPrecondition("cluster not started");
  }
  if (poisoned_.load(std::memory_order_seq_cst)) {
    return Status::FailedPrecondition(
        "cluster degraded: a shard append failed after routing");
  }
  QueriesCounter()->Increment();

  std::optional<TimePoint> deadline;
  if (options.deadline_ms.has_value()) {
    // The same admission check as each shard's: an expired or malformed
    // deadline means no shard is ever contacted.
    EBI_ASSIGN_OR_RETURN(deadline,
                         DeadlineAfter(*options.deadline_ms, Clock::now()));
  }

  const std::vector<size_t> owners = router_->OwningShards(predicates);
  FanoutCounter()->Increment(owners.size());

  // Scatter: submit to every owning shard up front (Submit is
  // non-blocking), so shards execute concurrently on their own pools
  // while the gather below walks them in order.
  std::vector<ShardCall> calls;
  calls.reserve(owners.size());
  for (size_t s : owners) {
    ShardCall call;
    call.shard = s;
    call.submitted = Clock::now();
    RequestOptions shard_options;
    if (deadline.has_value()) {
      const double remaining = MsBetween(call.submitted, *deadline);
      shard_options.deadline_ms =
          std::max(0.0, remaining) * options_.shard_deadline_fraction;
    }
    auto submitted = shards_[s]->Submit(predicates, shard_options);
    if (submitted.ok()) {
      call.ticket = std::move(submitted).value();
    } else {
      call.submit_status = submitted.status();
    }
    calls.push_back(std::move(call));
  }

  ClusterResult out;
  out.visited_shards = owners;
  std::vector<std::optional<ServeResult>> responses;
  responses.reserve(calls.size());
  for (const ShardCall& call : calls) {
    auto [outcome, response] = GatherShard(call, deadline);
    responses.push_back(std::move(response));
    out.outcomes.push_back(std::move(outcome));
  }

  // Classify misses; a hard error fails the query under either policy.
  for (size_t i = 0; i < out.outcomes.size(); ++i) {
    const ShardOutcome& outcome = out.outcomes[i];
    if (responses[i].has_value()) {
      continue;
    }
    if (!IsUnavailable(outcome.status.code())) {
      return outcome.status;
    }
    if (options_.partial_policy == PartialResultPolicy::kFail) {
      return outcome.status;
    }
    out.missing_shards.push_back(outcome.shard);
  }
  if (!out.missing_shards.empty()) {
    out.partial = true;
    PartialResultsCounter()->Increment();
  }

  // Merge, against the placement as of now: every shard response was
  // produced before this read, so each shard's global-id map covers all
  // of its local rows (maps extend before shard rows publish).
  std::shared_ptr<const ShardRouter::Placement> placement =
      router_->placement();
  out.total_rows = placement->total_rows;
  out.selection.rows = BitVector(placement->total_rows);
  out.coverage = BitVector(placement->total_rows, true);
  for (size_t shard : out.missing_shards) {
    for (uint64_t global : placement->shard_rows[shard]) {
      out.coverage.Reset(static_cast<size_t>(global));
    }
  }
  for (size_t i = 0; i < responses.size(); ++i) {
    if (!responses[i].has_value()) {
      continue;
    }
    const ServeResult& shard_result = *responses[i];
    const std::vector<uint64_t>& map =
        placement->shard_rows[out.outcomes[i].shard];
    shard_result.selection.rows.ForEachSetBit([&](size_t local) {
      if (local < map.size()) {
        out.selection.rows.Set(static_cast<size_t>(map[local]));
      }
    });
    out.selection.io += shard_result.selection.io;
    if (out.selection.predicate_stats.empty()) {
      out.selection.predicate_stats = shard_result.selection.predicate_stats;
    } else if (shard_result.selection.predicate_stats.size() ==
               out.selection.predicate_stats.size()) {
      for (size_t p = 0; p < out.selection.predicate_stats.size(); ++p) {
        out.selection.predicate_stats[p].rows +=
            shard_result.selection.predicate_stats[p].rows;
      }
    }
  }
  out.selection.count = out.selection.rows.Count();
  return out;
}

std::pair<ShardOutcome, std::optional<ServeResult>>
ClusterQueryService::GatherShard(const ShardCall& call,
                                 std::optional<TimePoint> deadline) {
  ShardOutcome out;
  out.shard = call.shard;
  std::optional<Result<ServeResult>> response;
  if (call.ticket == nullptr) {
    response = Result<ServeResult>(call.submit_status);
  } else if (deadline.has_value()) {
    response = call.ticket->WaitFor(
        std::max(0.0, MsBetween(Clock::now(), *deadline)));
  } else {
    response = call.ticket->Wait();
  }
  out.latency_ms = MsBetween(call.submitted, Clock::now());

  if (response.has_value() && (*response).ok()) {
    out.epoch = (*response).value().epoch;
    ShardLatencyHistogram()->Observe(out.latency_ms);
    return {out, std::move(*response).value()};
  }
  // Miss: the shard's own error, or a wait that outlasted the cluster
  // deadline, which becomes a synthesized deadline miss.
  out.status = response.has_value()
                   ? (*response).status()
                   : Status::DeadlineExceeded(
                         "shard " + std::to_string(call.shard) +
                         " exhausted its deadline budget");
  if (out.status.code() == StatusCode::kDeadlineExceeded) {
    ShardDeadlineMissCounter()->Increment();
  }
  return {out, std::nullopt};
}

Result<uint64_t> ClusterQueryService::Append(
    std::vector<std::vector<Value>> rows) {
  if (!started_.load(std::memory_order_seq_cst)) {
    return Status::FailedPrecondition("cluster not started");
  }
  if (poisoned_.load(std::memory_order_seq_cst)) {
    return Status::FailedPrecondition(
        "cluster degraded: a shard append failed after routing");
  }
  if (rows.empty()) {
    return AppendEpoch();
  }
  // Validate *before* routing: once the placement assigns global ids, a
  // shard-side rejection would leave ids with no backing rows and shift
  // every later local index off its map entry.
  for (const auto& row : rows) {
    EBI_RETURN_IF_ERROR(schema_.CheckRow(row));
  }

  MutexLock lock(append_mu_);
  EBI_ASSIGN_OR_RETURN(ShardRouter::RoutedBatch routed,
                       router_->RouteAppend(rows, key_index_));
  for (size_t s = 0; s < options_.shards; ++s) {
    if (routed.per_shard_rows[s].empty()) {
      continue;
    }
    auto appended = shards_[s]->Append(std::move(routed.per_shard_rows[s]));
    if (!appended.ok()) {
      poisoned_.store(true, std::memory_order_seq_cst);
      return appended.status();
    }
  }
  return append_epoch_.fetch_add(1, std::memory_order_seq_cst) + 1;
}

Status ClusterQueryService::Shutdown() {
  Status first_error = Status::OK();
  for (auto& shard : shards_) {
    if (shard != nullptr) {
      Status status = shard->Shutdown();
      if (!status.ok() && first_error.ok()) {
        first_error = status;
      }
    }
  }
  return first_error;
}

}  // namespace cluster
}  // namespace serve
}  // namespace ebi
