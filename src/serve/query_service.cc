#include "serve/query_service.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "storage/column.h"
#include "util/kernels/kernels.h"

namespace ebi {
namespace serve {
namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// Registry lookups are mutex-guarded; cache the stable pointers.
obs::Counter* SubmittedCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter(obs::kMetricServeSubmitted);
  return counter;
}

obs::Counter* ShedCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter(obs::kMetricServeShed);
  return counter;
}

obs::Counter* DeadlineCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      obs::kMetricServeDeadlineExceeded);
  return counter;
}

obs::Counter* PublishCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter(obs::kMetricServePublishes);
  return counter;
}

obs::Histogram* LatencyHistogram() {
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram(obs::kMetricServeLatencyMs);
  return histogram;
}

obs::Histogram* QueueHistogram() {
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram(obs::kMetricServeQueueMs);
  return histogram;
}

obs::Histogram* QueueDepthHistogram() {
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          obs::kMetricServeQueueDepth);
  return histogram;
}

obs::Counter* DrainRejectedCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      obs::kMetricServeDrainRejected);
  return counter;
}

obs::Counter* TraceSampledCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter(obs::kMetricTraceSampled);
  return counter;
}

obs::Counter* SlowQueriesCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter(obs::kMetricSlowQueries);
  return counter;
}

obs::Counter* MetricsExportsCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter(obs::kMetricMetricsExports);
  return counter;
}

// Per-stage attribution histograms (sub-ms bucket ladder: pin and plan
// run in microseconds).
obs::Histogram* PinHistogram() {
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          obs::kMetricServeStagePinMs, obs::MetricsRegistry::LatencyBounds());
  return histogram;
}

obs::Histogram* PlanHistogram() {
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          obs::kMetricServeStagePlanMs,
          obs::MetricsRegistry::LatencyBounds());
  return histogram;
}

obs::Histogram* ExecuteHistogram() {
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          obs::kMetricServeStageExecuteMs,
          obs::MetricsRegistry::LatencyBounds());
  return histogram;
}

/// The serve stage histograms, observed from a finished request's record:
/// a stage the request never reached is not observed.
void ObserveStages(const obs::RequestRecord& record) {
  QueueHistogram()->Observe(record.queue_ms);
  if (record.pin_ms.has_value()) {
    PinHistogram()->Observe(*record.pin_ms);
  }
  if (record.plan_ms.has_value()) {
    PlanHistogram()->Observe(*record.plan_ms);
  }
  if (record.execute_ms.has_value()) {
    ExecuteHistogram()->Observe(*record.execute_ms);
  }
  LatencyHistogram()->Observe(record.total_ms);
}

/// "a = 3 AND b IN {1, 2}" — the query summary slow records carry.
std::string PredicatesText(const std::vector<Predicate>& predicates) {
  std::string out;
  for (size_t i = 0; i < predicates.size(); ++i) {
    if (i > 0) {
      out += " AND ";
    }
    out += predicates[i].ToString();
  }
  return out;
}

/// One workload-log predicate from the conjunct and (when the executor
/// collected them) its observed stat.
obs::WorkloadPredicate ToWorkloadPredicate(const Predicate& p,
                                           const PredicateStat* stat) {
  obs::WorkloadPredicate out;
  out.column = p.column;
  out.op = p.OpTag();
  out.fingerprint = stat != nullptr ? stat->fingerprint : p.Fingerprint();
  out.rows = stat != nullptr ? stat->rows : 0;
  switch (p.kind) {
    case Predicate::Kind::kEquals:
    case Predicate::Kind::kNotEquals:
      if (p.value.kind == Value::Kind::kInt64) {
        out.literals.push_back(p.value.int_value);
      }
      break;
    case Predicate::Kind::kIn:
    case Predicate::Kind::kNotIn:
      for (const Value& v : p.values) {
        if (v.kind == Value::Kind::kInt64) {
          out.literals.push_back(v.int_value);
        }
      }
      std::sort(out.literals.begin(), out.literals.end());
      break;
    case Predicate::Kind::kRange:
      out.has_range = true;
      out.lo = p.lo;
      out.hi = p.hi;
      break;
    case Predicate::Kind::kIsNull:
      break;
  }
  return out;
}

Status WriteFileAtomic(const std::string& path, const std::string& body) {
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    return Status::Internal("cannot open " + tmp);
  }
  const bool ok =
      std::fwrite(body.data(), 1, body.size(), file) == body.size();
  std::fclose(file);
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::Internal("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename " + tmp + " to " + path);
  }
  return Status::OK();
}

}  // namespace

Result<Clock::time_point> DeadlineAfter(double budget_ms,
                                        Clock::time_point start) {
  if (!std::isfinite(budget_ms)) {
    return Status::InvalidArgument("deadline of " + std::to_string(budget_ms) +
                                   " ms is not a finite budget");
  }
  if (budget_ms <= 0.0) {
    return Status::DeadlineExceeded(
        "deadline of " + std::to_string(budget_ms) +
        " ms already expired on arrival; rejected at admission");
  }
  // Compare in clock ticks. The double bound keeps the cast defined; the
  // integer bound catches the rounding of `headroom` to double, so
  // start + ticks never overflows.
  const Clock::duration headroom = Clock::time_point::max() - start;
  const double ticks = std::chrono::duration<double, Clock::period>(
                           std::chrono::duration<double, std::milli>(
                               budget_ms))
                           .count();
  if (!(ticks < static_cast<double>(headroom.count())) ||
      static_cast<Clock::rep>(ticks) > headroom.count()) {
    return Status::InvalidArgument("deadline of " +
                                   std::to_string(budget_ms) +
                                   " ms is past what the clock can "
                                   "represent");
  }
  return start + Clock::duration(static_cast<Clock::rep>(ticks));
}

Result<ServeResult> ServeTicket::Wait() {
  MutexLock lock(mu_);
  while (!outcome_.has_value()) {
    cv_.Wait(lock);
  }
  return *outcome_;
}

std::optional<Result<ServeResult>> ServeTicket::WaitFor(double timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(timeout_ms));
  MutexLock lock(mu_);
  while (!outcome_.has_value()) {
    const double remaining =
        std::chrono::duration<double, std::milli>(
            deadline - std::chrono::steady_clock::now())
            .count();
    if (remaining <= 0.0) {
      return std::nullopt;
    }
    cv_.WaitFor(lock, remaining);
  }
  return *outcome_;
}

void ServeTicket::Complete(Result<ServeResult> outcome) {
  {
    const MutexLock lock(mu_);
    outcome_ = std::move(outcome);
  }
  cv_.NotifyAll();
}

QueryService::QueryService(const ServeOptions& options)
    : options_(options),
      pool_(options.worker_threads) {
  const ServeTelemetryOptions& telemetry = options_.telemetry;
  if (telemetry.enabled) {
    sampler_ = std::make_unique<obs::TraceSampler>(telemetry.sample_rate);
    trace_ring_ = std::make_unique<obs::RecordRing>(telemetry.ring_capacity);
    slow_log_ = std::make_unique<obs::RecordRing>(telemetry.ring_capacity);
    if (!telemetry.workload_log_path.empty()) {
      workload_recorder_ = std::make_unique<obs::WorkloadRecorder>(
          telemetry.workload_log_path, telemetry.workload_options);
    }
  }
}

QueryService::~QueryService() { Shutdown().IgnoreError(); }

Status QueryService::Start(std::unique_ptr<Table> table,
                           std::vector<IndexSpec> specs) {
  bool expected = false;
  if (!start_guard_.compare_exchange_strong(expected, true,
                                            std::memory_order_seq_cst)) {
    return Status::FailedPrecondition("service already started");
  }
  if (!options_.wal_path.empty()) {
    const Status recovered = RecoverFromWal(*table);
    if (!recovered.ok()) {
      start_guard_.store(false, std::memory_order_seq_cst);
      return recovered;
    }
  }
  Result<std::unique_ptr<DatabaseSnapshot>> snapshot = DatabaseSnapshot::Create(
      std::move(table), std::move(specs), /*epoch=*/0);
  if (!snapshot.ok()) {
    start_guard_.store(false, std::memory_order_seq_cst);
    return snapshot.status();
  }
  {
    const MutexLock lock(published_mu_);
    published_row_counts_.assign(1, snapshot.value()->NumRows());
  }
  snapshots_.Publish(std::move(snapshot).value());
  started_.store(true, std::memory_order_seq_cst);
  return Status::OK();
}

Status QueryService::RecoverFromWal(Table& table) {
  EBI_ASSIGN_OR_RETURN(const engine::WalReplayResult replay,
                       engine::Wal::Replay(options_.wal_path));
  for (const engine::WalRecord& record : replay.records) {
    if (record.type != engine::kWalRecordRowBatch) {
      continue;  // Checkpoints and future record types carry no rows.
    }
    EBI_ASSIGN_OR_RETURN(const engine::RowBatch batch,
                         engine::DecodeRowBatch(record.payload));
    if (batch.first_row + batch.rows.size() <= table.NumRows()) {
      continue;  // Already reflected in the base table: idempotent skip.
    }
    if (batch.first_row > table.NumRows()) {
      return Status::Internal(
          "WAL gap: batch at lsn " + std::to_string(record.lsn) +
          " starts at row " + std::to_string(batch.first_row) +
          " but the table holds " + std::to_string(table.NumRows()));
    }
    // A batch may straddle the table's edge if the base table captured a
    // prefix of it; re-apply only the missing suffix.
    for (size_t i = table.NumRows() - batch.first_row; i < batch.rows.size();
         ++i) {
      EBI_RETURN_IF_ERROR(table.AppendRow(batch.rows[i]));
    }
  }
  engine::WalOptions wal_options;
  wal_options.sync_on_append = options_.wal_sync_on_append;
  wal_options.fail_after_appends = options_.wal_fail_after_appends;
  EBI_ASSIGN_OR_RETURN(wal_,
                       engine::Wal::Open(options_.wal_path, wal_options));
  return Status::OK();
}

Result<std::shared_ptr<ServeTicket>> QueryService::Submit(
    std::vector<Predicate> predicates, const RequestOptions& options) {
  if (!started_.load(std::memory_order_seq_cst)) {
    return Status::FailedPrecondition("service not started");
  }
  // Count ourselves in-flight *before* checking the drain flag: Shutdown
  // sets the flag and then waits for in_flight_ to hit zero, so either it
  // sees our increment and waits for us, or we see the flag and back out.
  const size_t admitted =
      in_flight_.fetch_add(1, std::memory_order_seq_cst) + 1;
  if (draining_.load(std::memory_order_seq_cst)) {
    FinishRequest();
    DrainRejectedCounter()->Increment();
    return Status::FailedPrecondition("service is draining; request rejected");
  }
  SubmittedCounter()->Increment();
  if (admitted > options_.queue_depth) {
    FinishRequest();
    ShedCounter()->Increment();
    return Status::Overloaded("queue depth " +
                              std::to_string(options_.queue_depth) +
                              " reached; request shed");
  }
  QueueDepthHistogram()->Observe(static_cast<double>(admitted));

  const Clock::time_point submitted = Clock::now();
  std::optional<Clock::time_point> deadline;
  // A default of 0 or below means none; a NaN default counts as set, so
  // DeadlineAfter rejects it rather than serving without a bound.
  std::optional<double> budget_ms = options.deadline_ms;
  if (!budget_ms.has_value() && !(options_.default_deadline_ms <= 0.0)) {
    budget_ms = options_.default_deadline_ms;
  }
  if (budget_ms.has_value()) {
    // Expired on arrival or malformed: reject at admission, before the
    // request costs a pool dispatch, a snapshot pin or a plan. Without
    // this check a deadline_ms <= 0 request would occupy a queue slot only
    // to be bounced by RunRequest's pre-pin deadline check.
    Result<Clock::time_point> resolved = DeadlineAfter(*budget_ms, submitted);
    if (!resolved.ok()) {
      FinishRequest();
      if (resolved.status().code() == StatusCode::kDeadlineExceeded) {
        DeadlineCounter()->Increment();
      }
      return resolved.status();
    }
    deadline = resolved.value();
  }

  auto ticket = std::make_shared<ServeTicket>();
  pool_.Submit([this, ticket, predicates = std::move(predicates),
                trace = options.trace, submitted, deadline]() mutable {
    RunRequest(ticket, std::move(predicates), trace, submitted, deadline);
  });
  return ticket;
}

Result<ServeResult> QueryService::Select(
    const std::vector<Predicate>& predicates, const RequestOptions& options) {
  EBI_ASSIGN_OR_RETURN(std::shared_ptr<ServeTicket> ticket,
                       Submit(predicates, options));
  return ticket->Wait();
}

void QueryService::RunRequest(
    std::shared_ptr<ServeTicket> ticket, std::vector<Predicate> predicates,
    obs::QueryTrace* trace, Clock::time_point submitted,
    std::optional<Clock::time_point> deadline) {
  const Clock::time_point start = Clock::now();
  // The request's one record, filled as it progresses (DESIGN.md §11);
  // every telemetry sink below is a projection of it.
  obs::RequestRecord record;
  record.queue_ms = MsBetween(submitted, start);

  // Sampling decision, up front: sampled requests without a caller trace
  // record into a local trace whose root the ring captures afterwards.
  const bool sampled = sampler_ != nullptr && sampler_->Decide();
  obs::QueryTrace local_trace;
  obs::QueryTrace* effective_trace =
      trace != nullptr ? trace : (sampled ? &local_trace : nullptr);

  Result<ServeResult> outcome = [&]() -> Result<ServeResult> {
    if (deadline.has_value() && start >= *deadline) {
      DeadlineCounter()->Increment();
      return Status::DeadlineExceeded(
          "request spent " + std::to_string(record.queue_ms) +
          " ms queued, past its deadline");
    }
    const Clock::time_point pin_start = Clock::now();
    SnapshotManager::Pin pin = snapshots_.Acquire();
    record.pin_ms = MsBetween(pin_start, Clock::now());
    if (!pin) {
      return Status::FailedPrecondition("no snapshot published");
    }
    record.epoch = pin->epoch();
    record.rows_total = pin->NumRows();
    obs::TraceScope scope(effective_trace);
    obs::ScopedSpan span("serve.request");
    span.Attr("epoch", record.epoch);
    span.Attr("queue_ms", record.queue_ms);
    span.Attr("pin_ms", *record.pin_ms);
    const Clock::time_point plan_start = Clock::now();
    SelectionExecutor executor = pin->MakeExecutor();
    if (workload_recorder_ != nullptr) {
      executor.EnablePredicateStats(true);
    }
    record.plan_ms = MsBetween(plan_start, Clock::now());
    const Clock::time_point execute_start = Clock::now();
    Result<SelectionResult> selected = executor.Select(predicates);
    record.execute_ms = MsBetween(execute_start, Clock::now());
    if (!selected.ok()) {
      return selected.status();
    }
    ServeResult result;
    result.selection = std::move(selected).value();
    result.epoch = pin->epoch();
    result.queue_ms = record.queue_ms;
    result.run_ms = MsBetween(start, Clock::now());
    span.Attr("rows", result.selection.count);
    return result;
  }();

  record.total_ms = MsBetween(submitted, Clock::now());
  record.status = outcome.status().code();
  if (outcome.ok()) {
    const SelectionResult& selection = outcome.value().selection;
    record.rows_selected = selection.count;
    record.vectors = selection.io.vectors_read;
    record.pages = selection.io.pages_read;
    record.bytes = selection.io.bytes_read;
  }
  ObserveStages(record);

  // Telemetry capture, after the result is in hand but before the ticket
  // resolves — so tests that Wait() and then inspect the sinks observe
  // their own request. Only a request some sink takes pays for predicate
  // conversion and strings.
  record.slow = slow_log_ != nullptr &&
                record.total_ms >= options_.telemetry.slow_threshold_ms;
  const bool logged = workload_recorder_ != nullptr && outcome.ok();
  if (sampled || record.slow || logged) {
    record.kernel = kernels::Active().name;
    const std::vector<PredicateStat>* stats =
        outcome.ok() ? &outcome.value().selection.predicate_stats : nullptr;
    record.predicates.reserve(predicates.size());
    for (size_t i = 0; i < predicates.size(); ++i) {
      const PredicateStat* stat = stats != nullptr && i < stats->size()
                                      ? &(*stats)[i]
                                      : nullptr;
      record.predicates.push_back(ToWorkloadPredicate(predicates[i], stat));
    }
  }
  if (record.slow) {
    record.query = PredicatesText(predicates);
  }
  if (effective_trace != nullptr && (sampled || record.slow)) {
    // A caller-supplied trace stays with the caller; copy its root.
    record.root = effective_trace == &local_trace
                      ? std::move(local_trace.root())
                      : effective_trace->root();
  }
  if (sampled) {
    TraceSampledCounter()->Increment();
    trace_ring_->Push(record);
  }
  if (record.slow) {
    SlowQueriesCounter()->Increment();
    slow_log_->Push(record);
  }
  if (logged) {
    workload_recorder_->Append(std::move(record)).IgnoreError();
  }

  ticket->Complete(std::move(outcome));
  completed_.fetch_add(1, std::memory_order_relaxed);
  MaybeExportTelemetry();
  FinishRequest();
}

void QueryService::MaybeExportTelemetry() {
  const size_t every = options_.telemetry.export_every;
  if (every == 0 || options_.telemetry.export_path_prefix.empty()) {
    return;
  }
  if (completed_.load(std::memory_order_relaxed) % every != 0) {
    return;
  }
  // Best-effort: losing the race just means another worker (or a later
  // period) exports. Never block the serve path on file I/O.
  if (!export_mu_.TryLock()) {
    return;
  }
  ExportTelemetryLocked().IgnoreError();
  export_mu_.Unlock();
}

Status QueryService::ExportTelemetry() {
  const MutexLock lock(export_mu_);
  return ExportTelemetryLocked();
}

Status QueryService::ExportTelemetryLocked() {
  const std::string& prefix = options_.telemetry.export_path_prefix;
  if (prefix.empty()) {
    return Status::FailedPrecondition("no export_path_prefix configured");
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  EBI_RETURN_IF_ERROR(
      WriteFileAtomic(prefix + ".prom", registry.RenderPrometheus()));
  EBI_RETURN_IF_ERROR(
      WriteFileAtomic(prefix + ".json", registry.RenderJson()));
  if (workload_recorder_ != nullptr) {
    EBI_RETURN_IF_ERROR(workload_recorder_->Flush());
  }
  MetricsExportsCounter()->Increment();
  return Status::OK();
}

void QueryService::FinishRequest() {
  if (in_flight_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
    const MutexLock lock(drain_mu_);
    drain_cv_.NotifyAll();
  }
}

Result<uint64_t> QueryService::Append(std::vector<std::vector<Value>> rows) {
  if (!started_.load(std::memory_order_seq_cst)) {
    return Status::FailedPrecondition("service not started");
  }
  if (rows.empty()) {
    return CurrentEpoch();
  }
  {
    // Validate against the immutable schema up front, so a malformed
    // batch is rejected here and cannot fail the combined publish that
    // other callers' batches ride on.
    SnapshotManager::Pin pin = snapshots_.Acquire();
    if (!pin) {
      return Status::FailedPrecondition("no snapshot published");
    }
    for (const std::vector<Value>& row : rows) {
      EBI_RETURN_IF_ERROR(pin->table().CheckRow(row));
    }
  }

  MutexLock lock(append_mu_);
  if (draining_.load(std::memory_order_seq_cst)) {
    DrainRejectedCounter()->Increment();
    return Status::FailedPrecondition("service is draining; append rejected");
  }
  const uint64_t ticket = ++next_append_ticket_;
  StagedAppend staged;
  staged.rows = std::move(rows);
  staged.ticket = ticket;
  staged_.push_back(std::move(staged));

  if (!writer_active_) {
    // Become the combining writer: drain everything staged (our batch
    // included, possibly others'), publish once per round, and hand out
    // outcomes. The lock is released around each publish so new callers
    // keep staging onto the next round instead of queueing behind it.
    writer_active_ = true;
    while (!staged_.empty()) {
      std::vector<StagedAppend> batch;
      batch.swap(staged_);
      lock.Unlock();
      uint64_t next_epoch = 0;
      const Status status = CombineAndPublish(batch, &next_epoch);
      lock.Lock();
      for (const StagedAppend& done : batch) {
        AppendOutcome outcome;
        outcome.epoch = status.ok() ? next_epoch : 0;
        outcome.status = status;
        append_outcomes_[done.ticket] = outcome;
      }
      append_cv_.NotifyAll();
    }
    writer_active_ = false;
    append_cv_.NotifyAll();
  } else {
    while (append_outcomes_.find(ticket) == append_outcomes_.end()) {
      append_cv_.Wait(lock);
    }
  }

  const auto it = append_outcomes_.find(ticket);
  AppendOutcome outcome = it->second;
  append_outcomes_.erase(it);
  if (!outcome.status.ok()) {
    return outcome.status;
  }
  return outcome.epoch;
}

Status QueryService::CombineAndPublish(std::vector<StagedAppend>& batch,
                                       uint64_t* next_epoch) {
  SnapshotManager::Pin pin = snapshots_.Acquire();
  *next_epoch = pin->epoch() + 1;
  size_t total = 0;
  for (const StagedAppend& staged : batch) {
    total += staged.rows.size();
  }
  std::vector<std::vector<Value>> rows;
  rows.reserve(total);
  for (StagedAppend& staged : batch) {
    for (std::vector<Value>& row : staged.rows) {
      rows.push_back(std::move(row));
    }
  }

  // Durable mode: the batch must be WAL-durable *before* the publish.
  // Append + fsync returning OK is the commit point — if we crash
  // between here and Publish, recovery replays the batch from the log.
  Status wal_status = Status::OK();
  if (wal_ != nullptr && !rows.empty()) {
    const std::vector<uint8_t> payload =
        engine::EncodeRowBatch(pin->NumRows(), rows);
    const Result<uint64_t> lsn =
        wal_->Append(engine::kWalRecordRowBatch, payload);
    if (!lsn.ok()) {
      wal_status = lsn.status();
    }
  }

  Result<std::unique_ptr<DatabaseSnapshot>> next =
      wal_status.ok() ? pin->CloneWithRows(rows, *next_epoch)
                      : Result<std::unique_ptr<DatabaseSnapshot>>(wal_status);
  const Status status = next.ok() ? Status::OK() : next.status();
  if (status.ok()) {
    {
      const MutexLock plock(published_mu_);
      if (published_row_counts_.size() <= *next_epoch) {
        published_row_counts_.resize(*next_epoch + 1, 0);
      }
      published_row_counts_[*next_epoch] = next.value()->NumRows();
    }
    snapshots_.Publish(std::move(next).value());
    PublishCounter()->Increment();
  }
  pin.Release();
  return status;
}

Status QueryService::Shutdown() {
  draining_.store(true, std::memory_order_seq_cst);
  {
    MutexLock lock(append_mu_);
    while (writer_active_ || !staged_.empty()) {
      append_cv_.Wait(lock);
    }
  }
  {
    MutexLock lock(drain_mu_);
    while (in_flight_.load(std::memory_order_seq_cst) != 0) {
      drain_cv_.Wait(lock);
    }
  }
  // Quiescent now: sweep any retirees a contended unpin left behind.
  snapshots_.Reclaim();
  // Drained: everything staged has published, so the log is complete.
  // The sync covers wal_sync_on_append=false (group commit) mode.
  if (wal_ != nullptr) {
    wal_->Sync().IgnoreError();
  }
  // Final telemetry flush: the workload log must be durable once
  // Shutdown returns, and a configured exporter writes its last state.
  if (workload_recorder_ != nullptr) {
    workload_recorder_->Flush().IgnoreError();
  }
  if (!options_.telemetry.export_path_prefix.empty()) {
    ExportTelemetry().IgnoreError();
  }
  return Status::OK();
}

std::vector<size_t> QueryService::PublishedRowCounts() const {
  const MutexLock lock(published_mu_);
  return published_row_counts_;
}

}  // namespace serve
}  // namespace ebi
