// The four workloads of the repo benchmark. Each one builds its inputs
// from the seed, times the program's set-up call several times, drives a
// measured untraced phase, checks answers, and — when tracing — drives a
// second phase of the same load beside one replaying thread that walks a
// seeded sample of requests through the layers one public call at a time.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "boolean/cover.h"
#include "index/cold_encoded_bitmap_index.h"
#include "index/encoded_bitmap_index.h"
#include "serve/cluster/cluster_service.h"
#include "serve/query_service.h"
#include "util/random.h"
#include "workload/loadgen.h"
#include "workload/query_mix.h"
#include "workload/star_schema.h"

namespace ebi {
namespace perfbench {

namespace {

// Set-up is timed this many times per run; the median is reported.
constexpr size_t kSetups = 21;
// Load runs this long before a phase starts measuring (thread start-up,
// first-touch allocation and cold caches stay out of the samples).
constexpr double kWarmupS = 1.0;
// Request pool each workload cycles through.
constexpr size_t kQueryPool = 4096;
// Responses kept for answer checks: every kSampleEvery-th, at most
// kSampleCap per phase.
constexpr size_t kSampleEvery = 97;
constexpr size_t kSampleCap = 32;

// star_read / star_ingest.
constexpr size_t kStarRows = 1000000;
constexpr size_t kStarProducts = 1000;
constexpr size_t kStarBranches = 12;
constexpr size_t kStarDays = 365;
constexpr size_t kStarReadClients = 4;
constexpr size_t kStarWorkers = 4;
constexpr size_t kIngestReaders = 3;
constexpr size_t kIngestBatchRows = 64;
// Loader batches per --seconds of run length: 1000 at the default 10 s,
// so the append p99 has ten samples beyond it.
constexpr size_t kIngestBatchesPerSecond = 100;
constexpr size_t kRecoveryQueries = 8;

// tenant_cluster.
constexpr size_t kTenantRows = 1 << 18;
constexpr size_t kTenants = 8;
constexpr int64_t kKeysPerTenant = 128;
constexpr int64_t kValueCardinality = 16;
constexpr size_t kShards = 4;
constexpr size_t kClusterClients = 3;
constexpr size_t kTenantBatchRows = 16;
constexpr size_t kTenantBatches = 256;
constexpr double kAppendEveryMs = 10.0;

// cold_scan.
constexpr size_t kPoolPages = 64;

// A traced phase runs for --seconds and then on until the replay has
// walked kReplayTarget pinned snapshots — one per request, one per visited
// shard on tenant_cluster — so the p99s of the per-pin spans have ten
// samples beyond them, but never past kReplayStretch x --seconds.
constexpr uint32_t kReplayTarget = 1000;
constexpr double kReplayStretch = 3.0;
// The replay checks its stepwise answer against the service's own answer
// on every kServeCompareEvery-th request (the extra request is load).
constexpr uint32_t kServeCompareEvery = 8;

// Per-layer probe sample counts.
constexpr size_t kCloneSamples = 1000;
constexpr size_t kWalSamples = 1000;
constexpr size_t kRouteSamples = 1000;

using Rows = std::vector<std::vector<Value>>;
using Query = std::vector<Predicate>;

/// Independent sub-seed for one input stream (splitmix64 of seed+stream).
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + stream * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Seconds(Clock::time_point start) { return MsSince(start) / 1000.0; }

Result<BitVector> Evaluate(SecondaryIndex* index, const Predicate& p) {
  switch (p.kind) {
    case Predicate::Kind::kEquals:
      return index->EvaluateEquals(p.value);
    case Predicate::Kind::kIn:
      return index->EvaluateIn(p.values);
    case Predicate::Kind::kRange:
      return index->EvaluateRange(p.lo, p.hi);
    default:
      return Status::InvalidArgument("unsupported predicate " + p.ToString());
  }
}

/// The value list a predicate selects (a range as its values).
std::vector<Value> ValuesOf(const Predicate& p) {
  if (p.kind == Predicate::Kind::kEquals) {
    return {p.value};
  }
  if (p.kind == Predicate::Kind::kIn) {
    return p.values;
  }
  std::vector<Value> values;
  for (int64_t v = p.lo; v <= p.hi; ++v) {
    values.push_back(Value::Int(v));
  }
  return values;
}

/// `rows` restricted to its first `n` bits: the answer a snapshot holding
/// only the first n rows of an append-only table must give.
BitVector Prefix(BitVector rows, size_t n) {
  rows.Resize(n);
  return rows;
}

/// One response kept for an answer check.
struct Sampled {
  size_t query = 0;
  BitVector rows;
};

/// Per-client observations, merged into a Phase after the clients join.
struct ClientLog {
  std::vector<double> select_ms;
  std::vector<double> queue_ms;
  std::vector<double> run_ms;
  std::vector<double> fanout;
  std::vector<double> shard_ms;
  std::vector<double> gather_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t shed = 0;
  std::vector<Sampled> samples;
};

void Append(std::vector<double>* to, const std::vector<double>& from) {
  to->insert(to->end(), from.begin(), from.end());
}

void MergeClients(std::vector<ClientLog>& logs, Phase* phase,
                  std::vector<Sampled>* samples) {
  for (ClientLog& log : logs) {
    Append(&phase->select_ms, log.select_ms);
    Append(&phase->queue_ms, log.queue_ms);
    Append(&phase->run_ms, log.run_ms);
    Append(&phase->fanout, log.fanout);
    Append(&phase->shard_ms, log.shard_ms);
    Append(&phase->gather_ms, log.gather_ms);
    phase->select_attempted += log.attempted;
    phase->select_failed += log.failed;
    phase->shed += log.shed;
    for (Sampled& s : log.samples) {
      if (samples->size() < kSampleCap) {
        samples->push_back(std::move(s));
      }
    }
  }
}

/// A thread calling `step(stop)` back to back until Stop() (or
/// destruction). Steps that wait must return promptly once `stop` is set.
class Background {
 public:
  template <typename Step>
  explicit Background(Step step)
      : thread_([this, step = std::move(step)]() mutable {
          while (!stop_.load()) {
            step(stop_);
          }
        }) {}
  ~Background() { Stop(); }
  Background(const Background&) = delete;
  Background& operator=(const Background&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) {
      thread_.join();
    }
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Closed-loop clients: each issues its next request the moment the
/// previous one returns, until stopped. `issue(log, i)` runs request i of
/// the shared sequence. Clients start warming up: nothing they observe is
/// kept until WarmUpAndMeasure() has run.
template <typename Issue>
class ClosedLoop {
 public:
  ClosedLoop(size_t clients, Issue issue)
      : logs_(clients), warmup_(clients), issue_(std::move(issue)) {
    for (size_t c = 0; c < clients; ++c) {
      threads_.emplace_back([this, c] {
        while (!stop_.load(std::memory_order_relaxed)) {
          ClientLog& log = measuring_.load() ? logs_[c] : warmup_[c];
          issue_(log, next_.fetch_add(1));
        }
      });
    }
  }
  ~ClosedLoop() { Join(); }
  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  /// Warms up for kWarmupS, then keeps what the clients observe.
  void WarmUpAndMeasure() {
    std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupS));
    measuring_.store(true);
  }

  /// Stops the clients and waits for their in-flight requests.
  std::vector<ClientLog>& Join() {
    stop_.store(true);
    for (std::thread& t : threads_) {
      if (t.joinable()) {
        t.join();
      }
    }
    return logs_;
  }

 private:
  std::vector<ClientLog> logs_;
  std::vector<ClientLog> warmup_;
  Issue issue_;
  std::atomic<bool> measuring_{false};
  std::atomic<bool> stop_{false};
  std::atomic<size_t> next_{0};
  std::vector<std::thread> threads_;
};

/// A closed-loop issue function for QueryService::Select over `queries`.
auto ServeIssue(serve::QueryService& service,
                const std::vector<Query>& queries) {
  return [&service, &queries](ClientLog& log, size_t i) {
    const size_t q = i % queries.size();
    ++log.attempted;
    const auto start = Clock::now();
    auto result = service.Select(queries[q]);
    const double ms = MsSince(start);
    if (!result.ok()) {
      ++log.failed;
      log.shed += result.status().code() == StatusCode::kOverloaded ? 1 : 0;
      return;
    }
    log.select_ms.push_back(ms);
    log.queue_ms.push_back(result->queue_ms);
    log.run_ms.push_back(result->run_ms);
    if (i % kSampleEvery == 0 && log.samples.size() < kSampleCap) {
      log.samples.push_back({q, std::move(result->selection.rows)});
    }
  };
}

/// Warms `loop` up, measures it for `seconds` — and, when `replayed` is
/// set, on until that many requests were replayed (see kReplayTarget) —
/// then merges it into `phase`.
template <typename Loop>
void RunFor(double seconds, Loop& loop, Phase* phase,
            std::vector<Sampled>* samples,
            const std::atomic<uint32_t>* replayed = nullptr) {
  loop.WarmUpAndMeasure();
  const auto start = Clock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  while (replayed != nullptr && replayed->load() < kReplayTarget &&
         Seconds(start) < kReplayStretch * seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  MergeClients(loop.Join(), phase, samples);
  phase->window_s = Seconds(start);
}

/// Checks each sampled response against a full scan of `snapshot` (whose
/// table extends the one the response was computed on).
void CheckAgainstScan(const serve::DatabaseSnapshot& snapshot,
                      const std::vector<Query>& queries,
                      const std::vector<Sampled>& samples, Checks* checks,
                      const char* what) {
  const SelectionExecutor executor = snapshot.MakeExecutor();
  for (const Sampled& s : samples) {
    auto scan = executor.SelectByScan(queries[s.query]);
    checks->Expect(scan.ok() && Prefix(*scan, s.rows.size()) == s.rows,
                   std::string(what) + ": " + queries[s.query][0].ToString());
  }
}

/// Replays `query` step by step on a pin of `snapshots`: pin, plan,
/// execute, then per conjunct the index evaluation, its reduced cover and
/// the cover's evaluation over the slices, and the final AND. Records one
/// span per call under `parent` and returns the executed answer.
BitVector ReplayOnSnapshot(serve::SnapshotManager& snapshots,
                           const Query& query, uint32_t parent,
                           uint32_t request, SpanLog* log, Checks* checks,
                           uint64_t* epoch) {
  uint32_t s = log->Begin("snapshot.pin", parent, request);
  serve::SnapshotManager::Pin pin = snapshots.Acquire();
  log->End(s);
  *epoch = pin->epoch();

  s = log->Begin("query.plan", parent, request);
  SelectionExecutor executor = pin->MakeExecutor();
  log->End(s);

  s = log->Begin("query.execute", parent, request);
  auto executed = executor.Select(query);
  log->End(s);
  CheckOk(executed.status(), "replay Select");

  std::vector<BitVector> conjuncts;
  for (const Predicate& p : query) {
    SecondaryIndex* index = pin->index(p.column);
    s = log->Begin("index.eval", parent, request);
    auto bits = Evaluate(index, p);
    log->End(s);
    CheckOk(bits.status(), "replay Evaluate");

    const auto* encoded = dynamic_cast<const EncodedBitmapIndex*>(index);
    if (encoded == nullptr) {
      CheckOk(Status::FailedPrecondition(index->Name() + " is not encoded"),
              "replay");
    }
    const std::vector<Value> values = ValuesOf(p);
    s = log->Begin("boolean.reduce", parent, request);
    auto cover = encoded->CoverForIn(values);
    log->End(s);
    CheckOk(cover.status(), "replay CoverForIn");
    log->Count(s, "cubes", static_cast<double>(cover->size()));
    log->Count(s, "vectors", DistinctVariables(*cover));
    log->Count(s, "ce_bound", static_cast<double>(encoded->NumVectors()));

    s = log->Begin("kernels.cover_eval", parent, request);
    const BitVector covered =
        EvaluateCover(*cover, encoded->slices(), pin->NumRows());
    log->End(s);
    checks->Expect(covered == *bits,
                   "cover eval vs index eval: " + p.ToString());
    conjuncts.push_back(std::move(bits).value());
  }

  s = log->Begin("kernels.and", parent, request);
  BitVector stepwise = std::move(conjuncts[0]);
  std::vector<const BitVector*> rest;
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    rest.push_back(&conjuncts[i]);
  }
  if (!rest.empty()) {
    stepwise.AndWithMany(rest);
  }
  log->End(s);
  checks->Expect(stepwise == executed->rows, "stepwise vs executor");
  return std::move(executed->rows);
}

/// The replay step of the QueryService workloads: one seeded request of
/// `queries`, replayed stepwise; every kServeCompareEvery-th answer is
/// also checked against the service's own when both ran on one epoch.
auto ServeReplay(serve::QueryService& service,
                 const std::vector<Query>& queries, uint64_t seed,
                 RunRecord* record, std::atomic<uint32_t>* replayed) {
  return [&service, &queries, record, replayed, rng = Rng(seed),
          request = uint32_t{0}](const std::atomic<bool>&) mutable {
    const Query& query = queries[rng.UniformInt(queries.size())];
    SpanLog* log = &record->spans;
    const uint32_t root = log->Begin("request", kNoParent, request);
    uint64_t epoch = 0;
    const BitVector stepwise =
        ReplayOnSnapshot(service.snapshots(), query, root, request, log,
                         &record->checks, &epoch);
    log->End(root);
    if (request % kServeCompareEvery == 0) {
      auto served = service.Select(query);
      if (served.ok() && served->epoch == epoch) {
        record->checks.Expect(served->selection.rows == stepwise,
                              "stepwise vs service");
      }
    }
    record->traced.retired_max = std::max<uint64_t>(
        record->traced.retired_max, service.snapshots().RetiredCount());
    ++request;
    replayed->fetch_add(1);
  };
}

// ---------------------------------------------------------------------------
// Star schema inputs.

std::unique_ptr<StarSchema> StarData(uint64_t seed) {
  StarSchemaConfig config;
  config.fact_rows = kStarRows;
  config.num_products = kStarProducts;
  config.num_branches = kStarBranches;
  config.num_days = kStarDays;
  config.seed = SubSeed(seed, 1);
  return CheckOk(BuildStarSchema(config), "BuildStarSchema");
}

/// The product query mix (IN-lists and BETWEEN, δ 2–64).
std::vector<Predicate> ProductQueries(uint64_t seed) {
  QueryMixConfig mix;
  mix.num_queries = kQueryPool;
  mix.range_fraction = 1.0;
  mix.min_delta = 2;
  mix.max_delta = 64;
  mix.seed = SubSeed(seed, 2);
  return GenerateQueryMix("product", kStarProducts, mix);
}

/// The product mix, each query conjoined with a branch equality or a
/// 30-day window.
std::vector<Query> StarQueries(uint64_t seed) {
  Rng rng(SubSeed(seed, 3));
  std::vector<Query> queries;
  for (Predicate& product : ProductQueries(seed)) {
    Query q{std::move(product)};
    // Two in three queries take the (costlier) day window, so the median
    // sits inside one mode of the two-mode latency distribution.
    if (rng.Bernoulli(1.0 / 3.0)) {
      q.push_back(Predicate::Eq(
          "branch", Value::Int(static_cast<int64_t>(rng.UniformInt(
                        kStarBranches)))));
    } else {
      const auto lo = static_cast<int64_t>(rng.UniformInt(kStarDays - 30));
      q.push_back(Predicate::Between("day", lo, lo + 29));
    }
    queries.push_back(std::move(q));
  }
  return queries;
}

Rows StarBatch(Rng& rng) {
  Rows rows;
  for (size_t i = 0; i < kIngestBatchRows; ++i) {
    rows.push_back(
        {Value::Int(static_cast<int64_t>(rng.UniformInt(kStarProducts))),
         Value::Int(static_cast<int64_t>(rng.UniformInt(kStarBranches))),
         Value::Int(static_cast<int64_t>(rng.UniformInt(kStarDays))),
         Value::Int(rng.UniformRange(1, 100))});
  }
  return rows;
}

const std::vector<serve::IndexSpec>& StarSpecs() {
  static const std::vector<serve::IndexSpec> specs = {
      {"product", IndexKind::kEncodedBitmap},
      {"branch", IndexKind::kEncodedBitmap},
      {"day", IndexKind::kEncodedBitmap}};
  return specs;
}

uint64_t IndexBytes(const serve::DatabaseSnapshot& snapshot,
                    const std::vector<serve::IndexSpec>& specs) {
  uint64_t bytes = 0;
  for (const serve::IndexSpec& spec : specs) {
    bytes += snapshot.index(spec.column)->SizeBytes();
  }
  return bytes;
}

/// Starts a QueryService on a copy of `base` kSetups times, recording
/// each Start, and returns the last one. `before_start` runs untimed
/// before each Start (e.g. to remove a WAL left by the previous set-up).
template <typename BeforeStart>
std::unique_ptr<serve::QueryService> SetUpService(
    const Table& base, const serve::ServeOptions& options,
    BeforeStart before_start, RunRecord* record) {
  record->heap.Start();
  std::unique_ptr<serve::QueryService> service;
  for (size_t i = 0; i < kSetups; ++i) {
    service.reset();
    before_start();
    auto table = std::make_unique<Table>(base.Clone());
    service = std::make_unique<serve::QueryService>(options);
    const auto start = Clock::now();
    CheckOk(service->Start(std::move(table), StarSpecs()), "Start");
    record->setup_s.push_back(Seconds(start));
  }
  serve::SnapshotManager::Pin pin = service->snapshots().Acquire();
  record->rows = pin->NumRows();
  record->index_bytes = IndexBytes(*pin, StarSpecs());
  return service;
}

serve::ServeOptions StarServeOptions() {
  serve::ServeOptions options;
  options.worker_threads = kStarWorkers;
  options.telemetry.enabled = true;  // Default 1% trace sampling.
  return options;
}

/// One timed append of `rows` until published.
void TimedAppend(serve::QueryService& service, const Rows& rows,
                 Phase* phase) {
  ++phase->append_attempted;
  const auto start = Clock::now();
  auto epoch = service.Append(rows);
  const double ms = MsSince(start);
  if (!epoch.ok()) {
    ++phase->append_failed;
    return;
  }
  phase->append_ms.push_back(ms);
  phase->rows_appended += rows.size();
}

}  // namespace

// ---------------------------------------------------------------------------

void RunStarRead(const RunConfig& config, RunRecord* record) {
  const std::unique_ptr<StarSchema> data = StarData(config.seed);
  const std::vector<Query> queries = StarQueries(config.seed);
  record->meta["clients"] = "4 closed-loop";
  record->meta["telemetry"] = "on, sample_rate 0.01";
  record->meta["wal"] = "none";

  auto service =
      SetUpService(*data->sales, StarServeOptions(), [] {}, record);

  std::vector<Sampled> samples;
  {
    ClosedLoop loop(kStarReadClients, ServeIssue(*service, queries));
    RunFor(config.seconds, loop, &record->untraced, &samples);
  }
  serve::SnapshotManager::Pin pin = service->snapshots().Acquire();
  CheckAgainstScan(*pin, queries, samples, &record->checks, "star_read");

  if (config.trace) {
    samples.clear();
    std::atomic<uint32_t> replayed{0};
    ClosedLoop loop(kStarReadClients, ServeIssue(*service, queries));
    Background replay(ServeReplay(*service, queries, SubSeed(config.seed, 9),
                                  record, &replayed));
    RunFor(config.seconds, loop, &record->traced, &samples, &replayed);
    replay.Stop();
    CheckAgainstScan(*pin, queries, samples, &record->checks,
                     "star_read traced");
    ProbeKernels(pin->NumRows(), &record->probes);
  }
}

void RunStarIngest(const RunConfig& config, RunRecord* record) {
  const std::unique_ptr<StarSchema> data = StarData(config.seed);
  const Table& base = *data->sales;
  const std::vector<Query> queries = StarQueries(config.seed);
  const size_t batches = std::max<size_t>(
      1, static_cast<size_t>(config.seconds * kIngestBatchesPerSecond));
  Rng batch_rng(SubSeed(config.seed, 4));
  std::vector<Rows> loads;
  for (size_t b = 0; b < batches; ++b) {
    loads.push_back(StarBatch(batch_rng));
  }
  serve::ServeOptions options = StarServeOptions();
  options.wal_path = config.work_dir + "/star_ingest.wal";
  options.wal_sync_on_append = true;
  record->meta["clients"] = "3 closed-loop readers + 1 loader";
  record->meta["telemetry"] = "on, sample_rate 0.01";
  record->meta["wal"] = "fsync on every append (wal_sync_on_append=true)";
  record->meta["ingest"] = std::to_string(batches) + " batches x " +
                           std::to_string(kIngestBatchRows) + " rows";

  const std::string& wal = options.wal_path;
  auto service = SetUpService(
      base, options, [&wal] { std::remove(wal.c_str()); }, record);

  // The loader appends every batch back to back on this thread; the
  // readers' window is the loader's.
  std::vector<Sampled> samples;
  {
    ClosedLoop loop(kIngestReaders, ServeIssue(*service, queries));
    loop.WarmUpAndMeasure();
    const auto start = Clock::now();
    for (const Rows& rows : loads) {
      TimedAppend(*service, rows, &record->untraced);
    }
    MergeClients(loop.Join(), &record->untraced, &samples);
    record->untraced.window_s = Seconds(start);
  }
  {
    serve::SnapshotManager::Pin pin = service->snapshots().Acquire();
    CheckAgainstScan(*pin, queries, samples, &record->checks, "star_ingest");
  }

  // Restart from the WAL: a fresh service on the original base table must
  // replay every acknowledged batch and serve the same answers.
  std::vector<BitVector> before;
  for (size_t q = 0; q < kRecoveryQueries; ++q) {
    before.push_back(CheckOk(service->Select(queries[q]), "pre-restart")
                         .selection.rows);
  }
  const uint64_t acknowledged = base.NumRows() + record->untraced.rows_appended;
  CheckOk(service->Shutdown(), "Shutdown");
  service.reset();
  auto table = std::make_unique<Table>(base.Clone());
  const auto restart = Clock::now();
  service = std::make_unique<serve::QueryService>(options);
  CheckOk(service->Start(std::move(table), StarSpecs()), "restart");
  auto first = service->Select(queries[0]);
  record->recovery_s = Seconds(restart);
  {
    serve::SnapshotManager::Pin pin = service->snapshots().Acquire();
    record->checks.Expect(pin->NumRows() == acknowledged,
                          "recovered rows " + std::to_string(pin->NumRows()) +
                              " != acknowledged " +
                              std::to_string(acknowledged));
    const SelectionExecutor executor = pin->MakeExecutor();
    for (size_t q = 0; q < kRecoveryQueries; ++q) {
      auto after = q == 0 ? std::move(first) : service->Select(queries[q]);
      auto scan = executor.SelectByScan(queries[q]);
      record->checks.Expect(after.ok() && scan.ok() &&
                                after->selection.rows == before[q] &&
                                *scan == before[q],
                            "recovered answer " + std::to_string(q));
    }
  }

  if (config.trace) {
    // Same load on the recovered service: readers, the loader cycling
    // through the batches again, and the replay.
    samples.clear();
    std::atomic<uint32_t> replayed{0};
    ClosedLoop loop(kIngestReaders, ServeIssue(*service, queries));
    Background replay(ServeReplay(*service, queries, SubSeed(config.seed, 9),
                                  record, &replayed));
    Background loader([&service, &loads, record, b = size_t{0}](
                          const std::atomic<bool>&) mutable {
      TimedAppend(*service, loads[b++ % loads.size()], &record->traced);
    });
    RunFor(config.seconds, loop, &record->traced, &samples, &replayed);
    loader.Stop();
    replay.Stop();
    serve::SnapshotManager::Pin pin = service->snapshots().Acquire();
    CheckAgainstScan(*pin, queries, samples, &record->checks,
                     "star_ingest traced");
    ProbeClone(*pin, loads[0], kCloneSamples, &record->probes);
    ProbeWal(config.work_dir + "/probe.wal", loads[0], kWalSamples,
             &record->probes);
    ProbeKernels(pin->NumRows(), &record->probes);
  }
}

// ---------------------------------------------------------------------------

namespace {

Rows TenantRows(Rng& rng, size_t n) {
  Rows rows;
  for (size_t i = 0; i < n; ++i) {
    const auto tenant = static_cast<int64_t>(rng.UniformInt(kTenants));
    const auto offset = static_cast<int64_t>(
        rng.UniformInt(static_cast<uint64_t>(kKeysPerTenant)));
    rows.push_back(
        {Value::Int(tenant * kKeysPerTenant + offset),
         Value::Int(static_cast<int64_t>(rng.UniformInt(kValueCardinality)))});
  }
  return rows;
}

std::unique_ptr<Table> TenantTable(const Rows& rows) {
  auto table = std::make_unique<Table>("tenants");
  CheckOk(table->AddColumn("k", Column::Type::kInt64), "AddColumn");
  CheckOk(table->AddColumn("v", Column::Type::kInt64), "AddColumn");
  for (const auto& row : rows) {
    CheckOk(table->AppendRow(row), "AppendRow");
  }
  return table;
}

const std::vector<serve::IndexSpec>& TenantSpecs() {
  static const std::vector<serve::IndexSpec> specs = {
      {"k", IndexKind::kEncodedBitmap}, {"v", IndexKind::kEncodedBitmap}};
  return specs;
}

/// serve_cluster's loadgen shape, with its settings: Zipf tenants with 128
/// keys each, a tenant-range predicate plus an equality on the 16-value
/// column, and a 15% wide-IN adversary pinned to tenant 0.
std::vector<Query> TenantQueries(uint64_t seed) {
  workload::LoadGenOptions load;
  load.seed = SubSeed(seed, 2);
  load.operations = kQueryPool;
  load.tenants = kTenants;
  load.zipf_theta = 0.7;
  load.keys_per_tenant = kKeysPerTenant;
  load.key_column = "k";
  load.value_column = "v";
  load.value_cardinality = kValueCardinality;
  load.adversary_fraction = 0.15;
  load.adversary_tenant = 0;
  load.adversary_in_width = kValueCardinality * 12;
  std::vector<Query> queries;
  for (workload::LoadOp& op : workload::GenerateLoad(load).ops) {
    queries.push_back(std::move(op.predicates));
  }
  return queries;
}

/// A closed-loop issue function for ClusterQueryService::Select.
auto ClusterIssue(serve::cluster::ClusterQueryService& cluster,
                  const std::vector<Query>& queries) {
  return [&cluster, &queries](ClientLog& log, size_t i) {
    const size_t q = i % queries.size();
    ++log.attempted;
    const auto start = Clock::now();
    auto result = cluster.Select(queries[q]);
    const double ms = MsSince(start);
    if (!result.ok() || result->partial) {
      ++log.failed;
      log.shed += !result.ok() &&
                          result.status().code() == StatusCode::kOverloaded
                      ? 1
                      : 0;
      return;
    }
    log.select_ms.push_back(ms);
    log.fanout.push_back(static_cast<double>(result->visited_shards.size()));
    double slowest = 0.0;
    for (const serve::cluster::ShardOutcome& outcome : result->outcomes) {
      log.shard_ms.push_back(outcome.latency_ms);
      slowest = std::max(slowest, outcome.latency_ms);
    }
    log.gather_ms.push_back(std::max(0.0, ms - slowest));
  };
}

/// The appender step: routed batches on a fixed schedule, one every
/// kAppendEveryMs from when the step is made, each timed from when it was
/// due. Appended batches are kept in order so the checks can rebuild the
/// global rows.
auto ScheduledAppend(serve::cluster::ClusterQueryService& cluster,
                     const std::vector<Rows>& batches, Phase* phase,
                     std::vector<const Rows*>* appended) {
  return [&cluster, &batches, phase, appended, start = Clock::now(),
          b = size_t{0}](const std::atomic<bool>& stop) mutable {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double, std::milli>(
                                     kAppendEveryMs * static_cast<double>(b++)));
    std::this_thread::sleep_until(due);
    if (stop.load()) {
      return;
    }
    phase->appender_late_max_ms =
        std::max(phase->appender_late_max_ms,
                 std::chrono::duration<double, std::milli>(Clock::now() - due)
                     .count());
    const Rows& rows = batches[appended->size() % batches.size()];
    ++phase->append_attempted;
    auto epoch = cluster.Append(rows);
    if (!epoch.ok()) {
      ++phase->append_failed;
      return;
    }
    phase->append_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - due).count());
    phase->rows_appended += rows.size();
    appended->push_back(&rows);
  };
}

/// Quiescent-point check: with no load running, sampled cluster answers
/// must equal a scan over the same global rows (`shadow`).
void CheckCluster(serve::cluster::ClusterQueryService& cluster,
                  const Table& shadow, const std::vector<Query>& queries,
                  Rng& rng, Checks* checks, const char* what) {
  IoAccountant io;
  const SelectionExecutor executor(&shadow, &io);
  for (size_t i = 0; i < kSampleCap; ++i) {
    const Query& query = queries[rng.UniformInt(queries.size())];
    auto result = cluster.Select(query);
    auto scan = executor.SelectByScan(query);
    checks->Expect(result.ok() && scan.ok() && !result->partial &&
                       result->selection.rows == *scan,
                   std::string(what) + ": " + query[0].ToString());
  }
}

void ExtendShadow(Table* shadow, std::vector<const Rows*>* appended) {
  for (const Rows* rows : *appended) {
    for (const auto& row : *rows) {
      CheckOk(shadow->AppendRow(row), "shadow AppendRow");
    }
  }
  appended->clear();
}

/// The tenant_cluster replay step: one seeded request replayed on every
/// shard the router fans it out to (a "shard" span holding that shard's
/// stepwise replay), then the per-shard answers merged through the
/// router's placement ("cluster.merge").
auto ClusterReplay(serve::cluster::ClusterQueryService& cluster,
                   const std::vector<Query>& queries, uint64_t seed,
                   RunRecord* record, std::atomic<uint32_t>* replayed) {
  return [&cluster, &queries, record, replayed, rng = Rng(seed),
          request = uint32_t{0}](const std::atomic<bool>&) mutable {
    const Query& query = queries[rng.UniformInt(queries.size())];
    SpanLog* log = &record->spans;
    const uint32_t root = log->Begin("request", kNoParent, request);
    const std::vector<size_t> shards = cluster.router().OwningShards(query);
    std::vector<BitVector> local;
    for (const size_t shard : shards) {
      const uint32_t s = log->Begin("shard", root, request);
      uint64_t epoch = 0;
      local.push_back(ReplayOnSnapshot(cluster.shard(shard).snapshots(), query,
                                       s, request, log, &record->checks,
                                       &epoch));
      log->End(s);
    }
    const uint32_t m = log->Begin("cluster.merge", root, request);
    const auto placement = cluster.router().placement();
    BitVector merged(placement->total_rows);
    for (size_t i = 0; i < shards.size(); ++i) {
      const std::vector<uint64_t>& ids = placement->shard_rows[shards[i]];
      local[i].ForEachSetBit([&](size_t j) { merged.Set(ids[j]); });
    }
    log->End(m);
    log->End(root);
    for (size_t s = 0; s < cluster.shards(); ++s) {
      record->traced.retired_max =
          std::max<uint64_t>(record->traced.retired_max,
                             cluster.shard(s).snapshots().RetiredCount());
    }
    ++request;
    replayed->fetch_add(static_cast<uint32_t>(shards.size()));
  };
}

}  // namespace

void RunTenantCluster(const RunConfig& config, RunRecord* record) {
  Rng data_rng(SubSeed(config.seed, 1));
  const std::unique_ptr<Table> base =
      TenantTable(TenantRows(data_rng, kTenantRows));
  std::vector<Rows> batches;
  for (size_t b = 0; b < kTenantBatches; ++b) {
    batches.push_back(TenantRows(data_rng, kTenantBatchRows));
  }
  const std::vector<Query> queries = TenantQueries(config.seed);

  serve::cluster::ClusterOptions options;
  options.shards = kShards;
  options.partition = serve::cluster::PartitionKind::kHash;
  options.key_column = "k";
  options.shard_options.worker_threads = 1;
  record->meta["clients"] = "3 closed-loop + 1 appender every 10 ms";
  record->meta["telemetry"] = "off";
  record->meta["wal"] = "none";
  record->meta["cluster"] = "4 hash shards x 1 worker";

  // The checks' copy of the global rows is made before the memory
  // baseline, like the other generated inputs.
  auto shadow = std::make_unique<Table>(base->Clone());
  record->heap.Start();
  std::unique_ptr<serve::cluster::ClusterQueryService> cluster;
  for (size_t i = 0; i < kSetups; ++i) {
    cluster.reset();
    auto table = std::make_unique<Table>(base->Clone());
    cluster = std::make_unique<serve::cluster::ClusterQueryService>(options);
    const auto start = Clock::now();
    CheckOk(cluster->Start(std::move(table), TenantSpecs()), "cluster Start");
    record->setup_s.push_back(Seconds(start));
  }
  record->rows = base->NumRows();
  for (size_t s = 0; s < cluster->shards(); ++s) {
    serve::SnapshotManager::Pin pin = cluster->shard(s).snapshots().Acquire();
    record->index_bytes += IndexBytes(*pin, TenantSpecs());
  }

  std::vector<const Rows*> appended;
  Rng check_rng(SubSeed(config.seed, 5));
  CheckCluster(*cluster, *shadow, queries, check_rng, &record->checks,
               "tenant_cluster start");

  std::vector<Sampled> unused;
  {
    ClosedLoop loop(kClusterClients, ClusterIssue(*cluster, queries));
    Background appender(
        ScheduledAppend(*cluster, batches, &record->untraced, &appended));
    RunFor(config.seconds, loop, &record->untraced, &unused);
  }
  ExtendShadow(shadow.get(), &appended);
  CheckCluster(*cluster, *shadow, queries, check_rng, &record->checks,
               "tenant_cluster after load");

  if (config.trace) {
    {
      std::atomic<uint32_t> replayed{0};
      ClosedLoop loop(kClusterClients, ClusterIssue(*cluster, queries));
      Background appender(
          ScheduledAppend(*cluster, batches, &record->traced, &appended));
      Background replay(ClusterReplay(*cluster, queries,
                                      SubSeed(config.seed, 9), record,
                                      &replayed));
      RunFor(config.seconds, loop, &record->traced, &unused, &replayed);
    }
    ExtendShadow(shadow.get(), &appended);
    CheckCluster(*cluster, *shadow, queries, check_rng, &record->checks,
                 "tenant_cluster after traced load");
    serve::SnapshotManager::Pin pin = cluster->shard(0).snapshots().Acquire();
    ProbeClone(*pin, batches[0], kCloneSamples, &record->probes);
    ProbeRoute(*shadow, "k", kShards, batches[0], kRouteSamples,
               &record->probes);
    ProbeKernels(pin->NumRows(), &record->probes);
  }
}

// ---------------------------------------------------------------------------

namespace {

/// One cold_scan request: the cold index evaluation, whose storage-engine
/// counters are added to `phase`. When `log` is set the request is then
/// replayed stepwise, one public call at a time, to account for the
/// evaluation's time: the reduction to a cover (on the in-memory twin,
/// which holds the same sequential mapping), a fetch through the buffer
/// pool of each slice the cover references, and the cover's evaluation
/// over the fetched slices. The fetches read the slices in the order the
/// evaluation does, so the pool holds the same pages after them as after
/// the evaluation; their own reads are kept out of `phase`.
Result<BitVector> ColdRequest(ColdEncodedBitmapIndex& cold,
                              EncodedBitmapIndex& twin, IoAccountant& io,
                              const Predicate& p, uint32_t request,
                              SpanLog* log, Phase* phase, Checks* checks) {
  const IoStats io_before = io.stats();
  const BitmapStoreStats store_before = cold.store_stats();
  uint32_t root = kNoParent;
  uint32_t s = kNoParent;
  if (log != nullptr) {
    root = log->Begin("request", kNoParent, request);
    s = log->Begin("index.eval", root, request);
  }
  auto bits = Evaluate(&cold, p);
  if (log != nullptr) {
    log->End(s);
  }
  const IoStats io_delta = io.stats() - io_before;
  const BitmapStoreStats store_after = cold.store_stats();
  phase->engine_pages += io_delta.pages_read;
  phase->engine_bytes += io_delta.bytes_read;
  phase->engine_hits += store_after.hits - store_before.hits;
  phase->engine_misses += store_after.misses - store_before.misses;
  phase->engine_evictions += store_after.evictions - store_before.evictions;
  if (log == nullptr) {
    return bits;
  }

  s = log->Begin("boolean.reduce", root, request);
  auto cover = twin.CoverForIn(ValuesOf(p));
  log->End(s);
  CheckOk(cover.status(), "cold CoverForIn");
  log->Count(s, "cubes", static_cast<double>(cover->size()));
  log->Count(s, "vectors", DistinctVariables(*cover));
  log->Count(s, "ce_bound", static_cast<double>(cold.NumVectors()));

  const size_t rows = cold.column().size();
  const uint64_t vars = VariablesOf(*cover);
  std::vector<BitVector> slices(cold.NumSlices());
  for (size_t i = 0; i < slices.size(); ++i) {
    if (((vars >> i) & 1) == 0) {
      slices[i] = BitVector(rows);  // Never read by the cover.
      continue;
    }
    s = log->Begin("engine.fetch", root, request);
    auto slice = cold.FetchSlice(i);
    log->End(s);
    slices[i] = CheckOk(std::move(slice), "cold FetchSlice");
  }

  s = log->Begin("kernels.cover_eval", root, request);
  const BitVector covered = EvaluateCover(*cover, slices, rows);
  log->End(s);
  log->End(root);
  checks->Expect(bits.ok() && covered == *bits,
                 "cold stepwise vs cold eval: " + p.ToString());
  return bits;
}

/// The single cold_scan client: warms up, then measures for `seconds`.
/// While tracing (`log` set) it replays every request stepwise itself —
/// the buffer pool's store counters are single-caller, so a second
/// replaying thread would race — and runs on until kReplayTarget
/// requests were replayed.
void ColdPhase(ColdEncodedBitmapIndex& cold, EncodedBitmapIndex& twin,
               IoAccountant& io, const std::vector<Predicate>& queries,
               double seconds, SpanLog* log, Phase* phase,
               std::vector<Sampled>* samples, Checks* checks) {
  size_t i = 0;
  for (const auto warm = Clock::now(); Seconds(warm) < kWarmupS; ++i) {
    CheckOk(Evaluate(&cold, queries[i % queries.size()]).status(),
            "cold warm-up");
  }
  const auto start = Clock::now();
  for (size_t measured = 0;; ++i, ++measured) {
    const double elapsed = Seconds(start);
    const bool short_of_target = log != nullptr && measured < kReplayTarget;
    if (elapsed >= seconds &&
        !(short_of_target && elapsed < kReplayStretch * seconds)) {
      break;
    }
    const Predicate& p = queries[i % queries.size()];
    ++phase->select_attempted;
    const auto t = Clock::now();
    auto bits = ColdRequest(cold, twin, io, p, static_cast<uint32_t>(i), log,
                            phase, checks);
    const double ms = MsSince(t);
    if (!bits.ok()) {
      ++phase->select_failed;
      continue;
    }
    phase->select_ms.push_back(ms);
    if (i % kSampleEvery == 0 && samples->size() < kSampleCap) {
      samples->push_back({i % queries.size(), std::move(bits).value()});
    }
  }
  phase->window_s = Seconds(start);
  phase->engine_queries = phase->select_attempted;
}

void CheckCold(EncodedBitmapIndex& twin, const std::vector<Predicate>& queries,
               const std::vector<Sampled>& samples, Checks* checks) {
  for (const Sampled& s : samples) {
    auto expected = Evaluate(&twin, queries[s.query]);
    checks->Expect(expected.ok() && *expected == s.rows,
                   "cold vs in-memory: " + queries[s.query].ToString());
  }
}

}  // namespace

void RunColdScan(const RunConfig& config, RunRecord* record) {
  const std::unique_ptr<StarSchema> data = StarData(config.seed);
  const Table& sales = *data->sales;
  const Column& product = *CheckOk(sales.FindColumn("product"), "product");
  const std::vector<Predicate> queries = ProductQueries(config.seed);
  record->meta["clients"] = "1 closed-loop";
  record->meta["telemetry"] = "off";
  record->meta["wal"] = "none";
  record->meta["pool"] = std::to_string(kPoolPages) + " pages";

  IoAccountant twin_io;
  EncodedBitmapIndex twin(&product, &sales.existence(), &twin_io);
  CheckOk(twin.Build(), "twin Build");

  IoAccountant io;
  ColdEncodedBitmapIndexOptions options;
  options.pool_pages = kPoolPages;
  options.directory = config.work_dir;
  record->heap.Start();
  std::unique_ptr<ColdEncodedBitmapIndex> cold;
  for (size_t i = 0; i < kSetups; ++i) {
    cold.reset();
    cold = std::make_unique<ColdEncodedBitmapIndex>(
        &product, &sales.existence(), &io, options);
    const auto start = Clock::now();
    CheckOk(cold->Build(), "cold Build");
    record->setup_s.push_back(Seconds(start));
  }
  record->rows = sales.NumRows();
  record->index_bytes = cold->SizeBytes();

  std::vector<Sampled> samples;
  ColdPhase(*cold, twin, io, queries, config.seconds, nullptr,
            &record->untraced, &samples, &record->checks);
  CheckCold(twin, queries, samples, &record->checks);

  if (config.trace) {
    samples.clear();
    ColdPhase(*cold, twin, io, queries, config.seconds, &record->spans,
              &record->traced, &samples, &record->checks);
    CheckCold(twin, queries, samples, &record->checks);
    ProbeKernels(sales.NumRows(), &record->probes);
  }
}

}  // namespace perfbench
}  // namespace ebi
