#ifndef EBI_SERVE_QUERY_SERVICE_H_
#define EBI_SERVE_QUERY_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "obs/workload_recorder.h"
#include "query/executor.h"
#include "query/predicate.h"
#include "serve/snapshot.h"
#include "storage/engine/wal.h"
#include "storage/table.h"
#include "util/status.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace ebi {
namespace serve {

/// Production-telemetry knobs (DESIGN.md §11), fixed at construction.
/// With `enabled` false the serve path keeps only its always-on stage
/// histograms and counters — no sampling draw, no ring, no recorder —
/// which is the "no sink" baseline BENCH_obs_overhead compares against.
struct ServeTelemetryOptions {
  /// Master switch for sampling, the slow-query ring and the workload
  /// recorder.
  bool enabled = false;
  /// Fraction of requests whose record (with its span tree) is pushed
  /// into the trace ring (deterministic, see obs::TraceSampler). 0
  /// disables sampling while keeping the slow-query ring and recorder
  /// live.
  double sample_rate = 0.01;
  /// Capacity of the trace ring and of the slow-query ring (most recent
  /// records win).
  size_t ring_capacity = 256;
  /// Requests at or above this end-to-end latency enter the slow-query
  /// ring unconditionally — sampled or not.
  double slow_threshold_ms = 100.0;
  /// When non-empty, every ok query appends one JSONL record here
  /// (obs::WorkloadRecorder; rotation per workload_options).
  std::string workload_log_path;
  obs::WorkloadRecorderOptions workload_options;
  /// Every N completed requests one worker flushes the metrics registry
  /// to `export_path_prefix`.prom/.json (best-effort, try-lock — workers
  /// never queue behind an export). 0 disables the periodic flush;
  /// ExportTelemetry() can always be called directly.
  size_t export_every = 0;
  std::string export_path_prefix;
};

/// Service-wide knobs, fixed at construction.
struct ServeOptions {
  /// Workers in the service-owned request pool.
  size_t worker_threads = 2;
  /// Admission bound: selections queued or running. One past this and
  /// Submit sheds with kOverloaded instead of queueing.
  size_t queue_depth = 64;
  /// Deadline applied to requests that do not carry their own; 0 (or
  /// below) = none. Checked like a request's own deadline at admission.
  double default_deadline_ms = 0.0;
  /// Production telemetry (sampled tracing, slow-query ring, workload
  /// recorder, periodic exporter).
  ServeTelemetryOptions telemetry;
  /// Durable serve mode (DESIGN.md §12): when non-empty, every combined
  /// append batch is written to this WAL — append + fsync — *before* the
  /// new snapshot publishes, and Start() replays committed batches from
  /// it onto the base table. WAL durability is the commit point: a batch
  /// whose WAL write succeeded survives a crash even if the process dies
  /// before the publish.
  std::string wal_path;
  /// fsync the WAL on every append (group-commit callers may turn this
  /// off and rely on the Shutdown sync, trading tail durability away).
  bool wal_sync_on_append = true;
  /// Fault injection for crash-recovery tests: forwarded to
  /// engine::WalOptions::fail_after_appends.
  uint64_t wal_fail_after_appends = 0;
};

/// Per-request knobs.
struct RequestOptions {
  /// Deadline measured from submission. Unset: the service default
  /// applies. <= 0: already expired (tests use 0 for a deterministic
  /// kDeadlineExceeded). NaN, infinite or unrepresentably large: rejected
  /// with kInvalidArgument (see DeadlineAfter). The deadline is checked
  /// when a worker picks the request up — a request that started in time
  /// is never cancelled mid-query.
  std::optional<double> deadline_ms;
  /// When set, the request's serve.request span tree is recorded here
  /// (the EXPLAIN path through the service).
  obs::QueryTrace* trace = nullptr;
};

/// Converts a deadline budget of `budget_ms` from `start` into a
/// steady-clock deadline: the one conversion QueryService::Submit and
/// the cluster's Select share. kDeadlineExceeded when the budget is
/// already spent (<= 0); kInvalidArgument when it is NaN, infinite, or
/// later than the clock can represent from `start`.
Result<std::chrono::steady_clock::time_point> DeadlineAfter(
    double budget_ms, std::chrono::steady_clock::time_point start);

/// What a completed selection hands back.
struct ServeResult {
  SelectionResult selection;
  /// Epoch of the snapshot the query ran against.
  uint64_t epoch = 0;
  /// Time spent queued before a worker picked the request up.
  double queue_ms = 0.0;
  /// Time spent executing.
  double run_ms = 0.0;
};

/// Async completion handle for one submitted request. Wait() blocks until
/// the worker finishes (or the request is shed post-admission) and may be
/// called repeatedly; the outcome is retained.
class ServeTicket {
 public:
  Result<ServeResult> Wait();

  /// Bounded wait: the outcome if the request resolved within
  /// `timeout_ms`, nullopt on timeout (the request keeps running — the
  /// cluster gather uses this to stop waiting on a shard at the cluster
  /// deadline). A non-positive timeout polls.
  std::optional<Result<ServeResult>> WaitFor(double timeout_ms);

 private:
  friend class QueryService;
  void Complete(Result<ServeResult> outcome);

  Mutex mu_{lock_rank::kServeTicket, "ServeTicket::mu_"};
  CondVar cv_;
  std::optional<Result<ServeResult>> outcome_ EBI_GUARDED_BY(mu_);
};

/// Concurrent query service over one table: multiplexes selections across
/// a thread pool, isolates every request on a pinned immutable snapshot,
/// and funnels appends through a single-writer combining pipeline that
/// publishes new snapshots copy-on-write (DESIGN.md §9).
///
/// Readers never block on the writer and the writer never blocks on
/// readers: a publish swaps one pointer, and superseded snapshots are
/// reclaimed by epoch once their last pin drops.
class QueryService {
 public:
  explicit QueryService(const ServeOptions& options = ServeOptions());
  /// Drains in-flight work (Shutdown) before tearing down.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Takes ownership of `table`, builds the serving indexes and publishes
  /// the initial snapshot at epoch 0. Must be called (once) before any
  /// Submit/Append. In durable mode (ServeOptions::wal_path) the WAL is
  /// replayed first: committed row batches not yet reflected in `table`
  /// are re-applied, so the initial snapshot equals the pre-crash
  /// committed state. Replay is idempotent — batches whose rows the base
  /// table already contains are skipped by their first_row key.
  Status Start(std::unique_ptr<Table> table, std::vector<IndexSpec> specs);

  /// Admits a conjunctive selection. Sheds with kOverloaded when the
  /// queue is full, kFailedPrecondition before Start or while draining.
  /// The returned ticket resolves to the result, kDeadlineExceeded, or
  /// the executor's error.
  Result<std::shared_ptr<ServeTicket>> Submit(
      std::vector<Predicate> predicates,
      const RequestOptions& options = RequestOptions());

  /// Submit + Wait. Blocks the calling thread, not a pool worker.
  Result<ServeResult> Select(
      const std::vector<Predicate>& predicates,
      const RequestOptions& options = RequestOptions());

  /// Appends `rows` atomically and returns the epoch whose snapshot first
  /// contains them. Blocks until published. Concurrent appenders combine:
  /// one caller becomes the writer, applies every staged batch onto one
  /// table clone and publishes once. Rows are validated against the
  /// schema up front so one bad batch cannot poison the others.
  Result<uint64_t> Append(std::vector<std::vector<Value>> rows);

  /// Stops admission and blocks until every admitted request completed
  /// and every staged append published. Idempotent; also run by the
  /// destructor.
  Status Shutdown();

  /// Epoch of the currently published snapshot.
  uint64_t CurrentEpoch() const { return snapshots_.CurrentEpoch(); }
  /// Row count of each published epoch, indexed by epoch — the ground
  /// truth stress tests check reader-visible counts against.
  std::vector<size_t> PublishedRowCounts() const;
  /// Selections admitted but not yet completed.
  size_t InFlight() const {
    return in_flight_.load(std::memory_order_seq_cst);
  }
  /// Direct access for tests (pinning across publishes, reclaim counts).
  SnapshotManager& snapshots() { return snapshots_; }
  /// The write-ahead log, or nullptr outside durable mode.
  engine::Wal* wal() { return wal_.get(); }

  /// Telemetry sinks; nullptr when telemetry is disabled (and the
  /// recorder also when no workload_log_path was configured).
  obs::RecordRing* trace_ring() { return trace_ring_.get(); }
  obs::RecordRing* slow_log() { return slow_log_.get(); }
  obs::WorkloadRecorder* workload_recorder() {
    return workload_recorder_.get();
  }

  /// Writes the global metrics registry to
  /// `<export_path_prefix>.prom` (Prometheus text exposition) and
  /// `<export_path_prefix>.json` (RenderJson with quantiles), and
  /// flushes the workload recorder. Requires a configured
  /// export_path_prefix. Also runs periodically when export_every > 0,
  /// and once during Shutdown.
  Status ExportTelemetry();

 private:
  struct StagedAppend {
    std::vector<std::vector<Value>> rows;
    uint64_t ticket = 0;
  };
  struct AppendOutcome {
    uint64_t epoch = 0;
    Status status = Status::OK();
  };

  void RunRequest(std::shared_ptr<ServeTicket> ticket,
                  std::vector<Predicate> predicates, obs::QueryTrace* trace,
                  std::chrono::steady_clock::time_point submitted,
                  std::optional<std::chrono::steady_clock::time_point>
                      deadline);
  /// Decrements in_flight_ and wakes Shutdown at zero.
  void FinishRequest();
  /// Periodic flush: every export_every completions one worker wins the
  /// try-lock and exports; the rest skip (telemetry must never queue the
  /// serve path behind file I/O).
  void MaybeExportTelemetry() EBI_EXCLUDES(export_mu_);
  /// Export body.
  Status ExportTelemetryLocked() EBI_REQUIRES(export_mu_);
  /// Durable-mode recovery: replays committed WAL row batches onto the
  /// base table (skipping those it already contains) and opens the WAL
  /// for appending. Called by Start before the initial snapshot is built.
  Status RecoverFromWal(Table& table);
  /// One combining-writer round: pins the current snapshot, makes the
  /// batch WAL-durable, clones + publishes the successor, and reports the
  /// new epoch through `next_epoch`. Runs *without* append_mu_ — the
  /// writer loop in Append releases the lock around each round so staging
  /// never queues behind a publish.
  Status CombineAndPublish(std::vector<StagedAppend>& batch,
                           uint64_t* next_epoch) EBI_EXCLUDES(append_mu_);

  const ServeOptions options_;
  SnapshotManager snapshots_
      EBI_UNGUARDED("RCU-style: internally synchronized (atomics + its own "
                    "retire mutex)");
  /// Claimed by the first Start call; started_ flips only once the
  /// initial snapshot is published.
  std::atomic<bool> start_guard_{false};
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};

  std::atomic<size_t> in_flight_{0};
  Mutex drain_mu_{lock_rank::kQueryServiceDrain, "QueryService::drain_mu_"};
  CondVar drain_cv_;

  // Append pipeline state, all under append_mu_.
  Mutex append_mu_{lock_rank::kQueryServiceAppend,
                   "QueryService::append_mu_"};
  CondVar append_cv_;
  std::vector<StagedAppend> staged_ EBI_GUARDED_BY(append_mu_);
  uint64_t next_append_ticket_ EBI_GUARDED_BY(append_mu_) = 0;
  bool writer_active_ EBI_GUARDED_BY(append_mu_) = false;
  std::unordered_map<uint64_t, AppendOutcome> append_outcomes_
      EBI_GUARDED_BY(append_mu_);

  mutable Mutex published_mu_{lock_rank::kQueryServicePublished,
                              "QueryService::published_mu_"};
  std::vector<size_t> published_row_counts_ EBI_GUARDED_BY(published_mu_);

  /// Write-ahead log; non-null only in durable mode. The combiner is the
  /// sole appender (single-writer), so Append ordering matches publish
  /// ordering.
  std::unique_ptr<engine::Wal> wal_
      EBI_UNGUARDED("set once in Start before any Append can run; the Wal "
                    "serializes itself internally");

  // Telemetry sinks (null when ServeTelemetryOptions::enabled is false).
  // All four are created in the constructor and internally synchronized
  // (atomics or their own locks), so the serve path reads the pointers
  // without a guard.
  std::unique_ptr<obs::TraceSampler> sampler_
      EBI_UNGUARDED("constructed before the pool; internally atomic");
  std::unique_ptr<obs::RecordRing> trace_ring_
      EBI_UNGUARDED("constructed before the pool; per-slot locks inside");
  std::unique_ptr<obs::RecordRing> slow_log_
      EBI_UNGUARDED("constructed before the pool; per-slot locks inside");
  std::unique_ptr<obs::WorkloadRecorder> workload_recorder_
      EBI_UNGUARDED("constructed before the pool; has its own mutex");
  /// Completed requests (any outcome); drives the periodic export.
  std::atomic<uint64_t> completed_{0};
  Mutex export_mu_{lock_rank::kQueryServiceExport,
                   "QueryService::export_mu_"};

  /// Last member: destroyed first, so tasks still draining during
  /// destruction see every other member alive.
  exec::ThreadPool pool_
      EBI_UNGUARDED("internally synchronized worker pool");
};

}  // namespace serve
}  // namespace ebi

#endif  // EBI_SERVE_QUERY_SERVICE_H_
