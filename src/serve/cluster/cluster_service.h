#ifndef EBI_SERVE_CLUSTER_CLUSTER_SERVICE_H_
#define EBI_SERVE_CLUSTER_CLUSTER_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "query/executor.h"
#include "query/predicate.h"
#include "serve/cluster/partitioner.h"
#include "serve/cluster/shard_router.h"
#include "serve/query_service.h"
#include "serve/snapshot.h"
#include "storage/table.h"
#include "util/bitvector.h"
#include "util/status.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace ebi {
namespace serve {
namespace cluster {

/// What the cluster does when a shard misses its deadline budget or
/// sheds under load (DESIGN.md §14).
enum class PartialResultPolicy : uint8_t {
  /// The whole query fails with the shard's unavailability status.
  kFail,
  /// The query succeeds with the responding shards' rows and a coverage
  /// mask naming the rows the answer actually vouches for.
  kPartial,
};

/// Cluster-wide knobs, fixed at construction.
struct ClusterOptions {
  /// Number of QueryService shards.
  size_t shards = 2;
  /// How rows map to shards.
  PartitionKind partition = PartitionKind::kHash;
  /// Split points for PartitionKind::kRange (exactly shards-1, strictly
  /// increasing); ignored for kHash.
  std::vector<int64_t> split_points;
  /// The int64 column rows are partitioned by.
  std::string key_column;
  /// Per-shard service knobs (worker pool, queue depth, snapshots...).
  ServeOptions shard_options;
  /// Shard-miss behaviour.
  PartialResultPolicy partial_policy = PartialResultPolicy::kFail;
  /// Per-shard deadline budget as a fraction of the request's remaining
  /// cluster deadline: shards get remaining*fraction so the gather keeps
  /// headroom to merge and (under kPartial) to return what it has.
  double shard_deadline_fraction = 1.0;
};

/// Per-shard view of one gathered cluster query.
struct ShardOutcome {
  size_t shard = 0;
  /// The status that entered the merge: the shard's response status, or
  /// the unavailability that made the shard a miss.
  Status status = Status::OK();
  /// Epoch the response ran against (0 on miss).
  uint64_t epoch = 0;
  /// Submit-to-resolution latency as the gather saw it.
  double latency_ms = 0.0;
};

/// A merged scatter-gather selection. Row ids are *global* (cluster
/// append order), so with every shard responding `selection.rows` is
/// bit-identical to running the same conjunction on one QueryService
/// holding all rows in that order.
struct ClusterResult {
  SelectionResult selection;
  /// Rows in the merge-time placement (`selection.rows` is sized to it).
  uint64_t total_rows = 0;
  /// True iff some owning shard missed and policy kPartial kept going.
  bool partial = false;
  /// Bit g set iff the answer vouches for global row g: its shard
  /// responded, or was pruned (the router proved it holds no match).
  /// All-set when `partial` is false.
  BitVector coverage;
  /// Owning shards that did not respond (unavailable under kPartial).
  std::vector<size_t> missing_shards;
  /// Shards the router fanned out to, ascending.
  std::vector<size_t> visited_shards;
  /// Per-visited-shard details, parallel to visited_shards.
  std::vector<ShardOutcome> outcomes;
};

/// A sharded serving tier over N independent QueryService shards
/// (DESIGN.md §14): routes appends by partition key, scatters selections
/// to the owning shards with per-shard deadline budgets, gathers and
/// merges the per-shard bitmaps into one global-row-id result. Shards
/// are the tier's only fan-out: each runs on its own worker pool.
///
/// Locking: append_mu_ (rank kClusterAppend) serializes the route +
/// per-shard Append fan-out, so global row-id order equals publish order
/// on every shard; it ranks *below* the per-shard service locks because
/// those are taken underneath it. Selections take no cluster lock at all
/// — they read the router's copy-on-write placement.
class ClusterQueryService {
 public:
  explicit ClusterQueryService(ClusterOptions options);
  /// Drains every shard (Shutdown) before tearing down.
  ~ClusterQueryService();

  ClusterQueryService(const ClusterQueryService&) = delete;
  ClusterQueryService& operator=(const ClusterQueryService&) = delete;

  /// Partitions `table` by ClusterOptions::key_column, starts every
  /// shard on its slice, and records the global row-id maps. Must be
  /// called once before Select/Append. Rows keep their
  /// original order as global ids, which is what makes cluster results
  /// comparable bit-for-bit with a single service started on `table`.
  /// Fails on tables with deleted rows (a void slot has no shard).
  Status Start(std::unique_ptr<Table> table, std::vector<IndexSpec> specs);

  /// Scatter-gather selection. `options.deadline_ms` bounds the whole
  /// cluster query; expired-on-arrival requests (kDeadlineExceeded) and
  /// budgets the clock cannot represent (kInvalidArgument, see
  /// DeadlineAfter) are rejected before any shard is contacted. Fan-out
  /// is pruned by partition-key predicates.
  Result<ClusterResult> Select(
      const std::vector<Predicate>& predicates,
      const RequestOptions& options = RequestOptions());

  /// Routes `rows` by partition key and appends each slice to its owning
  /// shard. Blocks until every touched shard published. Returns the
  /// cluster append epoch (count of completed appends).
  Result<uint64_t> Append(std::vector<std::vector<Value>> rows);

  /// Stops admission on every shard and blocks until all drained.
  /// Idempotent; also run by the destructor.
  Status Shutdown();

  [[nodiscard]] size_t shards() const { return options_.shards; }
  [[nodiscard]] const ShardRouter& router() const { return *router_; }
  /// Direct shard access for tests (epochs, telemetry, fault drills).
  QueryService& shard(size_t i) { return *shards_[i]; }

  /// Completed cluster appends (Start's initial load is epoch 0).
  [[nodiscard]] uint64_t AppendEpoch() const {
    return append_epoch_.load(std::memory_order_seq_cst);
  }

 private:
  using TimePoint = std::chrono::steady_clock::time_point;

  /// Scatter-side bookkeeping for one owning shard.
  struct ShardCall {
    size_t shard = 0;
    std::shared_ptr<ServeTicket> ticket;
    /// Submit-time failure (e.g. shed at admission) when ticket is null.
    Status submit_status = Status::OK();
    TimePoint submitted{};
  };

  /// Waits on `call` until it resolves or `deadline` passes. Returns the
  /// ShardOutcome plus the response (nullopt on miss).
  static std::pair<ShardOutcome, std::optional<ServeResult>> GatherShard(
      const ShardCall& call, std::optional<TimePoint> deadline);

  const ClusterOptions options_;
  std::unique_ptr<ShardRouter> router_
      EBI_UNGUARDED("set once in Start before started_ flips; read-only "
                    "after");
  /// Partition-key column position; set once in Start before any query.
  size_t key_index_ EBI_UNGUARDED("set once in Start, read-only after") = 0;
  /// The fact table's columns without rows, for pre-route validation (a
  /// row that fails validation *after* routing would desynchronize the
  /// placement's global-id maps from the shard's actual rows).
  Table schema_ EBI_UNGUARDED("set once in Start, read-only after") =
      Table("schema");

  std::vector<std::unique_ptr<QueryService>> shards_
      EBI_UNGUARDED("populated in Start before started_ flips");

  std::atomic<bool> started_{false};
  /// A shard Append failed after the placement was extended: global-id
  /// maps no longer match shard row order, so the cluster fails fast
  /// instead of silently merging misaligned bitmaps.
  std::atomic<bool> poisoned_{false};
  std::atomic<uint64_t> append_epoch_{0};

  /// Serializes route + fan-out so shard-local append order equals
  /// global-id order (the merge's correctness hinges on it).
  Mutex append_mu_{lock_rank::kClusterAppend,
                   "ClusterQueryService::append_mu_"};
};

}  // namespace cluster
}  // namespace serve
}  // namespace ebi

#endif  // EBI_SERVE_CLUSTER_CLUSTER_SERVICE_H_
