#ifndef EBI_OBS_METRIC_NAMES_H_
#define EBI_OBS_METRIC_NAMES_H_

// The single home of every metric name in the process (DESIGN.md §11).
//
// Metric names are constexpr constants, never inline string literals:
// a typo'd literal at one call site would silently split a metric into
// two time series that dashboards and the bench gates then miss.
// ebi-lint's `metric-name-literal` rule rejects any quoted "ebi.*"
// string outside this header, so adding a metric means adding it here.

namespace ebi {
namespace obs {

// --- Query layer (src/query, fed by RecordQuery/RecordEstimateError).
inline constexpr char kMetricQueryCount[] = "ebi.query.count";
inline constexpr char kMetricQueryLatencyMs[] = "ebi.query.latency_ms";
inline constexpr char kMetricQueryVectors[] = "ebi.query.vectors";
inline constexpr char kMetricQueryPages[] = "ebi.query.pages";
inline constexpr char kMetricPlannerEstimateErrorPages[] =
    "ebi.planner.estimate_error_pages";

// --- Storage engine buffer pool (src/storage/engine/buffer_pool.cc).
// Replaces the old per-vector ebi.store.* series: the pool caches pages,
// so hits/misses/evictions are page-granular (DESIGN.md §12).
inline constexpr char kMetricBufferPoolHits[] = "ebi.buffer_pool.hits";
inline constexpr char kMetricBufferPoolMisses[] = "ebi.buffer_pool.misses";
inline constexpr char kMetricBufferPoolEvictions[] =
    "ebi.buffer_pool.evictions";
inline constexpr char kMetricBufferPoolWritebacks[] =
    "ebi.buffer_pool.writebacks";

// --- Write-ahead log (src/storage/engine/wal.cc, DESIGN.md §12).
inline constexpr char kMetricWalAppends[] = "ebi.wal.appends";
inline constexpr char kMetricWalAppendBytes[] = "ebi.wal.append_bytes";
inline constexpr char kMetricWalSyncs[] = "ebi.wal.syncs";
inline constexpr char kMetricWalReplayedRecords[] =
    "ebi.wal.replayed_records";
inline constexpr char kMetricWalTornTails[] = "ebi.wal.torn_tails";

// --- Boolean reduction (src/boolean/reduction.cc).
inline constexpr char kMetricReductionCount[] = "ebi.reduction.count";
inline constexpr char kMetricReductionTermsIn[] = "ebi.reduction.terms_in";
inline constexpr char kMetricReductionTermsOut[] = "ebi.reduction.terms_out";

// --- Serving layer (src/serve, DESIGN.md §9/§11).
inline constexpr char kMetricServeSubmitted[] = "ebi.serve.submitted";
inline constexpr char kMetricServeShed[] = "ebi.serve.shed";
inline constexpr char kMetricServeDeadlineExceeded[] =
    "ebi.serve.deadline_exceeded";
inline constexpr char kMetricServeDrainRejected[] =
    "ebi.serve.drain_rejected";
inline constexpr char kMetricServeLatencyMs[] = "ebi.serve.latency_ms";
inline constexpr char kMetricServeQueueMs[] = "ebi.serve.queue_ms";
inline constexpr char kMetricServeQueueDepth[] = "ebi.serve.queue_depth";
inline constexpr char kMetricServePublishes[] = "ebi.serve.publishes";
inline constexpr char kMetricServeSnapshotsReclaimed[] =
    "ebi.serve.snapshots_reclaimed";

// Per-stage latency attribution of one served request (DESIGN.md §11):
// queue wait is kMetricServeQueueMs above; then snapshot pin, executor
// construction ("plan"), bitmap evaluation ("execute"), and the
// end-to-end figure kMetricServeLatencyMs.
inline constexpr char kMetricServeStagePinMs[] = "ebi.serve.stage.pin_ms";
inline constexpr char kMetricServeStagePlanMs[] = "ebi.serve.stage.plan_ms";
inline constexpr char kMetricServeStageExecuteMs[] =
    "ebi.serve.stage.execute_ms";

// --- Sharded serve tier (src/serve/cluster, DESIGN.md §14). One cluster
// query fans out to its owning shards (fanout counts shards visited).
// Partial results carry a coverage mask instead of failing when a shard
// misses its deadline budget or sheds.
inline constexpr char kMetricClusterQueries[] = "ebi.cluster.queries";
inline constexpr char kMetricClusterFanout[] = "ebi.cluster.fanout";
inline constexpr char kMetricClusterPartialResults[] =
    "ebi.cluster.partial_results";
inline constexpr char kMetricClusterShardDeadlineMiss[] =
    "ebi.cluster.shard_deadline_miss";
/// Submit-to-response latency of each shard that answered, as the
/// cluster gather saw it.
inline constexpr char kMetricClusterShardLatencyMs[] =
    "ebi.cluster.shard_latency_ms";

// --- Production telemetry (src/obs/telemetry.h, DESIGN.md §11).
inline constexpr char kMetricTraceSampled[] = "ebi.telemetry.traces_sampled";
inline constexpr char kMetricSlowQueries[] = "ebi.telemetry.slow_queries";
inline constexpr char kMetricWorkloadRecords[] =
    "ebi.telemetry.workload_records";
inline constexpr char kMetricWorkloadRotations[] =
    "ebi.telemetry.workload_rotations";
inline constexpr char kMetricMetricsExports[] =
    "ebi.telemetry.metrics_exports";

}  // namespace obs
}  // namespace ebi

#endif  // EBI_OBS_METRIC_NAMES_H_
