// Sharded serving walkthrough: partition a sales fact table over two
// QueryService shards by key range, scatter-gather selections through
// the ClusterQueryService, and show the pieces that make the cluster
// path trustworthy — fan-out pruning for key predicates, bit-identical
// merges (the global selection equals what one big service would
// return), routed appends, and partial results with a coverage mask
// (DESIGN.md §14).
//
// Build & run:
//   cmake --build build --target cluster_demo && ./build/examples/cluster_demo

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "serve/cluster/cluster_service.h"
#include "storage/table.h"

using ebi::Column;
using ebi::IndexKind;
using ebi::Predicate;
using ebi::Result;
using ebi::Table;
using ebi::Value;

namespace {

// 48 rows, keys 0..95: the range partition below puts keys <= 47 on
// shard 0 and the rest on shard 1.
std::unique_ptr<Table> SalesTable() {
  auto table = std::make_unique<Table>("sales");
  if (!table->AddColumn("key", Column::Type::kInt64).ok() ||
      !table->AddColumn("product", Column::Type::kInt64).ok()) {
    return nullptr;
  }
  for (int64_t i = 0; i < 48; ++i) {
    if (!table->AppendRow({Value::Int((i * 2) % 96), Value::Int(i % 6)})
             .ok()) {
      return nullptr;
    }
  }
  return table;
}

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "cluster_demo: %s failed\n", what);
    std::exit(1);
  }
}

}  // namespace

int main() {
  // Two shards, range-partitioned on "key": shard 0 owns (-inf, 47],
  // shard 1 owns (47, +inf). Each shard is a full QueryService with its
  // own snapshots, worker pool, and (suffixed) workload log.
  ebi::serve::cluster::ClusterOptions options;
  options.shards = 2;
  options.partition = ebi::serve::cluster::PartitionKind::kRange;
  options.split_points = {47};
  options.key_column = "key";
  options.shard_options.worker_threads = 2;
  options.shard_options.telemetry.enabled = true;
  options.shard_options.telemetry.sample_rate = 1.0;
  options.shard_options.telemetry.workload_log_path =
      "cluster_demo.workload.jsonl";
  options.partial_policy = ebi::serve::cluster::PartialResultPolicy::kPartial;

  ebi::serve::cluster::ClusterQueryService cluster(options);
  Check(cluster
            .Start(SalesTable(), {{"key", IndexKind::kEncodedBitmap},
                                  {"product", IndexKind::kEncodedBitmap}})
            .ok(),
        "Start");

  // A key-range selection owned entirely by shard 0: the router prunes
  // the fan-out to one shard, and the merged result still reports
  // positions in the *global* row space.
  const Result<ebi::serve::cluster::ClusterResult> pruned =
      cluster.Select({Predicate::Between("key", 0, 40)});
  Check(pruned.ok(), "pruned Select");
  std::printf("key in [0,40]      -> %zu rows, visited %zu of %zu shards\n",
              pruned.value().selection.count,
              pruned.value().visited_shards.size(), cluster.shards());

  // A non-key predicate fans out everywhere and merges bit-identically:
  // product == 3 lives on both sides of the split.
  const Result<ebi::serve::cluster::ClusterResult> fanout =
      cluster.Select({Predicate::Eq("product", Value::Int(3))});
  Check(fanout.ok(), "fan-out Select");
  std::printf("product == 3       -> %zu rows, visited %zu of %zu shards\n",
              fanout.value().selection.count,
              fanout.value().visited_shards.size(), cluster.shards());

  // Appends route row-by-row on the key and publish on every owning
  // shard before the epoch ticks.
  const Result<uint64_t> epoch = cluster.Append({
      {Value::Int(10), Value::Int(3)},   // -> shard 0
      {Value::Int(90), Value::Int(3)},   // -> shard 1
  });
  Check(epoch.ok(), "Append");
  const Result<ebi::serve::cluster::ClusterResult> fresh =
      cluster.Select({Predicate::Eq("product", Value::Int(3))});
  Check(fresh.ok(), "Select after append");
  std::printf("after append #%llu  -> %zu rows over %llu total\n",
              static_cast<unsigned long long>(epoch.value()),
              fresh.value().selection.count,
              static_cast<unsigned long long>(fresh.value().total_rows));

  // Partial results: under PartialResultPolicy::kPartial a shard that
  // sheds or misses its deadline yields a partial answer plus a
  // coverage mask saying exactly which rows WERE consulted. An
  // already-expired deadline is instead rejected at admission, before
  // any shard is contacted.
  ebi::serve::RequestOptions expired;
  expired.deadline_ms = 0.0;
  const Result<ebi::serve::cluster::ClusterResult> late =
      cluster.Select({Predicate::Eq("product", Value::Int(3))}, expired);
  std::printf("expired deadline   -> %s\n",
              late.status().ToString().c_str());

  Check(cluster.Shutdown().ok(), "Shutdown");
  std::printf("drained; placement covers %llu rows across %zu shards\n",
              static_cast<unsigned long long>(
                  cluster.router().placement()->total_rows),
              cluster.shards());
  std::printf("per-shard workload logs: cluster_demo.workload.jsonl.s0, "
              ".s1\n");
  std::printf("aggregate them:  ./build/tools/ebi_workload summary "
              "--cluster cluster_demo.workload.jsonl\n");
  return 0;
}
