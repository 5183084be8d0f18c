// Sharded serve tier under multi-tenant load: shard count x arrival
// process, with the slow-query adversary in the mix.
//
// The fleet is sized so every cell spends the same total worker budget
// (kTotalWorkers split across shards): the question is not "do more
// cores help" but "does partitioning isolate the adversary". The
// workload is range-partitioned by tenant and the adversary pins to
// tenant 0, so with shards > 1 its wide IN-scans saturate only shard
// 0's queue while the other tenants' requests ride unobstructed —
// that is the p99 story the closed-loop cells tell. The open-loop cells
// pace arrivals from the schedule regardless of completions (no
// coordinated omission).
//
// Reported per cell: non-adversary p50/p99/p999 latency, throughput,
// shed rate, deadline rate, partial-result rate. Emits
// BENCH_serve_cluster.json; scripts/check_bench_json.sh gates
// closed.shards4 p99 against closed.shards1 p99.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "exec/thread_pool.h"
#include "serve/cluster/cluster_service.h"
#include "workload/loadgen.h"

namespace ebi {
namespace {

constexpr size_t kTenants = 8;
constexpr int64_t kKeysPerTenant = 128;
constexpr size_t kRows = 1 << 13;
constexpr int64_t kValueCardinality = 16;
constexpr size_t kTotalWorkers = 4;
constexpr size_t kClients = 8;
constexpr size_t kOperations = 1200;
constexpr double kDeadlineMs = 250.0;

double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) {
    return 0.0;
  }
  std::sort(xs.begin(), xs.end());
  const size_t i = static_cast<size_t>(p * static_cast<double>(xs.size() - 1));
  return xs[i];
}

/// Fact table with tenant-major keys: tenant t owns
/// [t*kKeysPerTenant, (t+1)*kKeysPerTenant).
std::unique_ptr<Table> TenantTable() {
  auto table = std::make_unique<Table>("tenants");
  bench::CheckOk(table->AddColumn("k", Column::Type::kInt64));
  bench::CheckOk(table->AddColumn("v", Column::Type::kInt64));
  for (size_t i = 0; i < kRows; ++i) {
    const auto tenant = static_cast<int64_t>(i % kTenants);
    const auto offset = static_cast<int64_t>((i * 31) % kKeysPerTenant);
    bench::CheckOk(table->AppendRow(
        {Value::Int(tenant * kKeysPerTenant + offset),
         Value::Int(static_cast<int64_t>(i % kValueCardinality))}));
  }
  return table;
}

/// Tenant-aligned split points: shard s takes tenants
/// [s*kTenants/shards, (s+1)*kTenants/shards).
std::vector<int64_t> TenantSplits(size_t shards) {
  std::vector<int64_t> splits;
  for (size_t s = 1; s < shards; ++s) {
    splits.push_back(
        static_cast<int64_t>(s * kTenants / shards) * kKeysPerTenant - 1);
  }
  return splits;
}

workload::LoadGenOptions BaseLoad(workload::ArrivalProcess arrivals) {
  workload::LoadGenOptions load;
  load.seed = 42;
  load.operations = kOperations;
  load.tenants = kTenants;
  load.zipf_theta = 0.7;
  load.keys_per_tenant = kKeysPerTenant;
  load.key_column = "k";
  load.value_column = "v";
  load.value_cardinality = kValueCardinality;
  load.arrivals = arrivals;
  load.offered_qps = 4000.0;
  load.burst_factor = 3.0;
  load.burst_period_ms = 50.0;
  load.adversary_fraction = 0.15;
  load.adversary_tenant = 0;
  load.adversary_in_width = kValueCardinality * 12;
  return load;
}

struct OpOutcome {
  double latency_ms = 0.0;
  bool ok = false;
  bool shed = false;
  bool deadline = false;
  bool partial = false;
};

/// Replays `schedule` against `cluster` with kClients closed-loop (or
/// schedule-paced open-loop) driver threads. Outcomes land in per-op
/// slots, so drivers share nothing but the op counter.
std::vector<OpOutcome> Drive(serve::cluster::ClusterQueryService& cluster,
                             const workload::LoadSchedule& schedule) {
  std::vector<OpOutcome> outcomes(schedule.ops.size());
  std::atomic<size_t> next{0};
  const auto start = std::chrono::steady_clock::now();
  {
    exec::ThreadPool drivers(kClients);
    for (size_t c = 0; c < kClients; ++c) {
      drivers.Submit([&]() {
        while (true) {
          const size_t i = next.fetch_add(1);
          if (i >= schedule.ops.size()) {
            return;
          }
          const workload::LoadOp& op = schedule.ops[i];
          if (op.arrival_ms > 0.0) {
            // Open loop: hold to the arrival timeline. A late pickup
            // issues immediately — arrears are the workload's point.
            const auto due =
                start + std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double, std::milli>(
                                op.arrival_ms));
            std::this_thread::sleep_until(due);
          }
          serve::RequestOptions request;
          request.deadline_ms = kDeadlineMs;
          const auto issued = std::chrono::steady_clock::now();
          auto result = cluster.Select(op.predicates, request);
          OpOutcome& slot = outcomes[i];
          slot.latency_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - issued)
                                .count();
          if (result.ok()) {
            slot.ok = true;
            slot.partial = result->partial;
          } else {
            slot.shed = result.status().code() == StatusCode::kOverloaded;
            slot.deadline =
                result.status().code() == StatusCode::kDeadlineExceeded;
          }
        }
      });
    }
  }
  return outcomes;
}

void ReportCell(const std::string& label, size_t shards,
                const workload::LoadSchedule& schedule,
                const std::vector<OpOutcome>& outcomes, double wall_ms,
                bench::BenchReport* report) {
  std::vector<double> victim_latencies;  // Non-adversary ops only.
  size_t ok = 0;
  size_t shed = 0;
  size_t deadline = 0;
  size_t partial = 0;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const OpOutcome& out = outcomes[i];
    ok += out.ok ? 1 : 0;
    shed += out.shed ? 1 : 0;
    deadline += out.deadline ? 1 : 0;
    partial += out.partial ? 1 : 0;
    if (!schedule.ops[i].adversarial && out.ok) {
      victim_latencies.push_back(out.latency_ms);
    }
  }
  const double total = static_cast<double>(outcomes.size());
  const double p50 = Percentile(victim_latencies, 0.50);
  const double p99 = Percentile(victim_latencies, 0.99);
  const double p999 = Percentile(victim_latencies, 0.999);
  const double qps = wall_ms > 0.0 ? static_cast<double>(ok) / wall_ms * 1000.0
                                   : 0.0;

  std::printf(
      "%-16s shards=%zu ok=%4zu p50=%7.3fms p99=%8.3fms p999=%8.3fms "
      "qps=%8.1f shed=%.3f partial=%.3f\n",
      label.c_str(), shards, ok, p50, p99, p999, qps,
      static_cast<double>(shed) / total, static_cast<double>(partial) / total);

  report->BeginRun(label);
  report->Metric("shards", shards);
  report->Metric("ops", outcomes.size());
  report->Metric("completed", ok);
  report->Metric("p50_ms", p50);
  report->Metric("p99_ms", p99);
  report->Metric("p999_ms", p999);
  report->Metric("qps", qps);
  report->Metric("shed_rate", static_cast<double>(shed) / total);
  report->Metric("deadline_rate", static_cast<double>(deadline) / total);
  report->Metric("partial_rate", static_cast<double>(partial) / total);
}

void RunCell(const std::string& label, size_t shards,
             workload::ArrivalProcess arrivals, bench::BenchReport* report) {
  serve::cluster::ClusterOptions options;
  options.shards = shards;
  options.partition = serve::cluster::PartitionKind::kRange;
  options.split_points = TenantSplits(shards);
  options.key_column = "k";
  options.shard_options.worker_threads =
      std::max<size_t>(kTotalWorkers / shards, 1);
  // Deep queues so the adversary's cost shows up as queueing delay.
  options.shard_options.queue_depth = 16;
  options.partial_policy = serve::cluster::PartialResultPolicy::kPartial;
  options.shard_deadline_fraction = 0.9;
  serve::cluster::ClusterQueryService cluster(options);
  bench::CheckOk(cluster.Start(TenantTable(),
                               {{"k", IndexKind::kEncodedBitmap},
                                {"v", IndexKind::kEncodedBitmap}}));

  const workload::LoadSchedule schedule =
      workload::GenerateLoad(BaseLoad(arrivals));

  bench::Timer timer;
  const std::vector<OpOutcome> outcomes = Drive(cluster, schedule);
  const double wall_ms = timer.ElapsedMs();
  bench::CheckOk(cluster.Shutdown());

  ReportCell(label, shards, schedule, outcomes, wall_ms, report);
}

}  // namespace
}  // namespace ebi

int main() {
  using ebi::workload::ArrivalProcess;
  std::printf(
      "serve_cluster: %zu ops, %zu tenants, adversary on tenant 0, "
      "%zu total workers split across shards\n",
      ebi::kOperations, ebi::kTenants, ebi::kTotalWorkers);

  ebi::bench::BenchReport report("serve_cluster");
  // Closed-loop saturation: the shard-count sweep the p99 gate reads.
  ebi::RunCell("closed.shards1", 1, ArrivalProcess::kClosedLoop, &report);
  ebi::RunCell("closed.shards2", 2, ArrivalProcess::kClosedLoop, &report);
  ebi::RunCell("closed.shards4", 4, ArrivalProcess::kClosedLoop, &report);
  // Open-loop bursty arrivals: queueing collapse without coordinated
  // omission.
  ebi::RunCell("open.shards1", 1, ArrivalProcess::kOpenLoop, &report);
  ebi::RunCell("open.shards4", 4, ArrivalProcess::kOpenLoop, &report);
  return 0;
}
