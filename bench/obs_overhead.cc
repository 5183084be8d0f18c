// Telemetry overhead: what always-on production telemetry costs the
// serve path (DESIGN.md §11).
//
// Five configurations of the same read-only serve workload:
//
//   no_sink        telemetry disabled entirely (the pre-telemetry serve
//                  path: stage histograms + counters only) — baseline
//   sampling_off   telemetry on, sample rate 0, no recorder
//   sampling_1pct  1% trace sampling
//   sampling_100pct  every request traced and captured into the ring
//   full           100% sampling + workload recorder + periodic exporter
//
// Rounds are interleaved across configurations (round-robin, not
// back-to-back) so cache warm-up and frequency scaling bias every
// configuration equally. Each configuration reports its median round,
// and its ratio to no_sink is the median over rounds of the ratio within
// a round. A round is 4,000 queries (~60 ms), and there are 15 of them.
// The best of 3 rounds of 1,000 queries (~15 ms each) let the
// sampling_off/no_sink ratio swing with scheduler noise: 0.93-1.18 over
// 12 runs of one binary on an idle 4-CPU host, against 0.94-1.04 with
// this scheme.
//
// The acceptance bar (ISSUE 7 / scripts/check_bench_json.sh): the
// sampling_off/no_sink throughput ratio stays within a documented
// threshold (2% locally; the CI gate allows 10% for noisy shared
// runners).
//
// Emits BENCH_obs_overhead.json.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "exec/thread_pool.h"
#include "serve/query_service.h"

namespace ebi {
namespace {

constexpr size_t kRows = 1 << 14;
constexpr size_t kCardinality = 64;
constexpr size_t kClients = 2;
constexpr size_t kWorkers = 2;
constexpr size_t kQueriesPerClient = 2000;
constexpr size_t kRounds = 15;

struct Config {
  const char* label;
  bool enabled;
  double sample_rate;
  bool recorder;
  bool exporter;
};

constexpr Config kConfigs[] = {
    {"no_sink", false, 0.0, false, false},
    {"sampling_off", true, 0.0, false, false},
    {"sampling_1pct", true, 0.01, false, false},
    {"sampling_100pct", true, 1.0, false, false},
    {"full", true, 1.0, true, true},
};

std::string ScratchDir() {
  if (const char* env = std::getenv("EBI_BENCH_JSON_DIR");
      env != nullptr && env[0] != '\0') {
    return env;
  }
  return ".";
}

/// One round of the workload under `config`; returns queries per second.
double RunOnce(const Config& config) {
  serve::ServeOptions options;
  options.worker_threads = kWorkers;
  // Deep queue: this bench measures telemetry cost, not admission
  // control; shedding would silently shrink the measured work.
  options.queue_depth = 1024;
  options.telemetry.enabled = config.enabled;
  options.telemetry.sample_rate = config.sample_rate;
  if (config.recorder) {
    options.telemetry.workload_log_path =
        ScratchDir() + "/obs_overhead.workload.jsonl";
    // Rotate a few times over the run so rotation cost is represented.
    options.telemetry.workload_options.rotate_bytes = 64u << 10;
    options.telemetry.workload_options.max_files = 3;
  }
  if (config.exporter) {
    options.telemetry.export_every = 256;
    options.telemetry.export_path_prefix =
        ScratchDir() + "/obs_overhead.export";
  }
  serve::QueryService service(options);
  bench::CheckOk(service.Start(bench::RoundRobinTable(kRows, kCardinality),
                               {{"a", IndexKind::kEncodedBitmap}}));

  bench::Timer wall;
  exec::ThreadPool drivers(kClients);
  drivers.ParallelFor(0, kClients, [&](size_t client) {
    for (size_t q = 0; q < kQueriesPerClient; ++q) {
      const int64_t v = static_cast<int64_t>(
          (client * kQueriesPerClient + q) % kCardinality);
      bench::CheckOk(service.Select({Predicate::Eq("a", Value::Int(v))}));
    }
  });
  const double wall_ms = wall.ElapsedMs();
  bench::CheckOk(service.Shutdown());
  const double completed = static_cast<double>(kClients * kQueriesPerClient);
  return wall_ms > 0 ? completed / (wall_ms / 1000.0) : 0.0;
}

/// The middle value (kRounds is odd).
double Median(std::vector<double> values) {
  std::nth_element(values.begin(), values.begin() + values.size() / 2,
                   values.end());
  return values[values.size() / 2];
}

}  // namespace
}  // namespace ebi

int main() {
  using ebi::kConfigs;
  constexpr size_t kNumConfigs = sizeof(kConfigs) / sizeof(kConfigs[0]);
  std::printf("obs_overhead: %zu clients x %zu queries, %zu rounds "
              "interleaved, medians\n",
              ebi::kClients, ebi::kQueriesPerClient, ebi::kRounds);

  // qps[c][r]: configuration c in round r. Within a round the
  // configurations run back to back, so each round's ratio to no_sink
  // compares runs that saw the same machine load.
  std::vector<double> qps[kNumConfigs];
  // Warm-up pass (discarded): first-touch of the table, index build
  // paths and metric registrations.
  ebi::RunOnce(kConfigs[0]);
  for (size_t round = 0; round < ebi::kRounds; ++round) {
    for (size_t c = 0; c < kNumConfigs; ++c) {
      qps[c].push_back(ebi::RunOnce(kConfigs[c]));
    }
  }

  ebi::bench::BenchReport report("obs_overhead");
  std::printf("%-16s %12s %10s\n", "config", "qps", "vs_no_sink");
  for (size_t c = 0; c < kNumConfigs; ++c) {
    std::vector<double> ratios;
    for (size_t round = 0; round < ebi::kRounds; ++round) {
      ratios.push_back(qps[0][round] > 0 ? qps[c][round] / qps[0][round]
                                         : 0.0);
    }
    const double throughput = ebi::Median(qps[c]);
    const double ratio = ebi::Median(ratios);
    std::printf("%-16s %12.0f %10.4f\n", kConfigs[c].label, throughput,
                ratio);
    report.BeginRun(kConfigs[c].label);
    report.Metric("throughput_qps", throughput);
    report.Metric("vs_no_sink", ratio);
  }
  return 0;
}
