// ebi_perfbench: runs one workload of the repo benchmark and writes its
// raw record (samples, counters, spans, checks) as JSON.
//
//   ebi_perfbench --workload star_read --seed 1 --seconds 10 --trace 0
//       --work-dir <scratch dir> --out <record.json>
//
// Metrics are derived from the record by perfbench/run.py.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "obs/json.h"
#include "util/kernels/kernels.h"

namespace ebi {
namespace perfbench {

void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what,
                 status.ToString().c_str());
    std::exit(2);
  }
}

namespace {

// Polling period of HeapPeak: short next to a set-up call (tens of ms),
// so a transient peak while an index is built is not missed.
constexpr auto kHeapPoll = std::chrono::milliseconds(2);

/// Bytes held allocated through malloc, in KiB.
uint64_t HeapKb() {
  const struct mallinfo2 info = mallinfo2();
  return (info.uordblks + info.hblkhd) / 1024;
}

}  // namespace

void HeapPeak::Start() {
  baseline_kb_ = HeapKb();
  peak_kb_ = baseline_kb_;
  thread_ = std::thread([this] {
    while (!stop_.load()) {
      peak_kb_ = std::max(peak_kb_, HeapKb());
      std::this_thread::sleep_for(kHeapPoll);
    }
  });
}

uint64_t HeapPeak::Stop() {
  stop_.store(true);
  if (thread_.joinable()) {
    thread_.join();
  }
  const uint64_t peak = std::max(peak_kb_, HeapKb());
  return peak > baseline_kb_ ? peak - baseline_kb_ : 0;
}

namespace {

void Samples(obs::JsonWriter& w, const char* key,
             const std::vector<double>& xs) {
  w.Key(key).BeginArray();
  for (const double x : xs) {
    w.Number(x);
  }
  w.EndArray();
}

void WritePhase(obs::JsonWriter& w, const char* key, const Phase& p) {
  w.Key(key).BeginObject();
  w.Key("window_s").Number(p.window_s);
  Samples(w, "select_ms", p.select_ms);
  w.Key("select_attempted").Uint(p.select_attempted);
  w.Key("select_failed").Uint(p.select_failed);
  w.Key("shed").Uint(p.shed);
  Samples(w, "append_ms", p.append_ms);
  w.Key("append_attempted").Uint(p.append_attempted);
  w.Key("append_failed").Uint(p.append_failed);
  w.Key("rows_appended").Uint(p.rows_appended);
  w.Key("appender_late_max_ms").Number(p.appender_late_max_ms);
  Samples(w, "queue_ms", p.queue_ms);
  Samples(w, "run_ms", p.run_ms);
  Samples(w, "fanout", p.fanout);
  Samples(w, "shard_ms", p.shard_ms);
  Samples(w, "gather_ms", p.gather_ms);
  w.Key("engine").BeginObject();
  w.Key("queries").Uint(p.engine_queries);
  w.Key("pages").Uint(p.engine_pages);
  w.Key("bytes").Uint(p.engine_bytes);
  w.Key("hits").Uint(p.engine_hits);
  w.Key("misses").Uint(p.engine_misses);
  w.Key("evictions").Uint(p.engine_evictions);
  w.EndObject();
  w.Key("retired_max").Uint(p.retired_max);
  w.EndObject();
}

std::string Render(const RunRecord& r) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("meta").BeginObject();
  for (const auto& [k, v] : r.meta) {
    w.Key(k).String(v);
  }
  w.EndObject();
  Samples(w, "setup_s", r.setup_s);
  w.Key("rows").Uint(r.rows);
  w.Key("index_bytes").Uint(r.index_bytes);
  w.Key("recovery_s").Number(r.recovery_s);
  w.Key("peak_heap_kb").Uint(r.peak_heap_kb);
  WritePhase(w, "untraced", r.untraced);
  WritePhase(w, "traced", r.traced);
  w.Key("checks").BeginObject();
  w.Key("performed").Uint(r.checks.performed);
  w.Key("failed").Uint(r.checks.failed);
  w.Key("failures").BeginArray();
  for (const std::string& f : r.checks.failures) {
    w.String(f);
  }
  w.EndArray();
  w.EndObject();
  w.Key("probes").BeginObject();
  Samples(w, "clone_ms", r.probes.clone_ms);
  Samples(w, "wal_append_ms", r.probes.wal_append_ms);
  Samples(w, "route_us", r.probes.route_us);
  Samples(w, "or_many_gbps", r.probes.or_many_gbps);
  Samples(w, "and_many_gbps", r.probes.and_many_gbps);
  Samples(w, "popcount_gbps", r.probes.popcount_gbps);
  w.EndObject();
  w.Key("spans").BeginArray();
  for (const Span& s : r.spans.spans()) {
    w.BeginObject();
    w.Key("name").String(s.name);
    w.Key("id").Uint(s.id);
    if (s.parent != kNoParent) {
      w.Key("parent").Uint(s.parent);
    }
    w.Key("request").Uint(s.request);
    w.Key("start_ns").Int(s.start_ns);
    w.Key("end_ns").Int(s.end_ns);
    for (const auto& [k, v] : s.counts) {
      w.Key(k).Number(v);
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

int Usage() {
  std::fprintf(stderr,
               "usage: ebi_perfbench --workload <star_read|star_ingest|"
               "tenant_cluster|cold_scan> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir> --out <file>\n");
  return 64;
}

int Main(int argc, char** argv) {
  RunConfig config;
  std::string out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--out") {
      out = value;
    } else {
      return Usage();
    }
  }
  if (config.work_dir.empty() || out.empty() || config.seconds <= 0.0) {
    return Usage();
  }

  RunRecord record;
  record.meta["workload"] = config.workload;
  record.meta["seed"] = std::to_string(config.seed);
  record.meta["nproc"] = std::to_string(std::thread::hardware_concurrency());
  record.meta["kernel_backend"] = kernels::Active().name;
  if (config.workload == "star_read") {
    RunStarRead(config, &record);
  } else if (config.workload == "star_ingest") {
    RunStarIngest(config, &record);
  } else if (config.workload == "tenant_cluster") {
    RunTenantCluster(config, &record);
  } else if (config.workload == "cold_scan") {
    RunColdScan(config, &record);
  } else {
    return Usage();
  }
  record.peak_heap_kb = record.heap.Stop();

  std::ofstream file(out, std::ios::trunc);
  file << Render(record) << '\n';
  file.close();
  if (!file) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", out.c_str());
    return 2;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace ebi

int main(int argc, char** argv) { return ebi::perfbench::Main(argc, argv); }
