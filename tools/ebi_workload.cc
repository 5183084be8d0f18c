// ebi_workload: summarize workload logs recorded by the serve layer
// (obs::WorkloadRecorder JSONL files, DESIGN.md §11).
//
//   ebi_workload summary <log> [<log>...]    per-log and overall totals
//   ebi_workload top [--k N] <log> [...]     hottest predicates by count
//   ebi_workload json <log> [...]            re-emit parsed records as JSON
//
// A <log> argument names the live file of a rotation set; rotated
// generations (<log>.1, <log>.2, ...) are read automatically, oldest
// first. Damaged lines (truncated tails, unknown schema versions) are
// skipped and reported on stderr, never fatal.
//
// With --cluster, each <log> is the base workload_log_path of a
// ClusterQueryService: the per-shard sets the cluster layer writes
// (<log>.s0, <log>.s1, ...) are discovered and read instead, and `summary` prints a per-shard
// breakdown ahead of the merged totals — the fan-in companion to the
// serve tier's fan-out (DESIGN.md §14).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "obs/workload_recorder.h"

namespace {

using ebi::obs::ReadWorkloadLogSet;
using ebi::obs::RequestRecord;
using ebi::obs::RequestRecordJson;
using ebi::obs::WorkloadLogRead;
using ebi::obs::WorkloadPredicate;

constexpr size_t kMaxGenerations = 16;
constexpr size_t kMaxShards = 64;

int Usage() {
  std::fprintf(stderr,
               "usage: ebi_workload <summary|top|json> [--k N] [--cluster] "
               "<log> [<log>...]\n");
  return 2;
}

/// One log set to read: `path` is the live file of a rotation set,
/// `label` is what the per-shard breakdown calls it.
struct LogSource {
  std::string label;
  std::string path;
};

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return false;
  }
  std::fclose(f);
  return true;
}

/// Expands a cluster base path into the per-shard log sets the serve
/// tier writes: <base>.s0, <base>.s1, ... Shards are contiguous from 0,
/// so discovery stops at the first missing shard.
std::vector<LogSource> ExpandCluster(const std::string& base) {
  std::vector<LogSource> sources;
  for (size_t s = 0; s < kMaxShards; ++s) {
    const std::string path = base + ".s" + std::to_string(s);
    if (!FileExists(path)) {
      break;
    }
    sources.push_back({"shard " + std::to_string(s), path});
  }
  return sources;
}

struct PredicateGroup {
  std::string column;
  std::string op;
  uint64_t count = 0;
  uint64_t rows = 0;
  std::vector<int64_t> literals;
  int64_t lo = 0;
  int64_t hi = 0;
  bool has_range = false;
};

std::string GroupText(const PredicateGroup& group) {
  std::string out = group.column;
  if (group.has_range) {
    out += " range [" + std::to_string(group.lo) + ", " +
           std::to_string(group.hi) + "]";
    return out;
  }
  out += " " + group.op;
  if (!group.literals.empty()) {
    out += " {";
    for (size_t i = 0; i < group.literals.size(); ++i) {
      if (i > 0) {
        out += ", ";
      }
      out += std::to_string(group.literals[i]);
    }
    out += "}";
  }
  return out;
}

double Quantile(std::vector<double> sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// Per-shard breakdown printed ahead of the merged totals in --cluster
/// summary mode: where did the fan-out's work actually land?
void PrintShardBreakdown(
    const std::vector<std::pair<LogSource, WorkloadLogRead>>& reads) {
  std::printf("%-20s %-8s %-10s %-10s %-10s\n", "shard", "records",
              "p50_ms", "p99_ms", "mean_ms");
  for (const auto& [source, read] : reads) {
    std::vector<double> latencies;
    latencies.reserve(read.records.size());
    double total_ms = 0.0;
    for (const RequestRecord& r : read.records) {
      latencies.push_back(r.total_ms);
      total_ms += r.total_ms;
    }
    std::sort(latencies.begin(), latencies.end());
    const double n = latencies.empty()
                         ? 1.0
                         : static_cast<double>(latencies.size());
    std::printf("%-20s %-8zu %-10.3f %-10.3f %-10.3f\n",
                source.label.c_str(), read.records.size(),
                Quantile(latencies, 0.5), Quantile(latencies, 0.99),
                total_ms / n);
  }
  std::printf("\n");
}

int RunSummary(const std::vector<RequestRecord>& records, size_t skipped) {
  std::printf("records:        %zu\n", records.size());
  std::printf("skipped lines:  %zu\n", skipped);
  if (records.empty()) {
    return 0;
  }
  double total_ms = 0.0;
  double exec_ms = 0.0;
  double selectivity = 0.0;
  uint64_t vectors = 0;
  uint64_t bytes = 0;
  std::vector<double> latencies;
  latencies.reserve(records.size());
  std::map<std::string, uint64_t> kernels;
  std::map<uint64_t, uint64_t> epochs;
  for (const RequestRecord& r : records) {
    total_ms += r.total_ms;
    exec_ms += r.execute_ms.value_or(0.0);
    selectivity += r.Selectivity();
    vectors += r.vectors;
    bytes += r.bytes;
    latencies.push_back(r.total_ms);
    kernels[r.kernel] += 1;
    epochs[r.epoch] += 1;
  }
  std::sort(latencies.begin(), latencies.end());
  const double n = static_cast<double>(records.size());
  std::printf("latency ms:     mean=%.3f p50=%.3f p99=%.3f max=%.3f\n",
              total_ms / n, Quantile(latencies, 0.5),
              Quantile(latencies, 0.99), latencies.back());
  std::printf("execute ms:     mean=%.3f (%.1f%% of total)\n", exec_ms / n,
              total_ms > 0 ? 100.0 * exec_ms / total_ms : 0.0);
  std::printf("selectivity:    mean=%.4f\n", selectivity / n);
  std::printf("vectors read:   %llu (%.1f per query)\n",
              static_cast<unsigned long long>(vectors), vectors / n);
  std::printf("bytes read:     %llu\n", static_cast<unsigned long long>(bytes));
  std::printf("epochs seen:    %zu\n", epochs.size());
  for (const auto& [kernel, count] : kernels) {
    std::printf("kernel %-8s %llu\n", (kernel + ":").c_str(),
                static_cast<unsigned long long>(count));
  }
  return 0;
}

int RunTop(const std::vector<RequestRecord>& records, size_t k) {
  // Group by fingerprint; representative literals from first occurrence.
  std::map<uint64_t, PredicateGroup> groups;
  for (const RequestRecord& r : records) {
    for (const WorkloadPredicate& p : r.predicates) {
      PredicateGroup& group = groups[p.fingerprint];
      if (group.count == 0) {
        group.column = p.column;
        group.op = p.op;
        group.literals = p.literals;
        group.lo = p.lo;
        group.hi = p.hi;
        group.has_range = p.has_range;
      }
      group.count += 1;
      group.rows += p.rows;
    }
  }
  std::vector<PredicateGroup> ranked;
  ranked.reserve(groups.size());
  for (auto& [fingerprint, group] : groups) {
    (void)fingerprint;
    ranked.push_back(std::move(group));
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const PredicateGroup& a, const PredicateGroup& b) {
                     return a.count > b.count;
                   });
  if (ranked.size() > k) {
    ranked.resize(k);
  }
  std::printf("%-8s %-12s %s\n", "count", "avg_rows", "predicate");
  for (const PredicateGroup& group : ranked) {
    std::printf("%-8llu %-12.1f %s\n",
                static_cast<unsigned long long>(group.count),
                static_cast<double>(group.rows) /
                    static_cast<double>(group.count),
                GroupText(group).c_str());
  }
  return 0;
}

int RunJson(const std::vector<RequestRecord>& records) {
  std::printf("[");
  for (size_t i = 0; i < records.size(); ++i) {
    std::printf("%s%s", i > 0 ? ",\n " : "",
                RequestRecordJson(records[i]).c_str());
  }
  std::printf("]\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string mode = argv[1];
  size_t k = 10;
  bool cluster = false;
  std::vector<std::string> paths;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--k") == 0) {
      if (i + 1 >= argc) {
        return Usage();
      }
      k = static_cast<size_t>(std::strtoul(argv[++i], nullptr, 10));
      continue;
    }
    if (std::strcmp(argv[i], "--cluster") == 0) {
      cluster = true;
      continue;
    }
    paths.emplace_back(argv[i]);
  }
  if (paths.empty() ||
      (mode != "summary" && mode != "top" && mode != "json")) {
    return Usage();
  }

  std::vector<LogSource> sources;
  for (const std::string& path : paths) {
    if (cluster) {
      std::vector<LogSource> expanded = ExpandCluster(path);
      if (expanded.empty()) {
        std::fprintf(stderr,
                     "ebi_workload: %s: no per-shard logs (%s.s0 not "
                     "found)\n",
                     path.c_str(), path.c_str());
        return 1;
      }
      std::move(expanded.begin(), expanded.end(),
                std::back_inserter(sources));
    } else {
      sources.push_back({path, path});
    }
  }

  std::vector<std::pair<LogSource, WorkloadLogRead>> reads;
  std::vector<RequestRecord> records;
  size_t skipped = 0;
  for (const LogSource& source : sources) {
    ebi::Result<WorkloadLogRead> one =
        ReadWorkloadLogSet(source.path, kMaxGenerations);
    if (!one.ok()) {
      std::fprintf(stderr, "ebi_workload: %s: %s\n", source.path.c_str(),
                   one.status().ToString().c_str());
      return 1;
    }
    if (one.value().records.empty() && one.value().skipped == 0) {
      std::fprintf(stderr, "ebi_workload: %s: no records\n",
                   source.path.c_str());
    }
    skipped += one.value().skipped;
    reads.emplace_back(source, one.value());
    std::copy(one.value().records.begin(), one.value().records.end(),
              std::back_inserter(records));
  }
  if (skipped > 0) {
    std::fprintf(stderr, "ebi_workload: skipped %zu damaged line(s)\n",
                 skipped);
  }
  if (mode == "summary") {
    if (cluster) {
      PrintShardBreakdown(reads);
    }
    return RunSummary(records, skipped);
  }
  if (mode == "top") {
    return RunTop(records, k);
  }
  return RunJson(records);
}
