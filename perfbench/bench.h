// Shared types of the repo benchmark's binary, ebi_perfbench. It runs
// one workload against the library's public API, records raw samples
// and trace spans, and writes them as one JSON document; run.py turns the
// raw record into the reported metrics (perfbench/stats.py).
#ifndef EBI_PERFBENCH_BENCH_H_
#define EBI_PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "query/predicate.h"
#include "serve/snapshot.h"
#include "storage/table.h"
#include "util/status.h"

namespace ebi {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// What one run was asked to do.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for WAL and page files; the run owns it.
  std::string work_dir;
};

/// Raw observations of one measured phase (untraced or traced).
struct Phase {
  double window_s = 0.0;
  /// End-to-end select latency of every completed selection, in ms.
  std::vector<double> select_ms;
  uint64_t select_attempted = 0;
  uint64_t select_failed = 0;
  /// Selections refused at admission (kOverloaded); also counted failed.
  uint64_t shed = 0;
  /// Append latency (until the rows are published), in ms.
  std::vector<double> append_ms;
  uint64_t append_attempted = 0;
  uint64_t append_failed = 0;
  uint64_t rows_appended = 0;
  /// How late a scheduled appender issued its worst batch, in ms.
  double appender_late_max_ms = 0.0;
  /// QueryService stage split, read from ServeResult.
  std::vector<double> queue_ms;
  std::vector<double> run_ms;
  /// Cluster gather observations, one per cluster selection (fanout,
  /// gather) or per visited shard (shard_ms).
  std::vector<double> fanout;
  std::vector<double> shard_ms;
  std::vector<double> gather_ms;
  /// Storage-engine counters moved by the phase's selections (cold_scan
  /// only).
  uint64_t engine_queries = 0;
  uint64_t engine_pages = 0;
  uint64_t engine_bytes = 0;
  uint64_t engine_hits = 0;
  uint64_t engine_misses = 0;
  uint64_t engine_evictions = 0;
  /// Most retired-but-unreclaimed snapshots seen at once.
  uint64_t retired_max = 0;
};

/// One recorded span: a benchmark-side wrapper around one public call.
struct Span {
  std::string name;
  uint32_t id = 0;
  /// Parent span id; kNoParent for a request root.
  uint32_t parent = 0;
  uint32_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Counts recorded at the span's boundary (cover cubes, vectors, ...).
  std::map<std::string, double> counts;
};

inline constexpr uint32_t kNoParent = UINT32_MAX;

/// In-memory span recorder. Spans are kept until the run ends and then
/// written out with the rest of the record. Single writer: each run has
/// exactly one replaying thread.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  uint32_t Begin(const char* name, uint32_t parent, uint32_t request) {
    Span span;
    span.name = name;
    span.id = static_cast<uint32_t>(spans_.size());
    span.parent = parent;
    span.request = request;
    span.start_ns = Now();
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }
  void End(uint32_t id) { spans_[id].end_ns = Now(); }
  void Count(uint32_t id, const char* key, double value) {
    spans_[id].counts[key] = value;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Stand-alone timings of single layers, taken after the traced phase.
struct Probes {
  std::vector<double> clone_ms;
  std::vector<double> wal_append_ms;
  std::vector<double> route_us;
  std::vector<double> or_many_gbps;
  std::vector<double> and_many_gbps;
  std::vector<double> popcount_gbps;
};

/// Answer checks. Every failed check also counts as a failed operation.
struct Checks {
  uint64_t performed = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  void Expect(bool ok, const std::string& what) {
    ++performed;
    if (!ok) {
      ++failed;
      if (failures.size() < 16) {
        failures.push_back(what);
      }
    }
  }
};

/// The program's peak heap: the bytes it holds allocated through malloc
/// (glibc mallinfo2: in-use arena bytes plus mmapped chunks). They are
/// polled from Start() — called once the benchmark has generated its
/// inputs, just before the first set-up call — until Stop(), and the peak
/// is reported above the bytes held at Start(). The generated inputs stay
/// alive for the whole run, so they sit in that baseline and are not
/// counted. Allocated bytes rather than resident memory: resident memory
/// also holds freed memory the allocator keeps, which depends on which
/// malloc arena each thread happened to draw from.
class HeapPeak {
 public:
  HeapPeak() = default;
  ~HeapPeak() { Stop(); }
  HeapPeak(const HeapPeak&) = delete;
  HeapPeak& operator=(const HeapPeak&) = delete;

  void Start();
  /// Stops polling; returns the peak above the baseline, in KiB.
  uint64_t Stop();

 private:
  uint64_t baseline_kb_ = 0;
  /// Written by the polling thread only, read after it has joined.
  uint64_t peak_kb_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Everything one run observed.
struct RunRecord {
  std::map<std::string, std::string> meta;
  std::vector<double> setup_s;
  uint64_t rows = 0;
  uint64_t index_bytes = 0;
  /// star_ingest: restart-from-WAL until the first served answer, in s.
  double recovery_s = 0.0;
  Phase untraced;
  Phase traced;
  Checks checks;
  Probes probes;
  SpanLog spans;
  HeapPeak heap;
  /// Peak heap above the baseline (see HeapPeak), in KiB.
  uint64_t peak_heap_kb = 0;
};

/// Aborts the run on a non-OK status: set-up failures are benchmark bugs,
/// not measured operation failures.
void CheckOk(const Status& status, const char* what);

template <typename T>
T CheckOk(Result<T> result, const char* what) {
  CheckOk(result.status(), what);
  return std::move(result).value();
}

// Single-layer probes (probes.cc). Each appends its samples to `probes`.

/// kernels::Active() or_many / and_many (8 operands) and popcount over
/// vectors of `bits` bits, as GB/s of operand bytes streamed.
void ProbeKernels(size_t bits, Probes* probes);
/// DatabaseSnapshot::CloneWithRows of `rows` on `snapshot`, `samples` times.
void ProbeClone(const serve::DatabaseSnapshot& snapshot,
                const std::vector<std::vector<Value>>& rows, size_t samples,
                Probes* probes);
/// Wal::Append (fsync on append) of an EncodeRowBatch payload of `rows`
/// on a fresh log at `path`, `samples` times.
void ProbeWal(const std::string& path,
              const std::vector<std::vector<Value>>& rows, size_t samples,
              Probes* probes);
/// ShardRouter::RouteAppend of `batch` on a router over `shards` hash
/// shards whose placement already holds every row of `table`.
void ProbeRoute(const Table& table, const std::string& key_column,
                size_t shards, const std::vector<std::vector<Value>>& batch,
                size_t samples, Probes* probes);

// Workload entry points (workloads.cc).
void RunStarRead(const RunConfig& config, RunRecord* record);
void RunStarIngest(const RunConfig& config, RunRecord* record);
void RunTenantCluster(const RunConfig& config, RunRecord* record);
void RunColdScan(const RunConfig& config, RunRecord* record);

}  // namespace perfbench
}  // namespace ebi

#endif  // EBI_PERFBENCH_BENCH_H_
