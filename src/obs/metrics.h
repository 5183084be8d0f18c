#ifndef EBI_OBS_METRICS_H_
#define EBI_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metric_names.h"
#include "storage/io_accountant.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace ebi {
namespace obs {

/// A monotonically increasing named counter. Thread-safe, lock-free.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A fixed-bucket histogram: `bounds` are ascending inclusive upper
/// bounds, plus one implicit overflow bucket. Tracks sum and count so
/// means survive bucketing.
///
/// Thread-safe and lock-free: every bucket is a relaxed atomic, so
/// serve-path workers observing latencies never serialize on a histogram
/// mutex. Reads (TotalCount/Sum/BucketCounts) snapshot each atomic
/// individually — under concurrent observation the snapshot is
/// per-counter consistent, not cross-counter, which is fine for
/// monitoring (the same contract as IoAccountant::stats()).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  uint64_t TotalCount() const;
  double Sum() const;
  double Mean() const;
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  std::vector<uint64_t> BucketCounts() const;
  const std::vector<double>& bounds() const { return bounds_; }

  /// Estimated q-quantile (q in [0, 1]) by linear interpolation inside
  /// the bucket the cumulative count crosses q at. Values in the
  /// overflow bucket report the last finite bound (the histogram cannot
  /// see past it). 0 when empty.
  double Quantile(double q) const;

  void Reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<uint64_t>> counts_;
  /// Bit pattern of the running double sum (CAS-add keeps Observe
  /// lock-free without requiring std::atomic<double>::fetch_add).
  std::atomic<uint64_t> sum_bits_{0};
  std::atomic<uint64_t> count_{0};
};

/// Process-wide registry of named counters and histograms.
///
/// Lookups hash the name to one of kShards shards and take only that
/// shard's mutex, so concurrent registrations of unrelated metrics never
/// serialize. Returned pointers are stable for the registry's lifetime.
///
/// Handle-caching idiom (the hot-path contract, DESIGN.md §11): a name
/// lookup is a hash + mutex + map probe, far more than the increment
/// itself, so instrument sites must look a metric up ONCE and cache the
/// stable pointer in a function-local static:
///
///   static Counter* shed =
///       MetricsRegistry::Global().GetCounter(kMetricServeShed);
///   shed->Increment();
///
/// After the first call the site costs one relaxed fetch_add and zero
/// name lookups. Never call GetCounter/GetHistogram per event.
class MetricsRegistry {
 public:
  /// The process-wide registry every built-in instrumentation site feeds.
  static MetricsRegistry& Global();

  MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates the counter `name`.
  Counter* GetCounter(const std::string& name);
  /// Finds or creates the histogram `name`. `bounds` only applies on
  /// first creation; later callers get the existing bucket layout.
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> bounds = DefaultBounds());

  /// 1, 2, 5, 10, ... 10^6 — a decade ladder wide enough for latencies in
  /// ms, vectors per query, and page errors alike.
  static std::vector<double> DefaultBounds();
  /// Sub-millisecond decade ladder (0.001 ms .. 10^5 ms) for serve-stage
  /// latencies, where queue/pin/plan stages run well under a millisecond.
  static std::vector<double> LatencyBounds();

  /// Snapshot as one JSON object: {"counters": {...}, "histograms": {...}}.
  std::string ToJson() const;
  /// Machine-readable JSON export: ToJson plus derived p50/p99/p999 per
  /// histogram — what the periodic serve-layer flush writes to disk.
  std::string RenderJson() const;
  /// Prometheus text exposition format (one # TYPE line per metric;
  /// histograms render cumulative _bucket{le=...}/_sum/_count series;
  /// dots in names become underscores). Deterministic: metrics sort by
  /// name, so goldens can compare the full document.
  std::string RenderPrometheus() const;
  /// Human-readable one-line-per-metric dump.
  std::string ToString() const;
  /// Zeroes every registered metric (registrations stay). For tests.
  void Reset();

 private:
  /// Shard fan-out: 16 independently locked maps keeps registration (and
  /// cold lookups that bypass the caching idiom) from serializing the
  /// whole process on one mutex.
  static constexpr size_t kShards = 16;
  struct Shard {
    /// Highest-ranked mutex in the table: metric registration may happen
    /// under any subsystem lock (handle-caching statics fire on first
    /// use), so nothing may be acquired after a shard mutex.
    mutable Mutex mu{lock_rank::kMetricsShard, "MetricsRegistry::Shard::mu"};
    std::unordered_map<std::string, std::unique_ptr<Counter>> counters
        EBI_GUARDED_BY(mu);
    std::unordered_map<std::string, std::unique_ptr<Histogram>> histograms
        EBI_GUARDED_BY(mu);
  };

  Shard& ShardFor(const std::string& name);
  /// Stable name-sorted snapshot of every registered metric (pointers
  /// remain valid; the registry never deletes).
  std::vector<std::pair<std::string, const Counter*>> CountersSorted() const;
  std::vector<std::pair<std::string, const Histogram*>> HistogramsSorted()
      const;

  std::array<Shard, kShards> shards_;
};

/// Feeds one finished query into the global registry: query count, the
/// vectors/pages histograms from `io`, and the latency histogram.
void RecordQuery(const IoStats& io, double latency_ms);

/// Feeds one planned access-path decision (SelectionExecutor::Choose):
/// |estimated - actual| pages.
void RecordEstimateError(double estimated_pages, double actual_pages);

}  // namespace obs
}  // namespace ebi

#endif  // EBI_OBS_METRICS_H_
