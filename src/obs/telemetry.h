#ifndef EBI_OBS_TELEMETRY_H_
#define EBI_OBS_TELEMETRY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/request_record.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace ebi {
namespace obs {

/// Deterministic probabilistic sampling decision. Stateless apart from a
/// monotone sequence counter: request `seq` is sampled iff
/// splitmix64(seq) falls under rate * 2^64, so for a fixed admission
/// order the sampled set is reproducible (no wall-clock or
/// random_device involved — the repo's determinism contract).
class TraceSampler {
 public:
  /// rate clamps to [0, 1]. 0 never samples (and costs one branch per
  /// Decide), 1 samples everything.
  explicit TraceSampler(double rate);

  /// Draws the next sequence number and decides. Lock-free.
  bool Decide() { return DecideFor(seq_.fetch_add(1, std::memory_order_relaxed)); }
  /// Pure decision for an externally supplied sequence number.
  bool DecideFor(uint64_t seq) const;

  double rate() const { return rate_; }

 private:
  double rate_;
  /// rate mapped onto the splitmix64 output range; UINT64_MAX means
  /// "sample always" (avoids overflow at rate == 1).
  uint64_t threshold_;
  std::atomic<uint64_t> seq_{0};
};

/// Lock-light bounded MPMC ring of request records — the trace ring
/// (sampled requests) and the slow-query ring are two of these. Writers
/// claim a slot with one atomic fetch_add and lock only that slot's mutex
/// to copy the record in, so concurrent pushes on different slots never
/// contend and push cost stays O(record), not O(ring). The ring keeps
/// the most recent `capacity` records; older ones are overwritten.
class RecordRing {
 public:
  explicit RecordRing(size_t capacity);

  RecordRing(const RecordRing&) = delete;
  RecordRing& operator=(const RecordRing&) = delete;

  /// Copies `record` into a slot, stamping its seq with the push order.
  void Push(const RequestRecord& record);

  /// Copies out the live records, oldest first (by seq).
  std::vector<RequestRecord> Snapshot() const;

  /// Total records ever pushed (>= live size; the difference is what the
  /// ring overwrote).
  uint64_t TotalCaptured() const {
    return pushed_.load(std::memory_order_relaxed);
  }
  size_t capacity() const { return slots_.size(); }

  /// The live records as one JSON array of RequestRecordJson objects,
  /// oldest first.
  std::string DumpJson() const;

 private:
  struct Slot {
    /// Leaf rank: slot mutexes guard only their own payload and never
    /// acquire anything further.
    mutable Mutex mu{lock_rank::kTelemetrySlot, "RecordRing::Slot::mu"};
    bool full EBI_GUARDED_BY(mu) = false;
    RequestRecord record EBI_GUARDED_BY(mu);
  };

  std::vector<Slot> slots_;
  std::atomic<uint64_t> pushed_{0};
};

}  // namespace obs
}  // namespace ebi

#endif  // EBI_OBS_TELEMETRY_H_
