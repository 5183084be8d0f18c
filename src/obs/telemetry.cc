#include "obs/telemetry.h"

#include <algorithm>

namespace ebi {
namespace obs {
namespace {

/// splitmix64: a high-quality 64-bit mixer; turns the monotone sequence
/// counter into a uniform draw without any mutable RNG state.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

TraceSampler::TraceSampler(double rate)
    : rate_(std::min(1.0, std::max(0.0, rate))) {
  if (rate_ >= 1.0) {
    threshold_ = UINT64_MAX;
  } else {
    threshold_ = static_cast<uint64_t>(
        rate_ * static_cast<double>(UINT64_MAX));
  }
}

bool TraceSampler::DecideFor(uint64_t seq) const {
  if (rate_ <= 0.0) {
    return false;
  }
  if (threshold_ == UINT64_MAX) {
    return true;
  }
  return SplitMix64(seq) < threshold_;
}

RecordRing::RecordRing(size_t capacity)
    : slots_(std::max<size_t>(1, capacity)) {}

void RecordRing::Push(const RequestRecord& record) {
  const uint64_t seq = pushed_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[seq % slots_.size()];
  const MutexLock lock(slot.mu);
  slot.record = record;
  slot.record.seq = seq;
  slot.full = true;
}

std::vector<RequestRecord> RecordRing::Snapshot() const {
  std::vector<RequestRecord> out;
  out.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    const MutexLock lock(slot.mu);
    if (slot.full) {
      out.push_back(slot.record);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              return a.seq < b.seq;
            });
  return out;
}

std::string RecordRing::DumpJson() const {
  std::string out = "[";
  for (const RequestRecord& record : Snapshot()) {
    if (out.size() > 1) {
      out += ',';
    }
    out += RequestRecordJson(record);
  }
  out += ']';
  return out;
}

}  // namespace obs
}  // namespace ebi
