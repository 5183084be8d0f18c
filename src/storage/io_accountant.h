#ifndef EBI_STORAGE_IO_ACCOUNTANT_H_
#define EBI_STORAGE_IO_ACCOUNTANT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace ebi {

/// Aggregated I/O counters for one query or one experiment run.
struct IoStats {
  /// Number of bitmap vectors read — the paper's primary cost metric
  /// (c_s / c_e in Section 3.1).
  uint64_t vectors_read = 0;
  /// Number of simulated disk pages read.
  uint64_t pages_read = 0;
  /// Raw bytes read.
  uint64_t bytes_read = 0;
  /// Number of index-structure nodes visited (B-tree traversals).
  uint64_t nodes_read = 0;
  /// Raw bytes written (buffer-pool writebacks, WAL appends). Appended
  /// after the read counters so positional aggregate initializers of the
  /// original four fields keep compiling.
  uint64_t bytes_written = 0;
  /// Number of disk pages written — symmetric with pages_read.
  uint64_t pages_written = 0;

  /// Per-counter difference, clamped at zero: counters are cumulative, so
  /// a subtrahend can only exceed the minuend after an interleaved
  /// Reset() — clamping keeps such deltas at zero instead of wrapping to
  /// ~2^64 (see IoScope::Delta()).
  IoStats operator-(const IoStats& other) const {
    const auto sub = [](uint64_t a, uint64_t b) { return a > b ? a - b : 0; };
    return IoStats{sub(vectors_read, other.vectors_read),
                   sub(pages_read, other.pages_read),
                   sub(bytes_read, other.bytes_read),
                   sub(nodes_read, other.nodes_read),
                   sub(bytes_written, other.bytes_written),
                   sub(pages_written, other.pages_written)};
  }

  /// Per-counter sum — re-aggregates per-span deltas (e.g. summing the
  /// predicate spans of a trace back into the query total) without
  /// touching the live accountant.
  IoStats operator+(const IoStats& other) const {
    return IoStats{vectors_read + other.vectors_read,
                   pages_read + other.pages_read,
                   bytes_read + other.bytes_read,
                   nodes_read + other.nodes_read,
                   bytes_written + other.bytes_written,
                   pages_written + other.pages_written};
  }

  IoStats& operator+=(const IoStats& other) {
    *this = *this + other;
    return *this;
  }

  /// Named form of operator+= for call sites that read better with a verb.
  IoStats& Merge(const IoStats& other) { return *this += other; }

  friend bool operator==(const IoStats& a, const IoStats& b) {
    return a.vectors_read == b.vectors_read &&
           a.pages_read == b.pages_read && a.bytes_read == b.bytes_read &&
           a.nodes_read == b.nodes_read &&
           a.bytes_written == b.bytes_written &&
           a.pages_written == b.pages_written;
  }

  std::string ToString() const;
};

/// Charges simulated I/O. Every index implementation routes its reads
/// through one of these so that experiments can *measure* the paper's cost
/// metric (bitmap vectors / pages accessed) instead of estimating it.
///
/// Storage is in-memory; only the accounting is "disk-shaped". Page size
/// defaults to the 4 KB the paper assumes in its Section 2.1 cost analysis.
///
/// Thread-safe: the counters are relaxed atomics, so queries running on
/// pool workers can charge one shared accountant (a serve snapshot's)
/// without tearing. stats() snapshots the counters individually — under
/// concurrent charging the snapshot is per-counter consistent, not
/// cross-counter; code that needs an exact delta (IoScope) should read at
/// points where the accountant is quiescent.
class IoAccountant {
 public:
  static constexpr size_t kDefaultPageSize = 4096;

  /// A page size of zero would divide-by-zero in ChargeBytes; reject it
  /// up front and fall back to the default rather than crash later.
  explicit IoAccountant(size_t page_size = kDefaultPageSize)
      : page_size_(page_size > 0 ? page_size : kDefaultPageSize),
        page_size_valid_(page_size > 0) {}

  /// False when the constructor was handed page_size == 0 and substituted
  /// kDefaultPageSize. Callers that must hard-fail on bad configuration
  /// check this right after construction.
  bool page_size_valid() const { return page_size_valid_; }

  /// Charges the read of one whole bitmap vector of `bytes` length.
  void ChargeVectorRead(size_t bytes) {
    vectors_read_.fetch_add(1, std::memory_order_relaxed);
    ChargeBytes(bytes);
  }

  /// Charges one index node (e.g. a B-tree page).
  void ChargeNodeRead(size_t bytes) {
    nodes_read_.fetch_add(1, std::memory_order_relaxed);
    ChargeBytes(bytes);
  }

  /// Charges a raw byte range (e.g. a projection-index scan).
  void ChargeBytes(size_t bytes) {
    bytes_read_.fetch_add(bytes, std::memory_order_relaxed);
    pages_read_.fetch_add((bytes + page_size_ - 1) / page_size_,
                          std::memory_order_relaxed);
  }

  /// Charges one physical page fault of `payload_bytes` stored bytes —
  /// the buffer pool's miss path. Exactly one page regardless of payload
  /// length, and exactly the stored bytes (so faulting a whole extent
  /// sums to the slice's StoredBytes, matching the paper's cost model).
  void ChargePageRead(size_t payload_bytes) {
    pages_read_.fetch_add(1, std::memory_order_relaxed);
    bytes_read_.fetch_add(payload_bytes, std::memory_order_relaxed);
  }

  /// Charges one physical page write of `payload_bytes` stored bytes —
  /// buffer-pool writebacks and initial extent writes.
  void ChargePageWrite(size_t payload_bytes) {
    pages_written_.fetch_add(1, std::memory_order_relaxed);
    bytes_written_.fetch_add(payload_bytes, std::memory_order_relaxed);
  }

  /// Charges a raw write byte range (WAL appends), page count rounded up.
  void ChargeBytesWritten(size_t bytes) {
    bytes_written_.fetch_add(bytes, std::memory_order_relaxed);
    pages_written_.fetch_add((bytes + page_size_ - 1) / page_size_,
                             std::memory_order_relaxed);
  }

  /// Charges one logical vector materialization with no byte traffic —
  /// the store facade uses this when a Get faults pages (which were
  /// already charged individually via ChargePageRead).
  void ChargeVectorTouch() {
    vectors_read_.fetch_add(1, std::memory_order_relaxed);
  }

  IoStats stats() const {
    return IoStats{vectors_read_.load(std::memory_order_relaxed),
                   pages_read_.load(std::memory_order_relaxed),
                   bytes_read_.load(std::memory_order_relaxed),
                   nodes_read_.load(std::memory_order_relaxed),
                   bytes_written_.load(std::memory_order_relaxed),
                   pages_written_.load(std::memory_order_relaxed)};
  }
  size_t page_size() const { return page_size_; }
  void Reset() {
    vectors_read_.store(0, std::memory_order_relaxed);
    pages_read_.store(0, std::memory_order_relaxed);
    bytes_read_.store(0, std::memory_order_relaxed);
    nodes_read_.store(0, std::memory_order_relaxed);
    bytes_written_.store(0, std::memory_order_relaxed);
    pages_written_.store(0, std::memory_order_relaxed);
  }

 private:
  size_t page_size_;
  bool page_size_valid_;
  std::atomic<uint64_t> vectors_read_{0};
  std::atomic<uint64_t> pages_read_{0};
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> nodes_read_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> pages_written_{0};
};

/// RAII helper measuring the I/O a scoped block performed.
class IoScope {
 public:
  explicit IoScope(IoAccountant* accountant)
      : accountant_(accountant), start_(accountant->stats()) {}

  /// I/O performed since construction. If the accountant was Reset()
  /// mid-scope, counters restart below the snapshot; the clamped
  /// subtraction then reports zero until post-Reset activity exceeds the
  /// snapshot (it never underflows to ~2^64).
  IoStats Delta() const { return accountant_->stats() - start_; }

 private:
  IoAccountant* accountant_;
  IoStats start_;
};

}  // namespace ebi

#endif  // EBI_STORAGE_IO_ACCOUNTANT_H_
