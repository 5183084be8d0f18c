#ifndef EBI_STORAGE_BITMAP_STORE_H_
#define EBI_STORAGE_BITMAP_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "storage/engine/storage_engine.h"
#include "storage/io_accountant.h"
#include "util/bitvector.h"
#include "util/status.h"

namespace ebi {

/// Statistics of one BitmapStore. Hits/misses are per-Get (a Get that
/// faulted no pages is a hit); evictions/writebacks are page-granular,
/// forwarded from the underlying buffer pool.
struct BitmapStoreStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t writebacks = 0;

  [[nodiscard]] double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) /
                            static_cast<double>(total);
  }
};

class BitmapStore;

/// Streams the words of one stored vector in order, without assembling
/// it — the cold cover pass's word source (DESIGN.md §12). Holds only the
/// engine reader's one-page staging buffer. Opening reads and validates
/// the vector's header (magic, plain tag, declared size); the read of the
/// last word also checks its padding bits and that the pages held
/// exactly the extent's bytes, then counts the read like a Get: a hit
/// when no page faulted, else a miss and one vector read charged. The
/// store must outlive the reader.
class VectorReader {
 public:
  VectorReader(VectorReader&&) noexcept = default;
  VectorReader& operator=(VectorReader&&) noexcept = default;

  /// Copies the next `count` words into `dst`. Fails, and never returns
  /// a partial vector, on any page, size or padding error.
  [[nodiscard]] Status ReadWords(uint64_t* dst, size_t count);

 private:
  friend class BitmapStore;
  VectorReader(BitmapStore* store, engine::SliceReader bytes, size_t bits)
      : store_(store), bytes_(std::move(bytes)), bits_(bits) {}
  /// Validates the end of the stream and counts the read with the store.
  [[nodiscard]] Status Finish();

  BitmapStore* store_;
  engine::SliceReader bytes_;
  size_t bits_;
  size_t words_read_ = 0;
};

/// A file-backed store for bitmap vectors — the disk-resident storage DW
/// indexes actually live on. Since the tiered storage engine landed
/// (DESIGN.md §12) this is a thin facade over engine::StorageEngine: one
/// vector is one slice, chunked over checksummed 4 KB pages and cached
/// by a page-granular buffer pool.
///
/// Vectors land on disk as plain word arrays. Usage:
///
///   auto store = BitmapStore::Open("/tmp/ebi.bin", /*capacity_pages=*/8,
///                                  &io);
///   auto id = store->Put(bitvector);        // Install.
///   auto bits = store->Get(*id);            // Cached or re-read.
class BitmapStore {
 public:
  using VectorId = uint32_t;

  /// Opens (creates/truncates) the backing file. `capacity_pages` is the
  /// number of 4 KB pages the buffer pool may keep in memory. The backing
  /// file (and its extent-map sidecar) is removed when the store dies —
  /// use engine::StorageEngine directly for durable stores.
  static Result<BitmapStore> Open(const std::string& path,
                                  size_t capacity_pages, IoAccountant* io);

  BitmapStore(const BitmapStore&) = delete;
  BitmapStore& operator=(const BitmapStore&) = delete;
  BitmapStore(BitmapStore&&) noexcept = default;
  BitmapStore& operator=(BitmapStore&&) noexcept = default;
  ~BitmapStore() = default;

  /// Appends a vector to the store, returning its id. The payload lands
  /// in pool frames and reaches disk on eviction or engine Sync.
  Result<VectorId> Put(const BitVector& bits);

  /// Overwrites an existing vector (same id), e.g. after maintenance.
  [[nodiscard]] Status Update(VectorId id, const BitVector& bits);

  /// Fetches a vector: a Get whose pages are all pool-resident is free;
  /// otherwise each faulted page charges the accountant, plus one
  /// logical vector read for the Get itself.
  Result<BitVector> Get(VectorId id);

  /// Opens a streaming reader over vector `id`, which must hold exactly
  /// `bits` bits: the same page lookups and charges as Get, but the
  /// vector is never assembled.
  Result<VectorReader> Read(VectorId id, size_t bits);

  /// Number of vectors stored.
  size_t Size() const { return engine_->NumSlices(); }
  /// Pages currently resident in the pool.
  size_t Resident() const { return engine_->PoolResident(); }
  /// Physical bytes vector `id` occupies on disk (the sum a cold read
  /// charges).
  Result<size_t> StoredBytes(VectorId id) const {
    return engine_->SliceBytes(id);
  }
  /// Pages vector `id` spans — the per-vector page cost of a cold read.
  Result<uint32_t> StoredPages(VectorId id) const {
    return engine_->SlicePages(id);
  }

  /// The engine underneath, e.g. for Sync or verification.
  engine::StorageEngine* storage_engine() { return engine_.get(); }

  BitmapStoreStats stats() const;
  void ResetStats();

 private:
  friend class VectorReader;
  BitmapStore() = default;
  /// Counts one completed vector read (Get or VectorReader).
  void CountRead(size_t pages_faulted);

  std::unique_ptr<engine::StorageEngine> engine_;
  IoAccountant* io_ = nullptr;
  /// Get-level hit/miss counts (page-level counters live in the pool).
  uint64_t gets_hit_ = 0;
  uint64_t gets_missed_ = 0;
  /// Pool counter baseline set by ResetStats().
  engine::BufferPoolStats pool_baseline_;
};

}  // namespace ebi

#endif  // EBI_STORAGE_BITMAP_STORE_H_
