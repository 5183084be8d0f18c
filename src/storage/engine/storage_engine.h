#ifndef EBI_STORAGE_ENGINE_STORAGE_ENGINE_H_
#define EBI_STORAGE_ENGINE_STORAGE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "storage/engine/buffer_pool.h"
#include "storage/engine/page_file.h"
#include "storage/io_accountant.h"
#include "util/bitvector.h"
#include "util/status.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace ebi {
namespace engine {

struct StorageEngineOptions {
  /// Physical page size of the backing file.
  size_t page_size = 4096;
  /// Buffer-pool capacity in pages.
  size_t pool_pages = 64;
  IoAccountant* io = nullptr;
  /// true: reopen an existing engine — load the extent-map sidecar and
  /// keep the page file's contents. false: create/truncate fresh files.
  bool recover = false;
  /// Unlink the page file and sidecar on destruction (scratch stores).
  bool remove_on_close = false;
  /// Fault-injection hooks, forwarded to PageFile / guarding the sidecar
  /// rename (crash-recovery tests).
  uint64_t fail_after_page_writes = 0;
  bool fail_before_map_rename = false;
};

/// One bitmap slice's location in the page file.
struct SliceExtent {
  uint32_t first_page = 0;
  /// Pages reserved for the slice (its in-place update capacity).
  uint32_t num_pages = 0;
  /// Serialized slice payload bytes actually used.
  uint64_t payload_bytes = 0;
};

/// The slice payload format, which the engine alone writes and parses:
/// the `EBIS` magic, format tag 0 (plain words), the `EBIV` magic and the
/// u64 bit size — kSliceHeaderBytes in all, little-endian — then the
/// (bits + 63) / 64 words, little-endian, with every bit past the size
/// zero. Tags 1 and 2 held retired compressed forms; every tag but 0 is
/// rejected as InvalidArgument, like a bad magic, a declared size within
/// 63 of 2^64, a payload whose byte count does not hold exactly the
/// declared words, or a set padding bit.
inline constexpr size_t kSliceHeaderBytes = 20;

/// Read counters of one engine since its last ResetStats. A slice read
/// (GetSlice, or a SliceReader drained to its last word) that faulted no
/// page is a hit, else a miss; evictions and writebacks are page-granular,
/// from the buffer pool.
struct SliceStats {
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

class StorageEngine;

/// Streams the words of one slice in order without assembling it — the
/// engine's one read path (DESIGN.md §12): the cold cover pass drains it
/// block by block and GetSlice drains it whole. StorageEngine::ReadSlice
/// has already validated the payload header against the extent map. Each
/// page of the extent is looked up in the pool exactly once and its
/// payload copied once, under the pool lock (BufferPool::CopyPage):
/// straight into the caller's words when a read wants at least a whole
/// page, else into a staging buffer of one page. Nothing stays resident
/// on the reader's behalf, so a reader works at any pool capacity.
///
/// The read of the last word checks its padding bits and that the pages
/// held exactly the extent's bytes, then counts the read with the engine:
/// a hit when no page faulted, else a miss and one vector read charged to
/// the IoAccountant (the faulted pages charged their own bytes). The
/// engine must outlive the reader.
class SliceReader {
 public:
  SliceReader(SliceReader&&) noexcept = default;
  SliceReader& operator=(SliceReader&&) noexcept = default;

  /// Copies the next `count` words, in native order, into `dst`. Fails,
  /// and never returns a partial slice, on any page, size or padding
  /// error; reading past the last word is OutOfRange.
  [[nodiscard]] Status ReadWords(uint64_t* dst, size_t count);

  /// The declared bit size, checked against the extent's byte count.
  uint64_t bits() const { return bits_; }
  /// Pages of the slice that missed the pool so far.
  size_t pages_faulted() const { return pages_faulted_; }

 private:
  friend class StorageEngine;
  SliceReader(StorageEngine* engine, uint32_t slice,
              const SliceExtent& extent, uint32_t pages_used,
              size_t page_capacity);
  /// Copies the next `bytes` payload bytes into `dst`. Fails with
  /// kInternal when the slice's pages end first.
  [[nodiscard]] Status Read(void* dst, size_t bytes);
  /// Copies the next page's payload into `dst` (room for one page's
  /// capacity), returning its length.
  [[nodiscard]] Result<size_t> CopyNextPage(uint8_t* dst);
  /// The end of every slice read: checks the padding bits of `last_word`
  /// and that every page byte was read and matched the extent map, then
  /// counts the read.
  [[nodiscard]] Status Finish(uint64_t last_word);

  StorageEngine* engine_;
  uint32_t slice_;
  uint32_t next_page_;
  uint32_t end_page_;
  uint64_t extent_bytes_;
  /// Payload bytes of the pages read so far.
  uint64_t read_total_ = 0;
  size_t page_capacity_;
  std::unique_ptr<uint8_t[]> staging_;
  size_t staged_ = 0;
  size_t offset_ = 0;
  size_t pages_faulted_ = 0;
  uint64_t bits_ = 0;
  uint64_t words_read_ = 0;
};

/// The tiered storage engine (DESIGN.md §12) and the one slice store:
/// BitVector slices, serialized in the slice payload format above,
/// chunked over fixed-size checksummed pages in one PageFile, cached by
/// a BufferPool over that file, located by a per-slice extent map
/// persisted in a checksummed sidecar file (`<path>.map`, written
/// atomically via tmp + fsync + rename).
///
/// Durability: page payloads reach disk through pool writeback + Sync;
/// the sidecar is rewritten by Sync, so after Sync() returns OK the
/// engine reopens with `recover = true` to exactly this state. A crash
/// between page writes and the sidecar rename leaves the previous
/// sidecar in place — pages past its extents are unreferenced garbage,
/// never a corrupt slice. Updates never overwrite a committed extent in
/// place, so the same holds after an unsynced UpdateSlice.
class StorageEngine {
 public:
  using SliceId = uint32_t;

  static Result<std::unique_ptr<StorageEngine>> Open(
      const std::string& path, const StorageEngineOptions& options);

  StorageEngine(const StorageEngine&) = delete;
  StorageEngine& operator=(const StorageEngine&) = delete;
  ~StorageEngine();

  /// Appends a slice, returning its id. The payload lands in dirty pool
  /// frames (write-back caching); Sync() makes it durable.
  Result<SliceId> PutSlice(const BitVector& bits);

  /// Overwrites slice `id`. Reuses the extent when the new payload fits
  /// its reserved pages and no committed sidecar names them (the extent
  /// lies past the pages of the last Sync or recovery); else relocates
  /// to a fresh extent (the old one becomes garbage; engines are
  /// rebuilt, not compacted).
  [[nodiscard]] Status UpdateSlice(SliceId id, const BitVector& bits);

  /// Reconstructs slice `id` by draining a SliceReader over its pages
  /// into the slice's word array (pool hits are free; misses charge one
  /// page read each, and the read one vector read). When `pages_faulted`
  /// is non-null it receives the number of pages that missed the pool.
  Result<BitVector> GetSlice(SliceId id, size_t* pages_faulted = nullptr);

  /// Opens a streaming reader over slice `id`, which must declare exactly
  /// `bits` bits (kInternal otherwise): the page lookups, charges and
  /// counts GetSlice makes, without assembling the slice.
  Result<SliceReader> ReadSlice(SliceId id, size_t bits);

  /// Serialized bytes slice `id` occupies (the sum its cold read charges).
  Result<size_t> SliceBytes(SliceId id) const;
  /// Pages slice `id` spans — the page estimate for reading one slice.
  Result<uint32_t> SlicePages(SliceId id) const;

  /// Re-reads every page of slice `id` from the file and validates its
  /// checksums, slice tags and payload: the checks of a read, on disk.
  [[nodiscard]] Status VerifySlice(SliceId id);

  size_t NumSlices() const;

  /// Flushes dirty pool frames, fsyncs the page file and atomically
  /// persists the extent-map sidecar — the engine's commit point.
  [[nodiscard]] Status Sync();

  /// Slice-read counts and pool evictions since the last ResetStats.
  SliceStats stats() const;
  void ResetStats();

  BufferPoolStats pool_stats() const { return pool_->stats(); }
  size_t PoolResident() const { return pool_->Resident(); }
  size_t page_size() const { return file_.page_size(); }
  const std::string& path() const { return path_; }

 private:
  friend class SliceReader;

  StorageEngine(std::string path, const StorageEngineOptions& options,
                PageFile file);

  /// A reader over slice `id` whose header has been read and parsed; when
  /// `expect_bits` is set, a declared size other than it is kInternal.
  /// Then checks the declared size against the extent's byte count, and
  /// finishes the read of an empty slice.
  Result<SliceReader> OpenSlice(SliceId id,
                                std::optional<uint64_t> expect_bits);
  /// Counts one completed slice read (see SliceStats).
  void CountRead(size_t pages_faulted);

  Result<SliceExtent> WriteExtentLocked(const BitVector& bits, SliceId id,
                                        SliceExtent* reuse)
      EBI_REQUIRES(mu_);
  [[nodiscard]] Status PersistMapLocked() EBI_REQUIRES(mu_);
  /// Extent of slice `id` and the pages its payload occupies.
  [[nodiscard]] Status ExtentOf(SliceId id, SliceExtent* extent,
                                uint32_t* pages_used) const
      EBI_EXCLUDES(mu_);
  [[nodiscard]] Status LoadMap() EBI_EXCLUDES(mu_);

  std::string path_
      EBI_UNGUARDED("set once in Open before the engine is shared");
  StorageEngineOptions options_
      EBI_UNGUARDED("set once in Open before the engine is shared");
  PageFile file_ EBI_UNGUARDED("internally synchronized");
  std::unique_ptr<BufferPool> pool_
      EBI_UNGUARDED("internally synchronized; pointer set in Open");
  /// Guards the extent directory; the pool and the page file carry their
  /// own mutexes (ranks kBufferPool and kPageFile, both acquired after
  /// this one — see util/sync.h).
  mutable Mutex mu_{lock_rank::kStorageEngine, "StorageEngine::mu_"};
  std::vector<SliceExtent> extents_ EBI_GUARDED_BY(mu_);
  /// Pages of the file when the sidecar last committed (Sync or
  /// LoadMap). Extents below it may be named by that sidecar, so an
  /// update never overwrites them in place: a dirty page evicted before
  /// the next Sync would tear the committed slice.
  uint32_t committed_pages_ EBI_GUARDED_BY(mu_) = 0;
  /// Slice reads since ResetStats, and the pool counters it saw.
  std::atomic<uint64_t> reads_hit_{0};
  std::atomic<uint64_t> reads_missed_{0};
  BufferPoolStats pool_baseline_ EBI_GUARDED_BY(mu_);
};

}  // namespace engine
}  // namespace ebi

#endif  // EBI_STORAGE_ENGINE_STORAGE_ENGINE_H_
