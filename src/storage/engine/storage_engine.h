#ifndef EBI_STORAGE_ENGINE_STORAGE_ENGINE_H_
#define EBI_STORAGE_ENGINE_STORAGE_ENGINE_H_

#include <cstdint>
#include <memory>
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

/// Streams one slice's payload bytes in page order without assembling
/// the slice — the engine's one read path (DESIGN.md §12): the cold
/// cover pass drains it block by block and GetSlice drains it whole.
/// Each page of the extent is looked up in the pool exactly once and its
/// payload copied once, under the pool lock (BufferPool::CopyPage):
/// straight into the caller's buffer when a read wants at least a whole
/// page, else into a staging buffer of one page. Nothing stays resident
/// on the reader's behalf, so a reader works at any pool capacity.
/// Obtained from StorageEngine::ReadSlice; the engine must outlive it.
class SliceReader {
 public:
  SliceReader(SliceReader&&) noexcept = default;
  SliceReader& operator=(SliceReader&&) noexcept = default;

  /// Copies the next `bytes` payload bytes into `dst`. Fails with
  /// kInternal when the slice's pages end first.
  [[nodiscard]] Status Read(void* dst, size_t bytes);

  /// Fails with kInternal unless every payload byte was read and the
  /// pages held exactly the extent map's byte count.
  [[nodiscard]] Status Finish() const;

  /// Pages of the slice that missed the pool so far.
  size_t pages_faulted() const { return pages_faulted_; }

 private:
  friend class StorageEngine;
  SliceReader(BufferPool* pool, uint32_t slice, const SliceExtent& extent,
              uint32_t pages_used, size_t page_capacity);
  /// Copies the next page's payload into `dst` (room for one page's
  /// capacity), returning its length.
  [[nodiscard]] Result<size_t> CopyNextPage(uint8_t* dst);

  BufferPool* pool_;
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
};

/// The tiered storage engine (DESIGN.md §12): BitVector slices
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
  /// (pool hits are free; misses charge one page read each): the header
  /// lands aside and the words straight in the slice's word array, sized
  /// from the extent map. When `pages_faulted` is non-null it receives
  /// the number of pages that missed the pool.
  Result<BitVector> GetSlice(SliceId id, size_t* pages_faulted = nullptr);

  /// Opens a streaming reader over slice `id`'s payload bytes: the page
  /// lookups and charges GetSlice makes, without assembling the slice.
  Result<SliceReader> ReadSlice(SliceId id);

  /// Serialized bytes slice `id` occupies (the sum its cold read charges).
  Result<size_t> SliceBytes(SliceId id) const;
  /// Pages slice `id` spans — the planner's page estimate for one slice.
  Result<uint32_t> SlicePages(SliceId id) const;

  /// Re-reads every page of slice `id` and validates its checksums.
  [[nodiscard]] Status VerifySlice(SliceId id);

  size_t NumSlices() const;

  /// Flushes dirty pool frames, fsyncs the page file and atomically
  /// persists the extent-map sidecar — the engine's commit point.
  [[nodiscard]] Status Sync();

  BufferPoolStats pool_stats() const { return pool_->stats(); }
  size_t PoolResident() const { return pool_->Resident(); }
  size_t page_size() const { return file_.page_size(); }
  const std::string& path() const { return path_; }

 private:
  StorageEngine(std::string path, const StorageEngineOptions& options,
                PageFile file);

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
};

}  // namespace engine
}  // namespace ebi

#endif  // EBI_STORAGE_ENGINE_STORAGE_ENGINE_H_
