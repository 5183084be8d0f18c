#ifndef EBI_STORAGE_ENGINE_BUFFER_POOL_H_
#define EBI_STORAGE_ENGINE_BUFFER_POOL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/engine/page_file.h"
#include "storage/io_accountant.h"
#include "util/status.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace ebi {

namespace exec {
class ThreadPool;
}  // namespace exec

namespace engine {

/// Cumulative counters for one pool instance (mirrored into the global
/// MetricsRegistry as ebi.buffer_pool.*).
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t writebacks = 0;
  uint64_t prefetches = 0;
};

struct BufferPoolOptions {
  /// Frame-table capacity in pages. Must be > 0.
  size_t capacity_pages = 64;
  /// When set, every physical page read/write is charged here.
  IoAccountant* io = nullptr;
  /// When set, Prefetch() faults pages asynchronously on this pool;
  /// otherwise prefetch degrades to a synchronous warm-up loop.
  exec::ThreadPool* prefetch_pool = nullptr;
};

class BufferPool;

/// A pinned page: holds the frame resident and grants access to its
/// payload until destroyed. Copyable handles would complicate pin
/// accounting, so it is move-only.
class PageRef {
 public:
  PageRef() = default;
  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;
  PageRef(PageRef&& other) noexcept;
  PageRef& operator=(PageRef&& other) noexcept;
  ~PageRef();

  bool valid() const { return pool_ != nullptr; }
  /// The payload accessors read the frame without the pool lock: the pin
  /// this ref holds keeps the frame resident and its payload immutable
  /// (writers to a pinned frame go through WriteThrough, which replaces
  /// payload bytes only under the lock while no reader can hold a ref to
  /// a freed frame). Opted out of the capability analysis for that
  /// reason — the guard here is the pin, not the mutex.
  const uint8_t* data() const EBI_NO_THREAD_SAFETY_ANALYSIS;
  size_t size() const EBI_NO_THREAD_SAFETY_ANALYSIS;
  uint32_t slice() const EBI_NO_THREAD_SAFETY_ANALYSIS;
  /// Marks the frame dirty so eviction/flush writes it back.
  void MarkDirty();

 private:
  friend class BufferPool;
  PageRef(BufferPool* pool, size_t frame) : pool_(pool), frame_(frame) {}
  void Release();

  BufferPool* pool_ = nullptr;
  size_t frame_ = 0;
};

/// Page-granular cache over one or more PageFiles (DESIGN.md §12):
/// a frame table keyed by (file_id, page_no), pin counts, strict-LRU
/// eviction of unpinned frames, and dirty-page writeback on eviction or
/// Flush. All physical I/O flows through the registered PageFiles, all
/// accounting through the configured IoAccountant: a hit charges
/// nothing, a miss charges exactly one page and the page's stored
/// payload bytes.
///
/// Thread-safe; one mutex guards the frame table. Callers must drop (or
/// move-from) every PageRef before destroying the pool.
class BufferPool {
 public:
  static Result<std::unique_ptr<BufferPool>> Create(
      const BufferPoolOptions& options);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;
  ~BufferPool();

  /// Registers a page file the pool may read from / write back to. The
  /// returned file id keys all subsequent Pin/Prefetch calls. The caller
  /// keeps ownership and must outlive the pool.
  uint32_t Register(PageFile* file);

  /// Returns the page pinned in a frame, faulting it from disk on a
  /// miss (possibly evicting the LRU unpinned frame, writing it back
  /// first if dirty). Fails if every frame is pinned.
  [[nodiscard]] Result<PageRef> Pin(uint32_t file_id, uint32_t page_no);

  /// Passes the payloads of `count` consecutive pages, in page order, to
  /// `sink` under a single lock acquisition — the slice-assembly fast
  /// path. Each page is a hit or a fault exactly as through Pin, but
  /// nothing stays pinned: `sink` copies the bytes out while the lock
  /// protects the frame, so per-page pin/unpin round-trips (two mutex
  /// acquisitions each) are avoided. `sink` runs under the pool lock and
  /// must not call back into the pool. `*pages_faulted` (optional) receives the miss count.
  /// Works at any capacity: a page read earlier in the range may be
  /// evicted by a later fault, its bytes having already been copied.
  [[nodiscard]] Status ReadRange(
      uint32_t file_id, uint32_t first_page, uint32_t count,
      const std::function<void(const uint8_t*, size_t)>& sink,
      size_t* pages_faulted = nullptr);

  /// Copies the payload of one page into `dst` (room for the file's
  /// PayloadCapacity() bytes) under a single lock acquisition — the
  /// streaming read path (StorageEngine::SliceReader). The page is a hit
  /// or a fault exactly as through Pin, but nothing stays pinned, so it
  /// works at any capacity. Returns the payload length; `*faulted` says
  /// whether the page missed.
  [[nodiscard]] Result<size_t> CopyPage(uint32_t file_id, uint32_t page_no,
                                        uint8_t* dst, bool* faulted);

  /// Installs fresh payload bytes for (file_id, page_no) directly into a
  /// dirty frame — the write path. The bytes reach disk on eviction or
  /// Flush, not before.
  [[nodiscard]] Status WriteThrough(uint32_t file_id, uint32_t page_no,
                                    uint32_t slice, const uint8_t* data,
                                    size_t bytes);

  /// Warms the cache with the given pages. Asynchronous when a prefetch
  /// pool is configured; faults are best-effort (errors are dropped —
  /// the later Pin surfaces them).
  void Prefetch(uint32_t file_id, const std::vector<uint32_t>& pages);

  /// Writes back every dirty frame of `file_id` (all files when
  /// file_id == kAllFiles) without evicting.
  static constexpr uint32_t kAllFiles = UINT32_MAX;
  [[nodiscard]] Status Flush(uint32_t file_id = kAllFiles);

  /// Drops every unpinned frame of `file_id`, writing back dirty ones.
  /// Fails if a frame of that file is still pinned.
  [[nodiscard]] Status Evict(uint32_t file_id);

  BufferPoolStats stats() const;
  /// Frames currently holding a page.
  size_t Resident() const;
  size_t capacity_pages() const { return options_.capacity_pages; }

 private:
  friend class PageRef;

  /// Sentinel for "not linked" in the intrusive LRU list.
  static constexpr size_t kNullFrame = SIZE_MAX;

  struct Frame {
    bool occupied = false;
    bool dirty = false;
    bool in_lru = false;
    uint32_t file_id = 0;
    uint32_t page_no = 0;
    uint32_t slice = 0;
    uint32_t pins = 0;
    /// The whole page, header included, allocated on the frame's first
    /// use and reused by every page it holds after: a fault preads
    /// straight into it and a writeback writes it in place. The payload
    /// is payload_bytes bytes at page + PageFile::kHeaderBytes.
    std::vector<uint8_t> page;
    uint32_t payload_bytes = 0;
    /// Intrusive LRU links (frame indices); valid iff in_lru. An
    /// index-linked list instead of std::list<size_t> keeps every LRU
    /// touch allocation-free — hot-path Pin/Unpin never hits the heap.
    size_t lru_prev = kNullFrame;
    size_t lru_next = kNullFrame;
  };

  explicit BufferPool(const BufferPoolOptions& options);

  Result<size_t> FaultLocked(uint32_t file_id, uint32_t page_no)
      EBI_REQUIRES(mu_);
  /// Sizes frame `frame`'s page buffer for `file` (a no-op after the
  /// frame's first use).
  void SizeFrameLocked(size_t frame, const PageFile& file) EBI_REQUIRES(mu_);
  /// Frame `frame`'s payload bytes.
  const uint8_t* PayloadLocked(size_t frame) const EBI_REQUIRES(mu_);
  Result<size_t> FreeFrameLocked() EBI_REQUIRES(mu_);
  Status WritebackLocked(size_t frame) EBI_REQUIRES(mu_);
  void TouchLocked(size_t frame) EBI_REQUIRES(mu_);
  void PinFrameLocked(size_t frame) EBI_REQUIRES(mu_);
  void UnpinFrame(size_t frame) EBI_EXCLUDES(mu_);
  /// Intrusive LRU list ops (LRU at head, MRU at tail).
  void LruPushBackLocked(size_t frame) EBI_REQUIRES(mu_);
  void LruRemoveLocked(size_t frame) EBI_REQUIRES(mu_);
  /// Hit-or-fault lookup shared by Pin and ReadRange: returns the frame
  /// holding (file_id, page_no), counting a hit or a miss.
  Result<size_t> LookupLocked(uint32_t file_id, uint32_t page_no)
      EBI_REQUIRES(mu_);

  const BufferPoolOptions options_;
  mutable Mutex mu_{lock_rank::kBufferPool, "BufferPool::mu_"};
  std::vector<PageFile*> files_ EBI_GUARDED_BY(mu_);
  std::vector<Frame> frames_ EBI_GUARDED_BY(mu_);
  /// Intrusive list of unpinned occupied frames; head is the eviction
  /// victim, tail the most recently used.
  size_t lru_head_ EBI_GUARDED_BY(mu_) = kNullFrame;
  size_t lru_tail_ EBI_GUARDED_BY(mu_) = kNullFrame;
  std::vector<size_t> free_frames_ EBI_GUARDED_BY(mu_);
  std::unordered_map<uint64_t, size_t> table_
      EBI_GUARDED_BY(mu_);  // (file_id<<32|page_no).
  BufferPoolStats stats_ EBI_GUARDED_BY(mu_);

  /// Outstanding async prefetch tasks; the destructor drains them so a
  /// worker never touches a dead pool.
  CondVar prefetch_cv_;
  size_t outstanding_prefetches_ EBI_GUARDED_BY(mu_) = 0;
};

}  // namespace engine
}  // namespace ebi

#endif  // EBI_STORAGE_ENGINE_BUFFER_POOL_H_
