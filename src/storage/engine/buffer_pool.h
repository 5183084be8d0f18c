#ifndef EBI_STORAGE_ENGINE_BUFFER_POOL_H_
#define EBI_STORAGE_ENGINE_BUFFER_POOL_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "storage/engine/page_file.h"
#include "storage/io_accountant.h"
#include "util/status.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace ebi {
namespace engine {

/// Cumulative counters for one pool instance (mirrored into the global
/// MetricsRegistry as ebi.buffer_pool.*).
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t writebacks = 0;
};

struct BufferPoolOptions {
  /// Frame-table capacity in pages. Must be > 0.
  size_t capacity_pages = 64;
  /// When set, every physical page read/write is charged here.
  IoAccountant* io = nullptr;
};

/// Page-granular cache over one PageFile (DESIGN.md §12): a frame table
/// keyed by page number, strict-LRU eviction, and dirty-page writeback
/// on eviction or Flush. All physical I/O flows through the file, all
/// accounting through the configured IoAccountant: a hit charges
/// nothing, a miss charges exactly one page and the page's stored
/// payload bytes.
///
/// Thread-safe; one mutex guards the frame table. Nothing is handed out
/// that outlives a call: CopyPage copies a payload out under the lock,
/// so every occupied frame is evictable and the pool works at any
/// capacity.
class BufferPool {
 public:
  /// A pool over `file`, which the caller keeps and which must outlive
  /// the pool.
  static Result<std::unique_ptr<BufferPool>> Create(
      PageFile* file, const BufferPoolOptions& options);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Copies the payload of page `page_no` into `dst` (room for the
  /// file's PayloadCapacity() bytes) under a single lock acquisition —
  /// the one read path (StorageEngine::SliceReader). A hit touches the
  /// page's LRU position; a miss faults it from disk, evicting the LRU
  /// frame (written back first if dirty). Returns the payload length;
  /// `*faulted` says whether the page missed.
  [[nodiscard]] Result<size_t> CopyPage(uint32_t page_no, uint8_t* dst,
                                        bool* faulted);

  /// Installs fresh payload bytes for `page_no` directly into a dirty
  /// frame — the write path. The bytes reach disk on eviction or Flush,
  /// not before.
  [[nodiscard]] Status WriteThrough(uint32_t page_no, uint32_t slice,
                                    const uint8_t* data, size_t bytes);

  /// Writes back every dirty frame without evicting.
  [[nodiscard]] Status Flush();

  BufferPoolStats stats() const;
  /// Frames currently holding a page.
  size_t Resident() const;
  size_t capacity_pages() const { return options_.capacity_pages; }

 private:
  /// Sentinel for "not linked" in the intrusive LRU list.
  static constexpr size_t kNullFrame = SIZE_MAX;

  struct Frame {
    bool occupied = false;
    bool dirty = false;
    uint32_t page_no = 0;
    uint32_t slice = 0;
    /// The whole page, header included, allocated on the frame's first
    /// use and reused by every page it holds after: a fault preads
    /// straight into it and a writeback writes it in place. The payload
    /// is payload_bytes bytes at page + PageFile::kHeaderBytes.
    std::vector<uint8_t> page;
    uint32_t payload_bytes = 0;
    /// Intrusive LRU links (frame indices); every occupied frame is
    /// linked. An index-linked list instead of std::list<size_t> keeps
    /// every LRU touch allocation-free.
    size_t lru_prev = kNullFrame;
    size_t lru_next = kNullFrame;
  };

  BufferPool(PageFile* file, const BufferPoolOptions& options);

  /// Returns the frame holding `page_no`, counting a hit or a miss.
  Result<size_t> LookupLocked(uint32_t page_no) EBI_REQUIRES(mu_);
  Result<size_t> FaultLocked(uint32_t page_no) EBI_REQUIRES(mu_);
  /// A free frame with a page-size buffer, evicting the LRU frame when
  /// none is free.
  Result<size_t> FreeFrameLocked() EBI_REQUIRES(mu_);
  Status WritebackLocked(size_t frame) EBI_REQUIRES(mu_);
  void TouchLocked(size_t frame) EBI_REQUIRES(mu_);
  /// Intrusive LRU list ops (LRU at head, MRU at tail).
  void LruPushBackLocked(size_t frame) EBI_REQUIRES(mu_);
  void LruRemoveLocked(size_t frame) EBI_REQUIRES(mu_);

  const BufferPoolOptions options_;
  PageFile* const file_;
  mutable Mutex mu_{lock_rank::kBufferPool, "BufferPool::mu_"};
  std::vector<Frame> frames_ EBI_GUARDED_BY(mu_);
  /// Intrusive list of occupied frames; head is the eviction victim,
  /// tail the most recently used.
  size_t lru_head_ EBI_GUARDED_BY(mu_) = kNullFrame;
  size_t lru_tail_ EBI_GUARDED_BY(mu_) = kNullFrame;
  std::vector<size_t> free_frames_ EBI_GUARDED_BY(mu_);
  std::unordered_map<uint32_t, size_t> table_
      EBI_GUARDED_BY(mu_);  // page_no -> frame.
  BufferPoolStats stats_ EBI_GUARDED_BY(mu_);
};

}  // namespace engine
}  // namespace ebi

#endif  // EBI_STORAGE_ENGINE_BUFFER_POOL_H_
