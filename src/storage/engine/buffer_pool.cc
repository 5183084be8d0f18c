#include "storage/engine/buffer_pool.h"

#include <cstring>
#include <utility>

#include "exec/thread_pool.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace ebi {
namespace engine {

namespace {

uint64_t FrameKey(uint32_t file_id, uint32_t page_no) {
  return (static_cast<uint64_t>(file_id) << 32) | page_no;
}

}  // namespace

// --- PageRef -------------------------------------------------------------

PageRef::PageRef(PageRef&& other) noexcept
    : pool_(other.pool_), frame_(other.frame_) {
  other.pool_ = nullptr;
}

PageRef& PageRef::operator=(PageRef&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    other.pool_ = nullptr;
  }
  return *this;
}

PageRef::~PageRef() { Release(); }

void PageRef::Release() {
  if (pool_ != nullptr) {
    pool_->UnpinFrame(frame_);
    pool_ = nullptr;
  }
}

const uint8_t* PageRef::data() const {
  return pool_->frames_[frame_].page.data() + PageFile::kHeaderBytes;
}

size_t PageRef::size() const { return pool_->frames_[frame_].payload_bytes; }

uint32_t PageRef::slice() const { return pool_->frames_[frame_].slice; }

void PageRef::MarkDirty() {
  const MutexLock lock(pool_->mu_);
  pool_->frames_[frame_].dirty = true;
}

// --- BufferPool ----------------------------------------------------------

Result<std::unique_ptr<BufferPool>> BufferPool::Create(
    const BufferPoolOptions& options) {
  if (options.capacity_pages == 0) {
    return Status::InvalidArgument(
        "BufferPool: capacity_pages must be positive");
  }
  return std::unique_ptr<BufferPool>(new BufferPool(options));
}

BufferPool::BufferPool(const BufferPoolOptions& options) : options_(options) {
  const MutexLock lock(mu_);
  frames_.resize(options_.capacity_pages);
  free_frames_.reserve(options_.capacity_pages);
  for (size_t i = options_.capacity_pages; i > 0; --i) {
    free_frames_.push_back(i - 1);
  }
}

BufferPool::~BufferPool() {
  MutexLock lock(mu_);
  while (outstanding_prefetches_ != 0) {
    prefetch_cv_.Wait(lock);
  }
}

uint32_t BufferPool::Register(PageFile* file) {
  const MutexLock lock(mu_);
  files_.push_back(file);
  return static_cast<uint32_t>(files_.size() - 1);
}

void BufferPool::LruPushBackLocked(size_t frame) {
  Frame& f = frames_[frame];
  f.lru_prev = lru_tail_;
  f.lru_next = kNullFrame;
  if (lru_tail_ != kNullFrame) {
    frames_[lru_tail_].lru_next = frame;
  } else {
    lru_head_ = frame;
  }
  lru_tail_ = frame;
  f.in_lru = true;
}

void BufferPool::LruRemoveLocked(size_t frame) {
  Frame& f = frames_[frame];
  if (f.lru_prev != kNullFrame) {
    frames_[f.lru_prev].lru_next = f.lru_next;
  } else {
    lru_head_ = f.lru_next;
  }
  if (f.lru_next != kNullFrame) {
    frames_[f.lru_next].lru_prev = f.lru_prev;
  } else {
    lru_tail_ = f.lru_prev;
  }
  f.lru_prev = kNullFrame;
  f.lru_next = kNullFrame;
  f.in_lru = false;
}

void BufferPool::TouchLocked(size_t frame) {
  Frame& f = frames_[frame];
  if (f.in_lru && lru_tail_ != frame) {
    LruRemoveLocked(frame);
    LruPushBackLocked(frame);
  }
}

void BufferPool::PinFrameLocked(size_t frame) {
  Frame& f = frames_[frame];
  if (f.pins == 0 && f.in_lru) {
    LruRemoveLocked(frame);
  }
  ++f.pins;
}

void BufferPool::UnpinFrame(size_t frame) {
  const MutexLock lock(mu_);
  Frame& f = frames_[frame];
  --f.pins;
  if (f.pins == 0 && f.occupied) {
    LruPushBackLocked(frame);
  }
}

Status BufferPool::WritebackLocked(size_t frame) {
  Frame& f = frames_[frame];
  if (!f.dirty) {
    return Status::OK();
  }
  PageFile* file = files_[f.file_id];
  EBI_RETURN_IF_ERROR(file->WritePageInPlace(f.page_no, f.slice,
                                             f.page.data(), f.payload_bytes));
  if (options_.io != nullptr) {
    options_.io->ChargePageWrite(f.payload_bytes);
  }
  f.dirty = false;
  ++stats_.writebacks;
  static obs::Counter* writebacks =
      obs::MetricsRegistry::Global().GetCounter(obs::kMetricBufferPoolWritebacks);
  writebacks->Increment();
  return Status::OK();
}

Result<size_t> BufferPool::FreeFrameLocked() {
  if (!free_frames_.empty()) {
    const size_t frame = free_frames_.back();
    free_frames_.pop_back();
    return frame;
  }
  if (lru_head_ == kNullFrame) {
    return Status::FailedPrecondition(
        "BufferPool: every frame is pinned; cannot evict");
  }
  // Strict LRU: the victim is the least-recently-touched unpinned frame.
  const size_t victim = lru_head_;
  EBI_RETURN_IF_ERROR(WritebackLocked(victim));
  LruRemoveLocked(victim);
  Frame& f = frames_[victim];
  table_.erase(FrameKey(f.file_id, f.page_no));
  f.occupied = false;
  ++stats_.evictions;
  static obs::Counter* evictions =
      obs::MetricsRegistry::Global().GetCounter(obs::kMetricBufferPoolEvictions);
  evictions->Increment();
  return victim;
}

Result<size_t> BufferPool::FaultLocked(uint32_t file_id, uint32_t page_no) {
  if (file_id >= files_.size()) {
    return Status::InvalidArgument("BufferPool: unknown file id " +
                                   std::to_string(file_id));
  }
  EBI_ASSIGN_OR_RETURN(const size_t frame, FreeFrameLocked());
  PageFile* file = files_[file_id];
  SizeFrameLocked(frame, *file);
  Frame& f = frames_[frame];
  const Status read = file->ReadPage(page_no, f.page.data());
  if (!read.ok()) {
    free_frames_.push_back(frame);
    return read;
  }
  f.payload_bytes = PageFile::PayloadBytes(f.page.data());
  f.slice = PageFile::SliceTag(f.page.data());
  if (options_.io != nullptr) {
    // One physical page, exactly the stored payload bytes: faulting a
    // whole extent therefore sums to the slice's StoredBytes.
    options_.io->ChargePageRead(f.payload_bytes);
  }
  f.occupied = true;
  f.dirty = false;
  f.file_id = file_id;
  f.page_no = page_no;
  f.pins = 0;
  // Freshly faulted frames enter the LRU immediately so they are
  // evictable even when the caller never pins them (ReadRange,
  // Prefetch); Pin unlinks the frame right after when it takes a pin.
  LruPushBackLocked(frame);
  table_[FrameKey(file_id, page_no)] = frame;
  ++stats_.misses;
  static obs::Counter* misses =
      obs::MetricsRegistry::Global().GetCounter(obs::kMetricBufferPoolMisses);
  misses->Increment();
  return frame;
}

void BufferPool::SizeFrameLocked(size_t frame, const PageFile& file) {
  std::vector<uint8_t>& page = frames_[frame].page;
  if (page.size() < file.page_size()) {
    page.resize(file.page_size());
  }
}

const uint8_t* BufferPool::PayloadLocked(size_t frame) const {
  return frames_[frame].page.data() + PageFile::kHeaderBytes;
}

Result<size_t> BufferPool::LookupLocked(uint32_t file_id, uint32_t page_no) {
  const auto it = table_.find(FrameKey(file_id, page_no));
  if (it != table_.end()) {
    ++stats_.hits;
    static obs::Counter* hits =
        obs::MetricsRegistry::Global().GetCounter(obs::kMetricBufferPoolHits);
    hits->Increment();
    TouchLocked(it->second);
    return it->second;
  }
  return FaultLocked(file_id, page_no);
}

Result<PageRef> BufferPool::Pin(uint32_t file_id, uint32_t page_no) {
  const MutexLock lock(mu_);
  EBI_ASSIGN_OR_RETURN(const size_t frame, LookupLocked(file_id, page_no));
  PinFrameLocked(frame);
  return PageRef(this, frame);
}

Status BufferPool::ReadRange(
    uint32_t file_id, uint32_t first_page, uint32_t count,
    const std::function<void(const uint8_t*, size_t)>& sink,
    size_t* pages_faulted) {
  const MutexLock lock(mu_);
  const uint64_t misses_before = stats_.misses;
  for (uint32_t p = 0; p < count; ++p) {
    EBI_ASSIGN_OR_RETURN(const size_t frame,
                         LookupLocked(file_id, first_page + p));
    sink(PayloadLocked(frame), frames_[frame].payload_bytes);
  }
  if (pages_faulted != nullptr) {
    *pages_faulted = static_cast<size_t>(stats_.misses - misses_before);
  }
  return Status::OK();
}

Result<size_t> BufferPool::CopyPage(uint32_t file_id, uint32_t page_no,
                                    uint8_t* dst, bool* faulted) {
  const MutexLock lock(mu_);
  const uint64_t misses_before = stats_.misses;
  EBI_ASSIGN_OR_RETURN(const size_t frame, LookupLocked(file_id, page_no));
  const size_t bytes = frames_[frame].payload_bytes;
  std::memcpy(dst, PayloadLocked(frame), bytes);
  *faulted = stats_.misses != misses_before;
  return bytes;
}

Status BufferPool::WriteThrough(uint32_t file_id, uint32_t page_no,
                                uint32_t slice, const uint8_t* data,
                                size_t bytes) {
  const MutexLock lock(mu_);
  if (file_id >= files_.size()) {
    return Status::InvalidArgument("BufferPool: unknown file id " +
                                   std::to_string(file_id));
  }
  if (bytes > files_[file_id]->PayloadCapacity()) {
    return Status::InvalidArgument(
        "BufferPool: payload exceeds page capacity");
  }
  const auto it = table_.find(FrameKey(file_id, page_no));
  size_t frame;
  if (it != table_.end()) {
    frame = it->second;
    TouchLocked(frame);
  } else {
    EBI_ASSIGN_OR_RETURN(frame, FreeFrameLocked());
    Frame& f = frames_[frame];
    f.occupied = true;
    f.file_id = file_id;
    f.page_no = page_no;
    f.pins = 0;
    LruPushBackLocked(frame);
    table_[FrameKey(file_id, page_no)] = frame;
  }
  SizeFrameLocked(frame, *files_[file_id]);
  Frame& f = frames_[frame];
  f.slice = slice;
  if (bytes > 0) {
    std::memcpy(f.page.data() + PageFile::kHeaderBytes, data, bytes);
  }
  f.payload_bytes = static_cast<uint32_t>(bytes);
  f.dirty = true;
  return Status::OK();
}

void BufferPool::Prefetch(uint32_t file_id,
                          const std::vector<uint32_t>& pages) {
  static obs::Counter* prefetches =
      obs::MetricsRegistry::Global().GetCounter(obs::kMetricBufferPoolPrefetches);
  const auto warm = [this, file_id](uint32_t page_no) {
    const MutexLock lock(mu_);
    if (table_.count(FrameKey(file_id, page_no)) != 0) {
      return;  // Already resident; do not perturb LRU order.
    }
    // Best-effort: a failed prefetch is surfaced by the later Pin.
    // FaultLocked leaves the frame in the LRU, unpinned — exactly the
    // state a prefetched page should be in.
    Result<size_t> frame = FaultLocked(file_id, page_no);
    if (frame.ok()) {
      ++stats_.prefetches;
    }
  };
  if (options_.prefetch_pool == nullptr) {
    for (const uint32_t page_no : pages) {
      warm(page_no);
      prefetches->Increment();
    }
    return;
  }
  for (const uint32_t page_no : pages) {
    {
      const MutexLock lock(mu_);
      ++outstanding_prefetches_;
    }
    options_.prefetch_pool->Submit([this, warm, page_no] {
      warm(page_no);
      const MutexLock lock(mu_);
      --outstanding_prefetches_;
      prefetch_cv_.NotifyAll();
    });
    prefetches->Increment();
  }
}

Status BufferPool::Flush(uint32_t file_id) {
  const MutexLock lock(mu_);
  for (size_t i = 0; i < frames_.size(); ++i) {
    Frame& f = frames_[i];
    if (f.occupied && f.dirty &&
        (file_id == kAllFiles || f.file_id == file_id)) {
      EBI_RETURN_IF_ERROR(WritebackLocked(i));
    }
  }
  return Status::OK();
}

Status BufferPool::Evict(uint32_t file_id) {
  const MutexLock lock(mu_);
  for (size_t i = 0; i < frames_.size(); ++i) {
    Frame& f = frames_[i];
    if (!f.occupied || f.file_id != file_id) {
      continue;
    }
    if (f.pins > 0) {
      return Status::FailedPrecondition(
          "BufferPool: cannot evict pinned page " +
          std::to_string(f.page_no));
    }
    EBI_RETURN_IF_ERROR(WritebackLocked(i));
    if (f.in_lru) {
      LruRemoveLocked(i);
    }
    table_.erase(FrameKey(f.file_id, f.page_no));
    f.occupied = false;
    free_frames_.push_back(i);
  }
  return Status::OK();
}

BufferPoolStats BufferPool::stats() const {
  const MutexLock lock(mu_);
  return stats_;
}

size_t BufferPool::Resident() const {
  const MutexLock lock(mu_);
  return options_.capacity_pages - free_frames_.size();
}

}  // namespace engine
}  // namespace ebi
