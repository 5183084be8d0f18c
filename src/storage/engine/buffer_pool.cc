#include "storage/engine/buffer_pool.h"

#include <cstring>

#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace ebi {
namespace engine {

Result<std::unique_ptr<BufferPool>> BufferPool::Create(
    PageFile* file, const BufferPoolOptions& options) {
  if (options.capacity_pages == 0) {
    return Status::InvalidArgument(
        "BufferPool: capacity_pages must be positive");
  }
  return std::unique_ptr<BufferPool>(new BufferPool(file, options));
}

BufferPool::BufferPool(PageFile* file, const BufferPoolOptions& options)
    : options_(options), file_(file) {
  const MutexLock lock(mu_);
  frames_.resize(options_.capacity_pages);
  free_frames_.reserve(options_.capacity_pages);
  for (size_t i = options_.capacity_pages; i > 0; --i) {
    free_frames_.push_back(i - 1);
  }
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
}

void BufferPool::TouchLocked(size_t frame) {
  if (lru_tail_ != frame) {
    LruRemoveLocked(frame);
    LruPushBackLocked(frame);
  }
}

Status BufferPool::WritebackLocked(size_t frame) {
  Frame& f = frames_[frame];
  if (!f.dirty) {
    return Status::OK();
  }
  EBI_RETURN_IF_ERROR(file_->WritePageInPlace(f.page_no, f.slice,
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
  size_t frame;
  if (!free_frames_.empty()) {
    frame = free_frames_.back();
    free_frames_.pop_back();
  } else {
    // Strict LRU: the victim is the least-recently-touched frame. With
    // no free frame every frame is occupied, so the list is non-empty.
    frame = lru_head_;
    EBI_RETURN_IF_ERROR(WritebackLocked(frame));
    LruRemoveLocked(frame);
    table_.erase(frames_[frame].page_no);
    frames_[frame].occupied = false;
    ++stats_.evictions;
    static obs::Counter* evictions =
        obs::MetricsRegistry::Global().GetCounter(obs::kMetricBufferPoolEvictions);
    evictions->Increment();
  }
  std::vector<uint8_t>& page = frames_[frame].page;
  if (page.size() < file_->page_size()) {
    page.resize(file_->page_size());
  }
  return frame;
}

Result<size_t> BufferPool::FaultLocked(uint32_t page_no) {
  EBI_ASSIGN_OR_RETURN(const size_t frame, FreeFrameLocked());
  Frame& f = frames_[frame];
  const Status read = file_->ReadPage(page_no, f.page.data());
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
  f.page_no = page_no;
  LruPushBackLocked(frame);
  table_[page_no] = frame;
  ++stats_.misses;
  static obs::Counter* misses =
      obs::MetricsRegistry::Global().GetCounter(obs::kMetricBufferPoolMisses);
  misses->Increment();
  return frame;
}

Result<size_t> BufferPool::LookupLocked(uint32_t page_no) {
  const auto it = table_.find(page_no);
  if (it != table_.end()) {
    ++stats_.hits;
    static obs::Counter* hits =
        obs::MetricsRegistry::Global().GetCounter(obs::kMetricBufferPoolHits);
    hits->Increment();
    TouchLocked(it->second);
    return it->second;
  }
  return FaultLocked(page_no);
}

Result<size_t> BufferPool::CopyPage(uint32_t page_no, uint8_t* dst,
                                    bool* faulted) {
  const MutexLock lock(mu_);
  const uint64_t misses_before = stats_.misses;
  EBI_ASSIGN_OR_RETURN(const size_t frame, LookupLocked(page_no));
  const Frame& f = frames_[frame];
  std::memcpy(dst, f.page.data() + PageFile::kHeaderBytes, f.payload_bytes);
  *faulted = stats_.misses != misses_before;
  return static_cast<size_t>(f.payload_bytes);
}

Status BufferPool::WriteThrough(uint32_t page_no, uint32_t slice,
                                const uint8_t* data, size_t bytes) {
  if (bytes > file_->PayloadCapacity()) {
    return Status::InvalidArgument(
        "BufferPool: payload exceeds page capacity");
  }
  const MutexLock lock(mu_);
  const auto it = table_.find(page_no);
  size_t frame;
  if (it != table_.end()) {
    frame = it->second;
    TouchLocked(frame);
  } else {
    EBI_ASSIGN_OR_RETURN(frame, FreeFrameLocked());
    frames_[frame].occupied = true;
    frames_[frame].page_no = page_no;
    LruPushBackLocked(frame);
    table_[page_no] = frame;
  }
  Frame& f = frames_[frame];
  f.slice = slice;
  if (bytes > 0) {
    std::memcpy(f.page.data() + PageFile::kHeaderBytes, data, bytes);
  }
  f.payload_bytes = static_cast<uint32_t>(bytes);
  f.dirty = true;
  return Status::OK();
}

Status BufferPool::Flush() {
  const MutexLock lock(mu_);
  for (size_t i = 0; i < frames_.size(); ++i) {
    if (frames_[i].occupied) {
      EBI_RETURN_IF_ERROR(WritebackLocked(i));
    }
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
