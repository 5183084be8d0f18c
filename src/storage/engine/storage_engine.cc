#include "storage/engine/storage_engine.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <utility>

#include "storage/engine/crc32.h"
#include "util/stored_bitmap_io.h"

#include <unistd.h>

namespace ebi {
namespace engine {

namespace {

constexpr uint32_t kMapMagic = 0x50414D45;  // "EMAP" LE.

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

uint32_t GetU32(const uint8_t* at) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(at[i]) << (8 * i);
  }
  return v;
}

uint64_t GetU64(const uint8_t* at) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(at[i]) << (8 * i);
  }
  return v;
}

/// Pages an extent's payload occupies (an empty payload still owns one).
uint32_t PagesUsed(const SliceExtent& extent, size_t capacity) {
  return static_cast<uint32_t>(
      extent.payload_bytes == 0
          ? 1
          : (extent.payload_bytes + capacity - 1) / capacity);
}

std::string MapPath(const std::string& path) { return path + ".map"; }
std::string MapTmpPath(const std::string& path) { return path + ".map.tmp"; }

/// Serializes a slice through the util/stored_bitmap_io codec, so the
/// hardening of LoadStoredBitmap (truncation/garbage rejection) covers
/// the engine's pages too.
Result<std::string> SerializeSlice(const BitVector& bits) {
  std::ostringstream out;
  EBI_RETURN_IF_ERROR(SaveStoredBitmap(out, bits));
  return std::move(out).str();
}

}  // namespace

Result<std::unique_ptr<StorageEngine>> StorageEngine::Open(
    const std::string& path, const StorageEngineOptions& options) {
  if (options.pool_pages == 0) {
    return Status::InvalidArgument(
        "StorageEngine: pool_pages must be positive");
  }
  PageFileOptions file_options;
  file_options.page_size = options.page_size;
  file_options.truncate = !options.recover;
  file_options.fail_after_page_writes = options.fail_after_page_writes;
  EBI_ASSIGN_OR_RETURN(PageFile file, PageFile::Open(path, file_options));

  std::unique_ptr<StorageEngine> engine(
      new StorageEngine(path, options, std::move(file)));
  // The pool is created over the file in its final place.
  BufferPoolOptions pool_options;
  pool_options.capacity_pages = options.pool_pages;
  pool_options.io = options.io;
  EBI_ASSIGN_OR_RETURN(engine->pool_,
                       BufferPool::Create(&engine->file_, pool_options));
  if (options.recover) {
    EBI_RETURN_IF_ERROR(engine->LoadMap());
  }
  return engine;
}

StorageEngine::StorageEngine(std::string path,
                             const StorageEngineOptions& options,
                             PageFile file)
    : path_(std::move(path)), options_(options), file_(std::move(file)) {}

StorageEngine::~StorageEngine() {
  // Scratch engines remove their on-disk artifacts.
  if (options_.remove_on_close) {
    std::remove(path_.c_str());
    std::remove(MapPath(path_).c_str());
    std::remove(MapTmpPath(path_).c_str());
  }
}

Result<SliceExtent> StorageEngine::WriteExtentLocked(
    const BitVector& bits, SliceId id, SliceExtent* reuse) {
  EBI_ASSIGN_OR_RETURN(const std::string payload, SerializeSlice(bits));
  const size_t capacity = file_.PayloadCapacity();
  const uint32_t pages_needed = static_cast<uint32_t>(
      payload.empty() ? 1 : (payload.size() + capacity - 1) / capacity);

  SliceExtent extent;
  // An extent the committed sidecar may name relocates (committed_pages_).
  if (reuse != nullptr && pages_needed <= reuse->num_pages &&
      reuse->first_page >= committed_pages_) {
    extent = *reuse;
  } else {
    extent.first_page = file_.Allocate(pages_needed);
    extent.num_pages = pages_needed;
  }
  extent.payload_bytes = payload.size();

  const auto* bytes = reinterpret_cast<const uint8_t*>(payload.data());
  size_t remaining = payload.size();
  for (uint32_t p = 0; p < pages_needed; ++p) {
    const size_t chunk = remaining < capacity ? remaining : capacity;
    EBI_RETURN_IF_ERROR(
        pool_->WriteThrough(extent.first_page + p, id, bytes, chunk));
    bytes += chunk;
    remaining -= chunk;
  }
  return extent;
}

Result<StorageEngine::SliceId> StorageEngine::PutSlice(
    const BitVector& bits) {
  const MutexLock lock(mu_);
  const SliceId id = static_cast<SliceId>(extents_.size());
  EBI_ASSIGN_OR_RETURN(const SliceExtent extent,
                       WriteExtentLocked(bits, id, nullptr));
  extents_.push_back(extent);
  return id;
}

Status StorageEngine::UpdateSlice(SliceId id, const BitVector& bits) {
  const MutexLock lock(mu_);
  if (id >= extents_.size()) {
    return Status::OutOfRange("StorageEngine: slice id out of range");
  }
  EBI_ASSIGN_OR_RETURN(const SliceExtent extent,
                       WriteExtentLocked(bits, id, &extents_[id]));
  extents_[id] = extent;
  return Status::OK();
}

Status StorageEngine::ExtentOf(SliceId id, SliceExtent* extent,
                               uint32_t* pages_used) const {
  const MutexLock lock(mu_);
  if (id >= extents_.size()) {
    return Status::OutOfRange("StorageEngine: slice id out of range");
  }
  *extent = extents_[id];
  *pages_used = PagesUsed(*extent, file_.PayloadCapacity());
  return Status::OK();
}

Result<BitVector> StorageEngine::GetSlice(SliceId id,
                                          size_t* pages_faulted) {
  EBI_ASSIGN_OR_RETURN(SliceReader reader, ReadSlice(id));
  // A slice payload is the codec's header followed by whole words.
  const uint64_t payload = reader.extent_bytes_;
  if (payload < kPlainStoredHeaderBytes ||
      (payload - kPlainStoredHeaderBytes) % 8 != 0) {
    return Status::Internal("StorageEngine: slice " + std::to_string(id) +
                            " extent holds " + std::to_string(payload) +
                            " bytes, not a whole slice payload");
  }
  // The header lands aside and the words straight in the slice's word
  // array, sized from the checksummed extent map; whole pages copy once.
  uint8_t header[kPlainStoredHeaderBytes];
  std::vector<uint64_t> words((payload - kPlainStoredHeaderBytes) / 8);
  EBI_RETURN_IF_ERROR(reader.Read(header, sizeof(header)));
  EBI_RETURN_IF_ERROR(reader.Read(words.data(), words.size() * 8));
  EBI_RETURN_IF_ERROR(reader.Finish());
  if (pages_faulted != nullptr) {
    *pages_faulted = reader.pages_faulted();
  }
  EBI_ASSIGN_OR_RETURN(const uint64_t bits, ParsePlainStoredHeader(header));
  return BitVectorFromLittleEndian(bits, std::move(words));
}

Result<SliceReader> StorageEngine::ReadSlice(SliceId id) {
  SliceExtent extent;
  uint32_t pages_used = 0;
  EBI_RETURN_IF_ERROR(ExtentOf(id, &extent, &pages_used));
  return SliceReader(pool_.get(), id, extent, pages_used,
                     file_.PayloadCapacity());
}

SliceReader::SliceReader(BufferPool* pool, uint32_t slice,
                         const SliceExtent& extent, uint32_t pages_used,
                         size_t page_capacity)
    : pool_(pool),
      slice_(slice),
      next_page_(extent.first_page),
      end_page_(extent.first_page + pages_used),
      extent_bytes_(extent.payload_bytes),
      page_capacity_(page_capacity),
      // Every byte is written by CopyPage before it is read, so the
      // buffer is left uninitialized.
      staging_(std::make_unique_for_overwrite<uint8_t[]>(page_capacity)) {}

Result<size_t> SliceReader::CopyNextPage(uint8_t* dst) {
  if (next_page_ == end_page_) {
    return Status::Internal("StorageEngine: slice " + std::to_string(slice_) +
                            " pages end after " +
                            std::to_string(read_total_) +
                            " bytes, short of the read");
  }
  bool faulted = false;
  EBI_ASSIGN_OR_RETURN(const size_t bytes,
                       pool_->CopyPage(next_page_, dst, &faulted));
  ++next_page_;
  read_total_ += bytes;
  pages_faulted_ += faulted ? 1 : 0;
  return bytes;
}

Status SliceReader::Read(void* dst, size_t bytes) {
  auto* out = static_cast<uint8_t*>(dst);
  while (bytes > 0) {
    if (offset_ == staged_) {
      if (bytes >= page_capacity_) {
        // Nothing staged and room for a whole page: copy it straight
        // into `dst`, skipping the staging copy.
        EBI_ASSIGN_OR_RETURN(const size_t copied, CopyNextPage(out));
        out += copied;
        bytes -= copied;
        continue;
      }
      EBI_ASSIGN_OR_RETURN(staged_, CopyNextPage(staging_.get()));
      offset_ = 0;
    }
    const size_t chunk = std::min(bytes, staged_ - offset_);
    std::memcpy(out, staging_.get() + offset_, chunk);
    out += chunk;
    offset_ += chunk;
    bytes -= chunk;
  }
  return Status::OK();
}

Status SliceReader::Finish() const {
  if (offset_ != staged_ || next_page_ != end_page_) {
    return Status::Internal("StorageEngine: slice " + std::to_string(slice_) +
                            " pages hold bytes past the end of the read");
  }
  if (read_total_ != extent_bytes_) {
    return Status::Internal(
        "StorageEngine: slice " + std::to_string(slice_) + " pages hold " +
        std::to_string(read_total_) + " bytes, extent map says " +
        std::to_string(extent_bytes_));
  }
  return Status::OK();
}

Result<size_t> StorageEngine::SliceBytes(SliceId id) const {
  const MutexLock lock(mu_);
  if (id >= extents_.size()) {
    return Status::OutOfRange("StorageEngine: slice id out of range");
  }
  return static_cast<size_t>(extents_[id].payload_bytes);
}

Result<uint32_t> StorageEngine::SlicePages(SliceId id) const {
  SliceExtent extent;
  uint32_t pages_used = 0;
  EBI_RETURN_IF_ERROR(ExtentOf(id, &extent, &pages_used));
  return pages_used;
}

Status StorageEngine::VerifySlice(SliceId id) {
  // Verification audits the *on-disk* bytes, so dirty frames must reach
  // the file first.
  EBI_RETURN_IF_ERROR(pool_->Flush());
  SliceExtent extent;
  uint32_t pages_used = 0;
  EBI_RETURN_IF_ERROR(ExtentOf(id, &extent, &pages_used));
  std::vector<uint8_t> page(file_.page_size());
  std::string payload;
  payload.reserve(extent.payload_bytes);
  for (uint32_t p = 0; p < pages_used; ++p) {
    EBI_RETURN_IF_ERROR(file_.ReadPage(extent.first_page + p, page.data()));
    const uint32_t slice = PageFile::SliceTag(page.data());
    if (slice != id) {
      return Status::Internal("StorageEngine: page " +
                              std::to_string(extent.first_page + p) +
                              " is tagged for slice " + std::to_string(slice) +
                              ", expected " + std::to_string(id));
    }
    payload.append(
        reinterpret_cast<const char*>(page.data() + PageFile::kHeaderBytes),
        PageFile::PayloadBytes(page.data()));
  }
  if (payload.size() != extent.payload_bytes) {
    return Status::Internal("StorageEngine: slice " + std::to_string(id) +
                            " on-disk size mismatch");
  }
  return LoadStoredBitmap(reinterpret_cast<const uint8_t*>(payload.data()),
                          payload.size())
      .status();
}

size_t StorageEngine::NumSlices() const {
  const MutexLock lock(mu_);
  return extents_.size();
}

Status StorageEngine::PersistMapLocked() {
  std::vector<uint8_t> body;
  PutU32(&body, static_cast<uint32_t>(extents_.size()));
  for (const SliceExtent& extent : extents_) {
    PutU32(&body, extent.first_page);
    PutU32(&body, extent.num_pages);
    PutU64(&body, extent.payload_bytes);
  }
  std::vector<uint8_t> blob;
  blob.reserve(8 + body.size());
  PutU32(&blob, kMapMagic);
  PutU32(&blob, Crc32(body.data(), body.size()));
  blob.insert(blob.end(), body.begin(), body.end());

  // tmp + fsync + rename: the sidecar flips atomically from the old map
  // to the new one; a crash in between leaves the old map valid.
  const std::string tmp = MapTmpPath(path_);
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (out == nullptr) {
    return Status::Internal("StorageEngine: cannot open " + tmp);
  }
  const bool wrote =
      std::fwrite(blob.data(), 1, blob.size(), out) == blob.size();
  const bool flushed = wrote && std::fflush(out) == 0;
  const bool synced = flushed && fsync(fileno(out)) == 0;
  std::fclose(out);
  if (!synced) {
    return Status::Internal("StorageEngine: cannot persist " + tmp);
  }
  if (options_.fail_before_map_rename) {
    return Status::Internal(
        "StorageEngine: fault injection crashed before the sidecar rename");
  }
  if (std::rename(tmp.c_str(), MapPath(path_).c_str()) != 0) {
    return Status::Internal("StorageEngine: cannot rename " + tmp);
  }
  return Status::OK();
}

Status StorageEngine::LoadMap() {
  const MutexLock lock(mu_);
  std::FILE* in = std::fopen(MapPath(path_).c_str(), "rb");
  if (in == nullptr) {
    // Never synced: an empty engine is the correct recovered state.
    extents_.clear();
    return Status::OK();
  }
  std::vector<uint8_t> blob;
  uint8_t chunk[4096];
  size_t got;
  while ((got = std::fread(chunk, 1, sizeof(chunk), in)) > 0) {
    blob.insert(blob.end(), chunk, chunk + got);
  }
  std::fclose(in);
  if (blob.size() < 12 || GetU32(blob.data()) != kMapMagic) {
    return Status::Internal("StorageEngine: corrupt extent map sidecar");
  }
  const uint32_t want_crc = GetU32(blob.data() + 4);
  if (Crc32(blob.data() + 8, blob.size() - 8) != want_crc) {
    return Status::Internal(
        "StorageEngine: extent map sidecar checksum mismatch");
  }
  const uint32_t count = GetU32(blob.data() + 8);
  if (blob.size() != 12 + static_cast<size_t>(count) * 16) {
    return Status::Internal("StorageEngine: extent map sidecar truncated");
  }
  extents_.clear();
  extents_.reserve(count);
  const uint8_t* at = blob.data() + 12;
  for (uint32_t i = 0; i < count; ++i) {
    SliceExtent extent;
    extent.first_page = GetU32(at);
    extent.num_pages = GetU32(at + 4);
    extent.payload_bytes = GetU64(at + 8);
    extents_.push_back(extent);
    at += 16;
  }
  committed_pages_ = file_.NumPages();
  return Status::OK();
}

Status StorageEngine::Sync() {
  EBI_RETURN_IF_ERROR(pool_->Flush());
  EBI_RETURN_IF_ERROR(file_.Sync());
  const MutexLock lock(mu_);
  EBI_RETURN_IF_ERROR(PersistMapLocked());
  committed_pages_ = file_.NumPages();
  return Status::OK();
}

}  // namespace engine
}  // namespace ebi
