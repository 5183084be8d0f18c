#include "storage/engine/storage_engine.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <limits>
#include <utility>

#include "obs/trace.h"
#include "storage/engine/crc32.h"

#include <unistd.h>

namespace ebi {
namespace engine {

namespace {

constexpr uint32_t kMapMagic = 0x50414D45;  // "EMAP" LE.
constexpr uint32_t kStoredMagic = 0x45424953;     // "EBIS" LE.
constexpr uint32_t kBitVectorMagic = 0x45424956;  // "EBIV" LE.
// The slice payload's format tag. Tags 1 (a run-length form) and 2
// (EWAH) held retired compressed formats: they stay unassigned, so old
// payloads are rejected as unknown instead of misread.
constexpr uint32_t kTagPlain = 0;

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

uint64_t WordCount(uint64_t bits) { return (bits + 63) / 64; }

/// Copies bytes [offset, offset + n) of a slice payload — `header`, then
/// `words` as little-endian bytes — to `dst`.
void CopyPayload(const uint8_t* header, const std::vector<uint64_t>& words,
                 uint64_t offset, size_t n, uint8_t* dst) {
  if (offset < kSliceHeaderBytes) {
    const auto head =
        static_cast<size_t>(std::min<uint64_t>(n, kSliceHeaderBytes - offset));
    std::memcpy(dst, header + offset, head);
    dst += head;
    offset += head;
    n -= head;
  }
  if (n == 0) {
    return;  // An empty slice's words may have no storage at all.
  }
  const uint64_t at = offset - kSliceHeaderBytes;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(dst, reinterpret_cast<const uint8_t*>(words.data()) + at, n);
  } else {
    for (size_t i = 0; i < n; ++i) {
      const uint64_t byte = at + i;
      dst[i] = static_cast<uint8_t>(words[byte / 8] >> (8 * (byte % 8)));
    }
  }
}

/// Converts `n` words copied verbatim from little-endian bytes to native
/// order, in place; a no-op on little-endian hosts.
void WordsFromLittleEndian(uint64_t* words, size_t n) {
  if constexpr (std::endian::native != std::endian::little) {
    for (size_t i = 0; i < n; ++i) {
      uint8_t bytes[8];
      std::memcpy(bytes, &words[i], 8);
      words[i] = GetU64(bytes);
    }
  }
}

/// Parses a slice payload's first kSliceHeaderBytes bytes and returns the
/// declared bit size. Sizes within 63 of 2^64 would wrap the word count
/// to 0, so they are rejected as corrupt.
Result<uint64_t> ParseSliceHeader(const uint8_t* header) {
  if (GetU32(header) != kStoredMagic || GetU32(header + 8) != kBitVectorMagic) {
    return Status::InvalidArgument("StorageEngine: bad slice payload magic");
  }
  if (GetU32(header + 4) != kTagPlain) {
    return Status::InvalidArgument(
        "StorageEngine: unknown slice format tag " +
        std::to_string(GetU32(header + 4)));
  }
  const uint64_t bits = GetU64(header + 12);
  if (bits > std::numeric_limits<uint64_t>::max() - 63) {
    return Status::InvalidArgument(
        "StorageEngine: declared size overflows the word count");
  }
  return bits;
}

/// A payload holds its header and exactly the declared size's words: a
/// byte count that says otherwise means a corrupt header or extent.
Status CheckPayloadBytes(uint32_t slice, uint64_t bits,
                         uint64_t payload_bytes) {
  if (payload_bytes != kSliceHeaderBytes + 8 * WordCount(bits)) {
    return Status::InvalidArgument(
        "StorageEngine: slice " + std::to_string(slice) + " payload of " +
        std::to_string(payload_bytes) + " bytes does not hold the declared " +
        std::to_string(bits) + " bits");
  }
  return Status::OK();
}

/// Bits past the declared size in the last word must be zero (BitVector's
/// tail invariant holds on every write); set padding bits mean corruption.
Status CheckPadding(uint64_t bits, uint64_t last_word) {
  if (bits % 64 != 0 && (last_word >> (bits % 64)) != 0) {
    return Status::InvalidArgument(
        "StorageEngine: set padding bits past the declared size");
  }
  return Status::OK();
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
  std::vector<uint8_t> header;
  header.reserve(kSliceHeaderBytes);
  PutU32(&header, kStoredMagic);
  PutU32(&header, kTagPlain);
  PutU32(&header, kBitVectorMagic);
  PutU64(&header, bits.size());
  const std::vector<uint64_t>& words = bits.words();
  const uint64_t payload_bytes = kSliceHeaderBytes + 8 * words.size();
  const size_t capacity = file_.PayloadCapacity();
  const auto pages_needed =
      static_cast<uint32_t>((payload_bytes + capacity - 1) / capacity);

  SliceExtent extent;
  // An extent the committed sidecar may name relocates (committed_pages_).
  if (reuse != nullptr && pages_needed <= reuse->num_pages &&
      reuse->first_page >= committed_pages_) {
    extent = *reuse;
  } else {
    extent.first_page = file_.Allocate(pages_needed);
    extent.num_pages = pages_needed;
  }
  extent.payload_bytes = payload_bytes;

  // Each page's payload is assembled once in `page`, then copied into
  // its pool frame.
  const auto page = std::make_unique_for_overwrite<uint8_t[]>(capacity);
  for (uint32_t p = 0; p < pages_needed; ++p) {
    const uint64_t offset = uint64_t{p} * capacity;
    const auto chunk = static_cast<size_t>(
        std::min<uint64_t>(capacity, payload_bytes - offset));
    CopyPayload(header.data(), words, offset, chunk, page.get());
    EBI_RETURN_IF_ERROR(
        pool_->WriteThrough(extent.first_page + p, id, page.get(), chunk));
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

Result<SliceReader> StorageEngine::OpenSlice(
    SliceId id, std::optional<uint64_t> expect_bits) {
  SliceExtent extent;
  uint32_t pages_used = 0;
  EBI_RETURN_IF_ERROR(ExtentOf(id, &extent, &pages_used));
  SliceReader reader(this, id, extent, pages_used, file_.PayloadCapacity());
  uint8_t header[kSliceHeaderBytes];
  EBI_RETURN_IF_ERROR(reader.Read(header, sizeof(header)));
  EBI_ASSIGN_OR_RETURN(reader.bits_, ParseSliceHeader(header));
  if (expect_bits.has_value() && reader.bits_ != *expect_bits) {
    return Status::Internal("StorageEngine: slice " + std::to_string(id) +
                            " declares " + std::to_string(reader.bits_) +
                            " bits, expected " +
                            std::to_string(*expect_bits));
  }
  EBI_RETURN_IF_ERROR(
      CheckPayloadBytes(id, reader.bits_, extent.payload_bytes));
  if (reader.bits_ == 0) {
    EBI_RETURN_IF_ERROR(reader.Finish(0));
  }
  return reader;
}

Result<SliceReader> StorageEngine::ReadSlice(SliceId id, size_t bits) {
  return OpenSlice(id, bits);
}

Result<BitVector> StorageEngine::GetSlice(SliceId id,
                                          size_t* pages_faulted) {
  obs::ScopedSpan span("store.get");
  EBI_ASSIGN_OR_RETURN(SliceReader reader, OpenSlice(id, std::nullopt));
  // The words land straight in the slice's word array; whole pages copy
  // once. OpenSlice checked the size against the extent map, so a
  // garbage size never sizes the allocation.
  std::vector<uint64_t> words(WordCount(reader.bits()));
  EBI_RETURN_IF_ERROR(reader.ReadWords(words.data(), words.size()));
  if (pages_faulted != nullptr) {
    *pages_faulted = reader.pages_faulted();
  }
  if (span.active()) {
    span.Attr("id", static_cast<uint64_t>(id));
    span.Attr("hit", reader.pages_faulted() == 0);
    span.Attr("pages_faulted", static_cast<uint64_t>(reader.pages_faulted()));
  }
  return BitVector::FromWords(static_cast<size_t>(reader.bits()),
                              std::move(words));
}

void StorageEngine::CountRead(size_t pages_faulted) {
  if (pages_faulted == 0) {
    ++reads_hit_;
    return;
  }
  ++reads_missed_;
  // The faulted pages already charged their bytes; the read itself is
  // one logical vector read on top.
  if (options_.io != nullptr) {
    options_.io->ChargeVectorTouch();
  }
}

SliceStats StorageEngine::stats() const {
  const BufferPoolStats pool = pool_->stats();
  SliceStats out;
  out.hits = reads_hit_;
  out.misses = reads_missed_;
  const MutexLock lock(mu_);
  out.evictions = pool.evictions - pool_baseline_.evictions;
  out.writebacks = pool.writebacks - pool_baseline_.writebacks;
  return out;
}

void StorageEngine::ResetStats() {
  const MutexLock lock(mu_);
  reads_hit_ = 0;
  reads_missed_ = 0;
  pool_baseline_ = pool_->stats();
}

SliceReader::SliceReader(StorageEngine* engine, uint32_t slice,
                         const SliceExtent& extent, uint32_t pages_used,
                         size_t page_capacity)
    : engine_(engine),
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
                       engine_->pool_->CopyPage(next_page_, dst, &faulted));
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

Status SliceReader::ReadWords(uint64_t* dst, size_t count) {
  const uint64_t total = WordCount(bits_);
  if (count > total - words_read_) {
    return Status::OutOfRange("StorageEngine: slice " +
                              std::to_string(slice_) +
                              " read past the last word");
  }
  EBI_RETURN_IF_ERROR(Read(dst, count * sizeof(uint64_t)));
  WordsFromLittleEndian(dst, count);
  words_read_ += count;
  if (count > 0 && words_read_ == total) {
    return Finish(dst[count - 1]);
  }
  return Status::OK();
}

Status SliceReader::Finish(uint64_t last_word) {
  EBI_RETURN_IF_ERROR(CheckPadding(bits_, last_word));
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
  engine_->CountRead(pages_faulted_);
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
  std::vector<uint8_t> payload;
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
    const uint8_t* bytes = page.data() + PageFile::kHeaderBytes;
    payload.insert(payload.end(), bytes,
                   bytes + PageFile::PayloadBytes(page.data()));
  }
  if (payload.size() != extent.payload_bytes) {
    return Status::Internal("StorageEngine: slice " + std::to_string(id) +
                            " on-disk size mismatch");
  }
  if (payload.size() < kSliceHeaderBytes) {
    return Status::Internal("StorageEngine: slice " + std::to_string(id) +
                            " is shorter than a slice header");
  }
  // The checks of a read (OpenSlice, SliceReader::Finish) on the bytes.
  EBI_ASSIGN_OR_RETURN(const uint64_t bits, ParseSliceHeader(payload.data()));
  EBI_RETURN_IF_ERROR(CheckPayloadBytes(id, bits, payload.size()));
  uint64_t last_word = 0;
  if (bits > 0) {
    std::memcpy(&last_word, payload.data() + payload.size() - 8, 8);
    WordsFromLittleEndian(&last_word, 1);
  }
  return CheckPadding(bits, last_word);
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
