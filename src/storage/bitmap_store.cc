#include "storage/bitmap_store.h"

#include <utility>

#include "obs/trace.h"
#include "util/stored_bitmap_io.h"

namespace ebi {

Result<BitmapStore> BitmapStore::Open(const std::string& path,
                                      size_t capacity_pages,
                                      IoAccountant* io) {
  engine::StorageEngineOptions options;
  options.pool_pages = capacity_pages;
  options.io = io;
  options.remove_on_close = true;
  EBI_ASSIGN_OR_RETURN(std::unique_ptr<engine::StorageEngine> engine,
                       engine::StorageEngine::Open(path, options));
  BitmapStore store;
  store.engine_ = std::move(engine);
  store.io_ = io;
  return store;
}

Result<BitmapStore::VectorId> BitmapStore::Put(const BitVector& bits) {
  return engine_->PutSlice(bits);
}

Status BitmapStore::Update(VectorId id, const BitVector& bits) {
  return engine_->UpdateSlice(id, bits);
}

Result<BitVector> BitmapStore::Get(VectorId id) {
  obs::ScopedSpan span("store.get");
  size_t pages_faulted = 0;
  EBI_ASSIGN_OR_RETURN(BitVector bits, engine_->GetSlice(id, &pages_faulted));
  CountRead(pages_faulted);
  if (span.active()) {
    span.Attr("id", static_cast<uint64_t>(id));
    span.Attr("hit", pages_faulted == 0);
    span.Attr("pages_faulted", static_cast<uint64_t>(pages_faulted));
  }
  return bits;
}

void BitmapStore::CountRead(size_t pages_faulted) {
  if (pages_faulted == 0) {
    ++gets_hit_;
    return;
  }
  ++gets_missed_;
  // The faulted pages already charged their bytes; the read itself is
  // one logical vector read on top.
  if (io_ != nullptr) {
    io_->ChargeVectorTouch();
  }
}

Result<VectorReader> BitmapStore::Read(VectorId id, size_t bits) {
  EBI_ASSIGN_OR_RETURN(engine::SliceReader bytes, engine_->ReadSlice(id));
  uint8_t header[kPlainStoredHeaderBytes];
  EBI_RETURN_IF_ERROR(bytes.Read(header, sizeof(header)));
  EBI_ASSIGN_OR_RETURN(const uint64_t declared, ParsePlainStoredHeader(header));
  if (declared != bits) {
    return Status::Internal("BitmapStore: vector " + std::to_string(id) +
                            " declares " + std::to_string(declared) +
                            " bits, expected " + std::to_string(bits));
  }
  VectorReader reader(this, std::move(bytes), bits);
  if (bits == 0) {
    EBI_RETURN_IF_ERROR(reader.Finish());
  }
  return reader;
}

Status VectorReader::ReadWords(uint64_t* dst, size_t count) {
  const size_t total = (bits_ + 63) / 64;
  if (count > total - words_read_) {
    return Status::OutOfRange("VectorReader: read past the last word");
  }
  EBI_RETURN_IF_ERROR(bytes_.Read(dst, count * sizeof(uint64_t)));
  WordsFromLittleEndian(dst, count);
  words_read_ += count;
  if (words_read_ == total && count > 0) {
    // Bits past the declared size must be zero, as LoadBitVector checks.
    const size_t tail = bits_ % 64;
    if (tail != 0 && (dst[count - 1] >> tail) != 0) {
      return Status::InvalidArgument(
          "BitVector: set padding bits past the declared size");
    }
    return Finish();
  }
  return Status::OK();
}

Status VectorReader::Finish() {
  EBI_RETURN_IF_ERROR(bytes_.Finish());
  store_->CountRead(bytes_.pages_faulted());
  return Status::OK();
}

BitmapStoreStats BitmapStore::stats() const {
  const engine::BufferPoolStats pool = engine_->pool_stats();
  BitmapStoreStats out;
  out.hits = gets_hit_;
  out.misses = gets_missed_;
  out.evictions = pool.evictions - pool_baseline_.evictions;
  out.writebacks = pool.writebacks - pool_baseline_.writebacks;
  return out;
}

void BitmapStore::ResetStats() {
  gets_hit_ = 0;
  gets_missed_ = 0;
  pool_baseline_ = engine_->pool_stats();
}

}  // namespace ebi
