#include "storage/bitmap_store.h"

#include <utility>

#include "obs/trace.h"

namespace ebi {

Result<BitmapStore> BitmapStore::Open(const std::string& path,
                                      size_t capacity_pages,
                                      IoAccountant* io,
                                      exec::ThreadPool* prefetch_pool) {
  if (capacity_pages == 0) {
    return Status::InvalidArgument("pool capacity must be > 0");
  }
  engine::StorageEngineOptions options;
  options.pool_pages = capacity_pages;
  options.io = io;
  options.prefetch_pool = prefetch_pool;
  options.remove_on_close = true;
  EBI_ASSIGN_OR_RETURN(std::unique_ptr<engine::StorageEngine> engine,
                       engine::StorageEngine::Open(path, options));
  BitmapStore store;
  store.engine_ = std::move(engine);
  store.io_ = io;
  return store;
}

Result<BitmapStore::VectorId> BitmapStore::Put(const BitVector& bits) {
  return engine_->PutSlice(StoredBitmap::Make(bits, BitmapFormat::kPlain));
}

Status BitmapStore::Update(VectorId id, const BitVector& bits) {
  return engine_->UpdateSlice(id,
                              StoredBitmap::Make(bits, BitmapFormat::kPlain));
}

Result<BitVector> BitmapStore::Get(VectorId id) {
  obs::ScopedSpan span("store.get");
  size_t pages_faulted = 0;
  EBI_ASSIGN_OR_RETURN(StoredBitmap stored,
                       engine_->GetSlice(id, &pages_faulted));
  if (pages_faulted == 0) {
    ++gets_hit_;
  } else {
    ++gets_missed_;
    // The faulted pages already charged their bytes; the Get itself is
    // one logical vector read on top.
    if (io_ != nullptr) {
      io_->ChargeVectorTouch();
    }
  }
  if (span.active()) {
    span.Attr("id", static_cast<uint64_t>(id));
    span.Attr("hit", pages_faulted == 0);
    span.Attr("pages_faulted", static_cast<uint64_t>(pages_faulted));
  }
  return stored.ToBitVector();
}

void BitmapStore::Prefetch(const std::vector<VectorId>& ids) {
  engine_->PrefetchSlices(ids);
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
