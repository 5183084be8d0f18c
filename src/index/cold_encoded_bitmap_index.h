#ifndef EBI_INDEX_COLD_ENCODED_BITMAP_INDEX_H_
#define EBI_INDEX_COLD_ENCODED_BITMAP_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "index/encoded_index_base.h"
#include "storage/engine/storage_engine.h"

namespace ebi {

/// Slice-read counts and pool evictions of a cold index's engine.
using BitmapStoreStats = engine::SliceStats;

/// Options for the cold encoded bitmap index.
struct ColdEncodedBitmapIndexOptions {
  /// Buffer-pool capacity in 4 KB pages. With fewer pooled pages than
  /// the slices span, queries that reduce to few vectors stay cheap
  /// while worst-case queries page — exactly the regime the paper's
  /// page-read cost metric models.
  size_t pool_pages = 4;
  /// Directory for the backing file.
  std::string directory = "/tmp";
};

/// A disk-resident encoded bitmap index: the k = ceil(log2 m) slice
/// vectors live in a scratch engine::StorageEngine, the one slice store,
/// whose LRU buffer pool caches their pages, so only the slices a reduced
/// retrieval expression references are read. This is the deployment shape
/// the paper's I/O accounting assumes — vectors on disk, reads counted per
/// vector. It shares the encoding of EncodedIndexBase with the in-memory
/// EncodedBitmapIndex (sequential codes, void codeword 0, a NULL codeword
/// when the column has NULLs) and keeps only where the slices live,
/// holding none of them in memory between calls.
///
/// A selection streams: the blocked cover pass (EvaluateCoverFrom) takes
/// each referenced slice's words block by block from its pages, so a
/// query holds c_e pages and c_e 2 KB blocks, never a whole slice, and
/// works at any pool size. Every page, codec and padding check of a
/// whole-slice read still applies; a failed check fails the selection.
///
/// Maintenance reads and rewrites each slice once per append batch or
/// deletion; use the in-memory index for update-heavy phases.
class ColdEncodedBitmapIndex : public EncodedIndexBase {
 public:
  ColdEncodedBitmapIndex(const Column* column, const BitVector* existence,
                         IoAccountant* io,
                         ColdEncodedBitmapIndexOptions options =
                             ColdEncodedBitmapIndexOptions())
      : EncodedIndexBase(column, existence, io, EncodedBitmapIndexOptions()),
        store_options_(std::move(options)) {}

  std::string Name() const override { return "encoded-bitmap-cold"; }

  size_t SizeBytes() const override;
  size_t NumVectors() const override { return NumSlices(); }

  /// Buffer-pool behaviour of the backing engine.
  BitmapStoreStats store_stats() const { return engine_->stats(); }
  void ResetStoreStats() { engine_->ResetStats(); }
  /// The backing engine; Build stores slice i as engine slice i.
  engine::StorageEngine* storage_engine() { return engine_.get(); }

  /// Section 3.1 cost model against *real* extents: c_e <= k slice
  /// reads, each costing the pages its stored form actually spans.
  double EstimatePages(const SelectionShape& shape) const override;

  /// Number of slice vectors held by the backing engine.
  size_t NumSlices() const {
    return engine_ == nullptr ? 0 : engine_->NumSlices();
  }

  /// Fetches slice `i` from the engine for the InvariantAuditor's
  /// structural checks (a pool miss charges a vector read, like any other
  /// access; the engine validates the payload on the way in).
  Result<BitVector> FetchSlice(size_t i);

 private:
  /// Opens a fresh engine (a rebuild closes, and so removes, the old
  /// backing file first) and persists the built slices.
  Status StoreSlices(std::vector<BitVector> slices) override;
  /// One read-modify-write per slice per append batch or deletion.
  Status WriteCodes(size_t first_row,
                    const std::vector<uint64_t>& codes) override;
  /// Evaluates the cover in one blocked pass whose slice words stream
  /// from the engine's pages (StorageEngine::ReadSlice): no slice is
  /// assembled, and each referenced slice's pages are looked up once,
  /// charged as a GetSlice would charge them.
  Result<BitVector> EvaluateSlices(const Cover& cover) override;

  ColdEncodedBitmapIndexOptions store_options_;
  std::unique_ptr<engine::StorageEngine> engine_;
};

}  // namespace ebi

#endif  // EBI_INDEX_COLD_ENCODED_BITMAP_INDEX_H_
