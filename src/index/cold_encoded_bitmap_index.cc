#include "index/cold_encoded_bitmap_index.h"

#include <algorithm>
#include <array>
#include <utility>

#include "util/kernels/kernels.h"

namespace ebi {

namespace {

/// The cold pass's word source: one streaming reader per referenced
/// slice, each filling its own block buffer, so a query holds c_e pages
/// and c_e blocks instead of c_e whole slices.
class SliceStreams final : public CoverWordSource {
 public:
  explicit SliceStreams(size_t count) { streams_.reserve(count); }

  void Add(size_t var, engine::SliceReader reader) {
    streams_.push_back({var, std::move(reader), {}});
  }

  Status Block(uint64_t /*vars*/, size_t /*first*/, size_t count,
               const uint64_t** words) override {
    for (Stream& s : streams_) {
      EBI_RETURN_IF_ERROR(s.reader.ReadWords(s.block.data(), count));
      words[s.var] = s.block.data();
    }
    return Status::OK();
  }

 private:
  struct Stream {
    size_t var;
    engine::SliceReader reader;
    std::array<uint64_t, kCoverBlockWords> block;
  };
  std::vector<Stream> streams_;
};

/// Unique-ish temp file name per index instance.
std::string BackingPath(const std::string& directory, const void* self) {
  return directory + "/ebi_cold_" +
         std::to_string(reinterpret_cast<uintptr_t>(self)) + ".bin";
}

}  // namespace

Status ColdEncodedBitmapIndex::StoreSlices(std::vector<BitVector> slices) {
  engine_.reset();
  engine::StorageEngineOptions engine_options;
  engine_options.pool_pages = store_options_.pool_pages;
  engine_options.io = io_;
  engine_options.remove_on_close = true;
  EBI_ASSIGN_OR_RETURN(
      engine_, engine::StorageEngine::Open(
                   BackingPath(store_options_.directory, this),
                   engine_options));
  for (const BitVector& slice : slices) {
    EBI_RETURN_IF_ERROR(engine_->PutSlice(slice).status());
  }
  return Status::OK();
}

Status ColdEncodedBitmapIndex::WriteCodes(
    size_t first_row, const std::vector<uint64_t>& codes) {
  const size_t rows = std::max(rows_indexed_, first_row + codes.size());
  const size_t stored = NumSlices();
  for (uint32_t i = 0; i < static_cast<uint32_t>(mapping_.width()); ++i) {
    // Width growth stores a new slice, all zero before the batch.
    BitVector slice;
    if (i < stored) {
      EBI_ASSIGN_OR_RETURN(slice, engine_->GetSlice(i));
    }
    slice.Resize(rows);
    WriteBits(codes.data(), codes.size(), first_row, static_cast<int>(i),
              &slice, 1);
    EBI_RETURN_IF_ERROR(i < stored ? engine_->UpdateSlice(i, slice)
                                   : engine_->PutSlice(slice).status());
  }
  return Status::OK();
}

Result<BitVector> ColdEncodedBitmapIndex::EvaluateSlices(const Cover& cover) {
  // Read only the slices the reduced expression references.
  const uint64_t vars = VariablesOf(cover);
  SliceStreams streams(static_cast<size_t>(DistinctVariables(cover)));
  for (uint32_t i = 0; i < NumSlices(); ++i) {
    if ((vars >> i) & 1) {
      EBI_ASSIGN_OR_RETURN(engine::SliceReader reader,
                           engine_->ReadSlice(i, rows_indexed_));
      streams.Add(i, std::move(reader));
    }
  }
  return EvaluateCoverFrom(kernels::Active(), cover, rows_indexed_, streams);
}

size_t ColdEncodedBitmapIndex::SizeBytes() const {
  // Disk footprint: k slices of n bits.
  return NumSlices() * ((rows_indexed_ + 63) / 64) * 8;
}

double ColdEncodedBitmapIndex::EstimatePages(
    const SelectionShape& shape) const {
  (void)shape;
  // Worst case: every slice read (reduction only lowers it), each at the
  // pages its extent really spans, matching the per-page charges a cold
  // evaluation actually incurs. The encoding reserves void code 0, so no
  // existence AND adds a read.
  double pages = 0.0;
  for (uint32_t i = 0; i < NumSlices(); ++i) {
    const auto slice_pages = engine_->SlicePages(i);
    if (slice_pages.ok()) {
      pages += static_cast<double>(*slice_pages);
    }
  }
  return pages;
}

Result<BitVector> ColdEncodedBitmapIndex::FetchSlice(size_t i) {
  if (!built_) {
    return Status::FailedPrecondition("index not built");
  }
  if (i >= NumSlices()) {
    return Status::OutOfRange("slice " + std::to_string(i) + " of " +
                              std::to_string(NumSlices()));
  }
  return engine_->GetSlice(static_cast<uint32_t>(i));
}

}  // namespace ebi
