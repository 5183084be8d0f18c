#include "index/cold_encoded_bitmap_index.h"

#include <array>
#include <utility>

#include "encoding/encoders.h"
#include "obs/trace.h"
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

Result<uint64_t> ColdEncodedBitmapIndex::CodeForRow(size_t row) const {
  if (!existence_->Get(row)) {
    return mapping_.void_code().value_or(0);
  }
  const ValueId id = column_->ValueIdAt(row);
  if (id == kNullValueId) {
    if (!mapping_.null_code().has_value()) {
      return Status::FailedPrecondition(
          "column has NULLs but the mapping reserves no NULL codeword");
    }
    return *mapping_.null_code();
  }
  return mapping_.CodeOf(id);
}

Status ColdEncodedBitmapIndex::Build() {
  const size_t n = column_->size();
  const size_t m = column_->Cardinality();
  if (m == 0) {
    return Status::FailedPrecondition("cannot encode an empty domain");
  }
  EncoderOptions eo;
  eo.reserve_void_zero = true;
  eo.encode_null = column_->HasNulls();
  EBI_ASSIGN_OR_RETURN(mapping_, MakeSequentialMapping(m, eo));

  // A rebuild closes (and so removes) the old backing files before it
  // creates new ones at the same path.
  engine_.reset();
  engine::StorageEngineOptions engine_options;
  engine_options.pool_pages = options_.pool_pages;
  engine_options.io = io_;
  engine_options.remove_on_close = true;
  EBI_ASSIGN_OR_RETURN(
      engine_, engine::StorageEngine::Open(
                   BackingPath(options_.directory, this), engine_options));

  const size_t k = static_cast<size_t>(mapping_.width());
  std::vector<BitVector> slices(k, BitVector(n));
  for (size_t row = 0; row < n; ++row) {
    EBI_ASSIGN_OR_RETURN(const uint64_t code, CodeForRow(row));
    for (size_t i = 0; i < k; ++i) {
      if ((code >> i) & 1) {
        slices[i].Set(row);
      }
    }
  }
  for (const BitVector& slice : slices) {
    EBI_RETURN_IF_ERROR(engine_->PutSlice(slice).status());
  }
  rows_indexed_ = n;
  built_ = true;
  return Status::OK();
}

Status ColdEncodedBitmapIndex::Append(size_t row) {
  if (!built_) {
    return Status::FailedPrecondition("index not built");
  }
  if (row != rows_indexed_) {
    return Status::InvalidArgument("rows must be appended in order");
  }
  const ValueId id = column_->ValueIdAt(row);
  if (id != kNullValueId && id >= mapping_.NumValues()) {
    std::optional<uint64_t> free = mapping_.FirstFreeCode();
    if (!free.has_value()) {
      EBI_RETURN_IF_ERROR(mapping_.ExpandWidth(mapping_.width() + 1));
      // New all-zero slice of the current length.
      EBI_RETURN_IF_ERROR(engine_->PutSlice(BitVector(rows_indexed_)).status());
      free = mapping_.FirstFreeCode();
      if (!free.has_value()) {
        return Status::Internal("no free codeword after width expansion");
      }
    }
    EBI_RETURN_IF_ERROR(mapping_.AddValue(id, *free));
  }
  EBI_ASSIGN_OR_RETURN(const uint64_t code, CodeForRow(row));
  // Extend every slice by one bit: read-modify-write through the engine.
  for (uint32_t i = 0; i < NumSlices(); ++i) {
    EBI_ASSIGN_OR_RETURN(BitVector slice, engine_->GetSlice(i));
    slice.PushBack((code >> i) & 1);
    EBI_RETURN_IF_ERROR(engine_->UpdateSlice(i, slice));
  }
  ++rows_indexed_;
  return Status::OK();
}

Status ColdEncodedBitmapIndex::MarkDeleted(size_t row) {
  if (!built_) {
    return Status::FailedPrecondition("index not built");
  }
  if (row >= rows_indexed_) {
    return Status::OutOfRange("row out of range");
  }
  if (!mapping_.void_code().has_value()) {
    return Status::OK();
  }
  const uint64_t code = *mapping_.void_code();
  for (uint32_t i = 0; i < NumSlices(); ++i) {
    EBI_ASSIGN_OR_RETURN(BitVector slice, engine_->GetSlice(i));
    slice.Assign(row, (code >> i) & 1);
    EBI_RETURN_IF_ERROR(engine_->UpdateSlice(i, slice));
  }
  return Status::OK();
}

Result<Cover> ColdEncodedBitmapIndex::CoverForIds(
    const std::vector<ValueId>& ids) const {
  return ReduceSelection(mapping_, ids, options_.reduction);
}

Result<BitVector> ColdEncodedBitmapIndex::EvaluateCoverCold(
    const Cover& cover) {
  obs::ScopedSpan span("cover.eval");
  const IoScope scope(io_);
  // Read only the slices the reduced expression references.
  const uint64_t vars = VariablesOf(cover);
  const auto referenced = static_cast<size_t>(DistinctVariables(cover));
  const size_t slices = NumSlices();
  SliceStreams streams(referenced);
  for (uint32_t i = 0; i < slices; ++i) {
    if ((vars >> i) & 1) {
      EBI_ASSIGN_OR_RETURN(engine::SliceReader reader,
                           engine_->ReadSlice(i, rows_indexed_));
      streams.Add(i, std::move(reader));
    }
  }
  Result<BitVector> result =
      EvaluateCoverFrom(kernels::Active(), cover, rows_indexed_, streams);
  if (span.active()) {
    span.Attr("minterms", cover.size());
    span.Attr("vectors_read", static_cast<uint64_t>(referenced));
    span.Attr("slices_held", slices);
    // Build reserves void code 0, so covers never need the existence AND.
    span.Attr("existence_and", false);
    span.AttrIo(scope.Delta());
  }
  return result;
}

Result<BitVector> ColdEncodedBitmapIndex::EvaluateEquals(
    const Value& value) {
  return EvaluateIn({value});
}

Result<BitVector> ColdEncodedBitmapIndex::EvaluateIn(
    const std::vector<Value>& values) {
  if (!built_) {
    return Status::FailedPrecondition("index not built");
  }
  obs::ScopedSpan span("index.eval");
  const std::vector<ValueId> ids = IdsOf(values);
  if (span.active()) {
    span.Attr("index", Name());
    span.Attr("delta", ids.size());
  }
  EBI_ASSIGN_OR_RETURN(const Cover cover, CoverForIds(ids));
  return EvaluateCoverCold(cover);
}

Result<BitVector> ColdEncodedBitmapIndex::EvaluateRange(int64_t lo,
                                                        int64_t hi) {
  if (!built_) {
    return Status::FailedPrecondition("index not built");
  }
  if (column_->type() != Column::Type::kInt64) {
    return Status::InvalidArgument("range selection on non-integer column");
  }
  obs::ScopedSpan span("index.eval");
  const std::vector<ValueId> ids = column_->IdsInRange(lo, hi);
  if (span.active()) {
    span.Attr("index", Name());
    span.Attr("delta", ids.size());
  }
  EBI_ASSIGN_OR_RETURN(const Cover cover, CoverForIds(ids));
  return EvaluateCoverCold(cover);
}

size_t ColdEncodedBitmapIndex::SizeBytes() const {
  // Disk footprint: k slices of n bits.
  return NumSlices() * ((rows_indexed_ + 63) / 64) * 8;
}

double ColdEncodedBitmapIndex::EstimatePages(
    const SelectionShape& shape) const {
  (void)shape;
  if (!built_) {
    return SecondaryIndex::EstimatePages(shape);
  }
  // Worst case: every slice read (reduction only lowers it), each at the
  // pages its extent really spans, matching the per-page charges a cold
  // evaluation actually incurs. Build reserves void code 0, so no
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
