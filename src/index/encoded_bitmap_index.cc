#include "index/encoded_bitmap_index.h"

#include <algorithm>
#include <utility>

namespace ebi {

Status EncodedBitmapIndex::SetMapping(MappingTable mapping) {
  if (built_) {
    return Status::FailedPrecondition("index already built");
  }
  if (options_.strategy == EncodingStrategy::kValueBinary) {
    // The slice algorithms of the bit-sliced index read codes as values.
    return Status::FailedPrecondition(
        "a value-binary index derives its own mapping");
  }
  mapping_ = std::move(mapping);
  options_.strategy = EncodingStrategy::kCustom;
  return Status::OK();
}

Status EncodedBitmapIndex::StoreSlices(std::vector<BitVector> slices) {
  slices_ = std::move(slices);
  return Status::OK();
}

Status EncodedBitmapIndex::WriteCodes(size_t first_row,
                                      const std::vector<uint64_t>& codes) {
  const size_t rows = std::max(rows_indexed_, first_row + codes.size());
  while (slices_.size() < static_cast<size_t>(mapping_.width())) {
    slices_.emplace_back(rows_indexed_);
  }
  for (BitVector& slice : slices_) {
    slice.Resize(rows);
  }
  WriteBits(codes.data(), codes.size(), first_row, 0, slices_.data(),
            slices_.size());
  return Status::OK();
}

Result<BitVector> EncodedBitmapIndex::EvaluateSlices(const Cover& cover) {
  const uint64_t vars = VariablesOf(cover);
  for (size_t i = 0; i < slices_.size(); ++i) {
    if ((vars >> i) & 1) {
      io_->ChargeVectorRead(slices_[i].SizeBytes());
    }
  }
  return EvaluateCover(cover, slices_, rows_indexed_);
}

Result<std::unique_ptr<SecondaryIndex>> EncodedBitmapIndex::CloneRebound(
    const Column* column, const BitVector* existence,
    IoAccountant* io) const {
  if (!built_) {
    return Status::FailedPrecondition("index not built");
  }
  if (column == nullptr || existence == nullptr || io == nullptr) {
    return Status::InvalidArgument("CloneRebound requires a full binding");
  }
  if (column->size() != rows_indexed_) {
    return Status::FailedPrecondition(
        "clone target holds " + std::to_string(column->size()) +
        " rows, index covers " + std::to_string(rows_indexed_));
  }
  std::unique_ptr<EncodedBitmapIndex> clone =
      NewOfSameClass(column, existence, io);
  clone->options_ = options_;
  clone->name_ = name_;
  // The mapping travels with the clone; a rebuild must not re-derive it.
  clone->options_.strategy = EncodingStrategy::kCustom;
  clone->mapping_ = mapping_;
  clone->value_bias_ = value_bias_;
  clone->slices_ = slices_;
  clone->rows_indexed_ = rows_indexed_;
  clone->built_ = true;
  return std::unique_ptr<SecondaryIndex>(std::move(clone));
}

Status EncodedBitmapIndex::Reencode(MappingTable new_mapping) {
  if (!built_) {
    return Status::FailedPrecondition("index not built");
  }
  if (value_bias_.has_value()) {
    return Status::FailedPrecondition(
        "a value-binary index keeps its mapping");
  }
  if (new_mapping.NumValues() < column_->Cardinality()) {
    return Status::FailedPrecondition(
        "new mapping covers " + std::to_string(new_mapping.NumValues()) +
        " of " + std::to_string(column_->Cardinality()) + " values");
  }
  if (column_->HasNulls() && !new_mapping.null_code().has_value()) {
    return Status::FailedPrecondition(
        "column has NULLs but the new mapping reserves no NULL codeword");
  }
  // After the preconditions above encoding cannot fail: ValueIds are
  // dense below the cardinality, NULLs have a codeword, and void falls
  // back to the reserved (or zero) codeword.
  mapping_ = std::move(new_mapping);
  EBI_ASSIGN_OR_RETURN(slices_, EncodeRows(rows_indexed_));
  return Status::OK();
}

size_t EncodedBitmapIndex::SizeBytes() const {
  size_t total = 0;
  for (const BitVector& slice : slices_) {
    total += slice.SizeBytes();
  }
  // Mapping table: codeword array plus hash entries (code -> ValueId).
  total += mapping_.NumValues() * (sizeof(uint64_t) + 16);
  return total;
}

}  // namespace ebi
