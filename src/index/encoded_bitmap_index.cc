#include "index/encoded_bitmap_index.h"

#include <utility>

#include "encoding/encoders.h"
#include "obs/trace.h"
#include "util/bit_util.h"
#include "util/random.h"

namespace ebi {

Status EncodedBitmapIndex::SetMapping(MappingTable mapping) {
  if (built_) {
    return Status::FailedPrecondition("index already built");
  }
  mapping_ = std::move(mapping);
  options_.strategy = EncodingStrategy::kCustom;
  return Status::OK();
}

Status EncodedBitmapIndex::Build() {
  const size_t n = column_->size();
  const size_t m = column_->Cardinality();
  if (m == 0 && options_.strategy != EncodingStrategy::kCustom) {
    return Status::FailedPrecondition("cannot encode an empty domain");
  }

  EncoderOptions eo;
  eo.reserve_void_zero = options_.reserve_void_zero;
  eo.encode_null = options_.encode_null.value_or(column_->HasNulls());
  eo.extra_width = options_.extra_width;

  switch (options_.strategy) {
    case EncodingStrategy::kSequential: {
      EBI_ASSIGN_OR_RETURN(mapping_, MakeSequentialMapping(m, eo));
      break;
    }
    case EncodingStrategy::kGray: {
      EBI_ASSIGN_OR_RETURN(mapping_, MakeGrayMapping(m, eo));
      break;
    }
    case EncodingStrategy::kRandom: {
      Rng rng(options_.random_seed);
      EBI_ASSIGN_OR_RETURN(mapping_, MakeRandomMapping(m, &rng, eo));
      break;
    }
    case EncodingStrategy::kGreedy: {
      EBI_ASSIGN_OR_RETURN(
          mapping_, GreedyEncode(m, options_.training_predicates, eo));
      break;
    }
    case EncodingStrategy::kAnnealed: {
      EBI_ASSIGN_OR_RETURN(
          mapping_, AnnealEncode(m, options_.training_predicates,
                                 options_.optimizer, eo));
      break;
    }
    case EncodingStrategy::kCustom: {
      if (mapping_.NumValues() < m) {
        return Status::FailedPrecondition(
            "custom mapping covers " +
            std::to_string(mapping_.NumValues()) + " of " +
            std::to_string(m) + " values");
      }
      break;
    }
  }

  std::vector<BitVector> plain(static_cast<size_t>(mapping_.width()),
                               BitVector(n));
  for (size_t row = 0; row < n; ++row) {
    EBI_ASSIGN_OR_RETURN(const uint64_t code, CodeForRow(row));
    WriteCodeTo(&plain, row, code);
  }
  rows_indexed_ = n;
  slices_ = std::move(plain);
  built_ = true;
  return Status::OK();
}

Result<uint64_t> EncodedBitmapIndex::CodeForRow(size_t row) const {
  if (!existence_->Get(row)) {
    // Void tuple: its codeword, or an arbitrary 0 when the caller opted out
    // of void encoding (correctness then comes from the existence AND).
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

void EncodedBitmapIndex::WriteCodeTo(std::vector<BitVector>* slices,
                                     size_t row, uint64_t code) {
  for (size_t i = 0; i < slices->size(); ++i) {
    (*slices)[i].Assign(row, (code >> i) & 1);
  }
}

Status EncodedBitmapIndex::Append(size_t row) {
  return AppendBatch(row, 1);
}

Status EncodedBitmapIndex::AppendBatch(size_t first_row, size_t count) {
  if (!built_) {
    return Status::FailedPrecondition("index not built");
  }
  if (first_row != rows_indexed_) {
    return Status::InvalidArgument("rows must be appended in order");
  }
  if (first_row + count > column_->size()) {
    return Status::OutOfRange("batch extends past the column");
  }
  if (count == 0) {
    return Status::OK();
  }

  // Pass 1 — mapping only: resolve every row's codeword, taking the
  // domain-expansion path of Section 2.2 as needed. Equation (1) holds
  // iff a free codeword remains at the current width (Figure 2(a));
  // otherwise the width grows (Figure 2(b)). New distinct values arrive
  // in dense ValueId order because the column assigned their ids at
  // table-append time, and the width grows only as far as the whole
  // batch requires — not once per new value.
  const int width_before = mapping_.width();
  std::vector<uint64_t> codes(count);
  for (size_t r = 0; r < count; ++r) {
    const ValueId id = column_->ValueIdAt(first_row + r);
    if (id == kNullValueId) {
      if (!mapping_.null_code().has_value()) {
        return Status::FailedPrecondition(
            "NULL appended but the mapping reserves no NULL codeword; "
            "rebuild with encode_null");
      }
      codes[r] = *mapping_.null_code();
    } else if (id < mapping_.NumValues()) {
      // Update without domain expansion: set k bits (Section 2.2).
      EBI_ASSIGN_OR_RETURN(codes[r], mapping_.CodeOf(id));
    } else {
      std::optional<uint64_t> free = mapping_.FirstFreeCode();
      if (!free.has_value()) {
        EBI_RETURN_IF_ERROR(mapping_.ExpandWidth(mapping_.width() + 1));
        free = mapping_.FirstFreeCode();
        if (!free.has_value()) {
          return Status::Internal("no free codeword after width expansion");
        }
      }
      EBI_RETURN_IF_ERROR(mapping_.AddValue(id, *free));
      codes[r] = *free;
    }
  }

  // Pass 2 — slices, written once for the whole batch. Width growth adds
  // all-zero vectors B_k (existing rows keep zero high bits, matching the
  // zero-extension ExpandWidth applied to their codewords).
  for (int w = width_before; w < mapping_.width(); ++w) {
    slices_.emplace_back(rows_indexed_);
  }
  for (size_t r = 0; r < count; ++r) {
    for (size_t i = 0; i < slices_.size(); ++i) {
      slices_[i].PushBack((codes[r] >> i) & 1);
    }
  }
  rows_indexed_ += count;
  return Status::OK();
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
  auto clone = std::make_unique<EncodedBitmapIndex>(column, existence, io,
                                                    options_);
  // The mapping travels with the clone; a rebuild must not re-derive it.
  clone->options_.strategy = EncodingStrategy::kCustom;
  clone->mapping_ = mapping_;
  clone->slices_ = slices_;
  clone->rows_indexed_ = rows_indexed_;
  clone->built_ = true;
  return std::unique_ptr<SecondaryIndex>(std::move(clone));
}

Status EncodedBitmapIndex::MarkDeleted(size_t row) {
  if (!built_) {
    return Status::FailedPrecondition("index not built");
  }
  if (row >= rows_indexed_) {
    return Status::OutOfRange("row out of range");
  }
  if (mapping_.void_code().has_value()) {
    WriteCodeTo(&slices_, row, *mapping_.void_code());
  }
  // Without a void codeword the existence AND in evaluation masks the row.
  return Status::OK();
}

Result<Cover> EncodedBitmapIndex::CoverForIds(
    const std::vector<ValueId>& ids) const {
  return ReduceSelection(mapping_, ids, options_.reduction);
}

Result<BitVector> EncodedBitmapIndex::EvaluateCoverCharged(
    const Cover& cover) {
  obs::ScopedSpan span("cover.eval");
  const IoScope scope(io_);
  const uint64_t vars = VariablesOf(cover);
  const size_t k = slices_.size();
  uint64_t vectors_read = 0;
  for (size_t i = 0; i < k; ++i) {
    if ((vars >> i) & 1) {
      io_->ChargeVectorRead(slices_[i].SizeBytes());
      ++vectors_read;
    }
  }
  BitVector result = EvaluateCover(cover, slices_, rows_indexed_);
  const bool existence_and = !mapping_.void_code().has_value();
  if (existence_and) {
    // No void codeword: deleted rows still carry stale value codes, so the
    // existence bitmap must be ANDed — exactly the extra read Theorem 2.1
    // eliminates.
    io_->ChargeVectorRead(existence_->SizeBytes());
    result.AndWith(*existence_);
  }
  if (span.active()) {
    // The measured c_e of Section 3.1: distinct slice vectors the reduced
    // expression touched (existence_and marks the Theorem 2.1 extra read).
    span.Attr("minterms", cover.size());
    span.Attr("vectors_read", vectors_read);
    span.Attr("slices_held", k);
    span.Attr("existence_and", existence_and);
    span.AttrIo(scope.Delta());
  }
  return result;
}

Result<BitVector> EncodedBitmapIndex::EvaluateEquals(const Value& value) {
  return EvaluateIn({value});
}

Result<BitVector> EncodedBitmapIndex::EvaluateIn(
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
  return EvaluateCoverCharged(cover);
}

Result<BitVector> EncodedBitmapIndex::EvaluateRange(int64_t lo, int64_t hi) {
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
  return EvaluateCoverCharged(cover);
}

Result<BitVector> EncodedBitmapIndex::EvaluateIsNull() {
  if (!built_) {
    return Status::FailedPrecondition("index not built");
  }
  if (!mapping_.null_code().has_value()) {
    return Status::FailedPrecondition("mapping reserves no NULL codeword");
  }
  obs::ScopedSpan span("index.eval");
  if (span.active()) {
    span.Attr("index", Name());
    span.Attr("op", "is_null");
  }
  Cover cover = {Cube::MinTerm(*mapping_.null_code(), mapping_.width())};
  return EvaluateCoverCharged(cover);
}

Result<Cover> EncodedBitmapIndex::CoverForIn(
    const std::vector<Value>& values) const {
  if (!built_) {
    return Status::FailedPrecondition("index not built");
  }
  return CoverForIds(IdsOf(values));
}

Result<int> EncodedBitmapIndex::AccessCostForIn(
    const std::vector<Value>& values) const {
  EBI_ASSIGN_OR_RETURN(const Cover cover, CoverForIn(values));
  return DistinctVariables(cover);
}

Status EncodedBitmapIndex::Reencode(MappingTable new_mapping) {
  if (!built_) {
    return Status::FailedPrecondition("index not built");
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
  // After the preconditions above CodeForRow cannot fail: ValueIds are
  // dense below the cardinality, NULLs have a codeword, and void falls
  // back to the reserved (or zero) codeword.
  mapping_ = std::move(new_mapping);
  std::vector<BitVector> plain(static_cast<size_t>(mapping_.width()),
                               BitVector(rows_indexed_));
  for (size_t row = 0; row < rows_indexed_; ++row) {
    const Result<uint64_t> code = CodeForRow(row);
    if (!code.ok()) {
      return Status::Internal("re-encoding failed mid-pass: " +
                              code.status().message());
    }
    WriteCodeTo(&plain, row, *code);
  }
  slices_ = std::move(plain);
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
