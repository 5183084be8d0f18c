#include "index/encoded_index_base.h"

#include <algorithm>
#include <array>
#include <optional>
#include <string>
#include <vector>

#include "encoding/encoders.h"
#include "obs/trace.h"
#include "util/bit_util.h"
#include "util/random.h"

namespace ebi {

namespace {

/// Rows Build encodes per block: their codewords (8 KB) stay L1-resident
/// between resolution and the slice writer.
constexpr size_t kEncodeBlockRows = 1024;

/// Transposes the 64x64 bit matrix `m` in place, moving bit c of m[r] to
/// bit r of m[c]: six rounds of block swaps (Hacker's Delight, 7-3).
void Transpose64(uint64_t* m) {
  uint64_t mask = 0x00000000FFFFFFFF;
  for (size_t s = 32; s != 0; s >>= 1, mask ^= mask << s) {
    for (size_t r = 0; r < 64; r = ((r | s) + 1) & ~s) {
      const uint64_t t = ((m[r] >> s) ^ m[r | s]) & mask;
      m[r] ^= t << s;
      m[r | s] ^= t;
    }
  }
}

/// The value-binary mapping of `column` (code = value - bias, the bias the
/// column minimum) and its bias; an empty domain gets bias 0 and width 1.
Result<MappingTable> MakeValueBinaryMapping(const Column& column,
                                            int64_t* bias) {
  if (column.type() != Column::Type::kInt64) {
    return Status::InvalidArgument(
        "value-binary encoding requires an integer column");
  }
  const std::vector<Value>& domain = column.dictionary();
  const auto [min_it, max_it] = std::minmax_element(
      domain.begin(), domain.end(), [](const Value& a, const Value& b) {
        return a.int_value < b.int_value;
      });
  *bias = domain.empty() ? 0 : min_it->int_value;
  const uint64_t span =
      domain.empty() ? 1
                     : static_cast<uint64_t>(max_it->int_value - *bias) + 1;
  std::vector<uint64_t> codes(domain.size());
  for (size_t id = 0; id < domain.size(); ++id) {
    codes[id] = static_cast<uint64_t>(domain[id].int_value - *bias);
  }
  return MappingTable::Create(Log2Ceil(span), codes);
}

}  // namespace

Status EncodedIndexBase::DeriveMapping() {
  const size_t m = column_->Cardinality();
  if (options_.strategy == EncodingStrategy::kValueBinary) {
    int64_t bias = 0;
    EBI_ASSIGN_OR_RETURN(mapping_, MakeValueBinaryMapping(*column_, &bias));
    value_bias_ = bias;
    return Status::OK();
  }
  if (options_.strategy == EncodingStrategy::kCustom) {
    if (mapping_.NumValues() < m) {
      return Status::FailedPrecondition(
          "custom mapping covers " + std::to_string(mapping_.NumValues()) +
          " of " + std::to_string(m) + " values");
    }
    return Status::OK();
  }
  if (m == 0) {
    return Status::FailedPrecondition("cannot encode an empty domain");
  }
  EncoderOptions eo;
  eo.reserve_void_zero = options_.reserve_void_zero;
  eo.encode_null = options_.encode_null.value_or(column_->HasNulls());
  eo.extra_width = options_.extra_width;
  const auto derive = [&]() -> Result<MappingTable> {
    switch (options_.strategy) {
      case EncodingStrategy::kGray:
        return MakeGrayMapping(m, eo);
      case EncodingStrategy::kRandom: {
        Rng rng(options_.random_seed);
        return MakeRandomMapping(m, &rng, eo);
      }
      case EncodingStrategy::kGreedy:
        return GreedyEncode(m, options_.training_predicates, eo);
      case EncodingStrategy::kAnnealed:
        return AnnealEncode(m, options_.training_predicates,
                            options_.optimizer, eo);
      case EncodingStrategy::kSequential:
      case EncodingStrategy::kCustom:
      case EncodingStrategy::kValueBinary:
        break;
    }
    return MakeSequentialMapping(m, eo);
  };
  EBI_ASSIGN_OR_RETURN(mapping_, derive());
  return Status::OK();
}

Status EncodedIndexBase::AddNewValue(ValueId id, bool value_binary) {
  if (value_binary) {
    // The bit-sliced index's own expansion: the new value takes its own
    // binary form, and the width grows until that code fits.
    const int64_t value = column_->ValueOf(id).int_value;
    if (value < *value_bias_) {
      return Status::Unimplemented(
          "appended value below the slice bias; rebuild the index");
    }
    const uint64_t code = static_cast<uint64_t>(value - *value_bias_);
    int width = mapping_.width();
    while (width < 63 && code >> width != 0) {
      ++width;
    }
    EBI_RETURN_IF_ERROR(mapping_.ExpandWidth(width));
    return mapping_.AddValue(id, code);
  }
  // Equation (1) holds iff a free codeword remains at the current width
  // (Figure 2(a)); otherwise the width grows (Figure 2(b)), which leaves
  // 2^width new codewords free.
  if (!mapping_.FirstFreeCode().has_value()) {
    EBI_RETURN_IF_ERROR(mapping_.ExpandWidth(mapping_.width() + 1));
  }
  return mapping_.AddValue(id, *mapping_.FirstFreeCode());
}

Status EncodedIndexBase::ResolveCodes(size_t first_row, size_t count,
                                      uint64_t* codes) {
  // Decided once per call: this loop is the hot path of every Build and
  // append.
  const bool value_binary = value_bias_.has_value();
  const std::optional<uint64_t> null_code =
      value_binary ? std::optional<uint64_t>(0) : mapping_.null_code();
  for (size_t r = 0; r < count; ++r) {
    const size_t row = first_row + r;
    const ValueId id = column_->ValueIdAt(row);
    if (id != kNullValueId && id >= mapping_.NumValues()) {
      // New values arrive in dense ValueId order because the column
      // assigned their ids at append time.
      EBI_RETURN_IF_ERROR(AddNewValue(id, value_binary));
    }
    if (!existence_->Get(row)) {
      // Void tuple: its codeword, or an arbitrary 0 when the index opted
      // out of void encoding (correctness then comes from the existence
      // AND).
      codes[r] = mapping_.void_code().value_or(0);
    } else if (id == kNullValueId) {
      if (!null_code.has_value()) {
        return Status::FailedPrecondition(
            "column has NULLs but the mapping reserves no NULL codeword");
      }
      codes[r] = *null_code;
    } else {
      codes[r] = mapping_.codes()[id];
    }
  }
  return Status::OK();
}

void EncodedIndexBase::WriteBits(const uint64_t* codes, size_t count,
                                 size_t first_row, int first_bit,
                                 BitVector* slices, size_t num_slices) {
  constexpr size_t kChunkWords = 16;
  // chunk[s] collects the words of slices[s] for one SetWordRange.
  std::array<std::array<uint64_t, kChunkWords>, 64> chunk{};
  std::array<uint64_t, 64> block{};
  for (size_t r = 0; r < count;) {
    const size_t first_word = (first_row + r) / 64;
    size_t n = 0;
    for (; n < kChunkWords && r < count; ++n) {
      const size_t offset = (first_row + r) % 64;
      const size_t take = std::min(64 - offset, count - r);
      // The word's rows as a 64x64 bit matrix, one codeword per row;
      // transposed, block[b] holds bit b of every row's codeword.
      block.fill(0);
      std::copy_n(codes + r, take, block.begin() + offset);
      Transpose64(block.data());
      const uint64_t mask =
          (take == 64 ? ~uint64_t{0} : (uint64_t{1} << take) - 1) << offset;
      for (size_t s = 0; s < num_slices; ++s) {
        chunk[s][n] = (slices[s].words()[first_word + n] & ~mask) |
                      block[static_cast<size_t>(first_bit) + s];
      }
      r += take;
    }
    for (size_t s = 0; s < num_slices; ++s) {
      slices[s].SetWordRange(first_word, chunk[s].data(), n);
    }
  }
}

Result<std::vector<BitVector>> EncodedIndexBase::EncodeRows(size_t n) {
  std::vector<BitVector> slices(static_cast<size_t>(mapping_.width()),
                                BitVector(n));
  std::array<uint64_t, kEncodeBlockRows> codes{};
  for (size_t first = 0; first < n; first += codes.size()) {
    const size_t count = std::min(codes.size(), n - first);
    EBI_RETURN_IF_ERROR(ResolveCodes(first, count, codes.data()));
    WriteBits(codes.data(), count, first, 0, slices.data(), slices.size());
  }
  return slices;
}

Status EncodedIndexBase::Build() {
  EBI_RETURN_IF_ERROR(DeriveMapping());
  EBI_ASSIGN_OR_RETURN(std::vector<BitVector> slices,
                       EncodeRows(column_->size()));
  EBI_RETURN_IF_ERROR(StoreSlices(std::move(slices)));
  rows_indexed_ = column_->size();
  built_ = true;
  return Status::OK();
}

Status EncodedIndexBase::AppendBatch(size_t first_row, size_t count) {
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
  std::vector<uint64_t> codes(count);
  EBI_RETURN_IF_ERROR(ResolveCodes(first_row, count, codes.data()));
  EBI_RETURN_IF_ERROR(WriteCodes(first_row, codes));
  rows_indexed_ += count;
  return Status::OK();
}

Status EncodedIndexBase::MarkDeleted(size_t row) {
  if (!built_) {
    return Status::FailedPrecondition("index not built");
  }
  if (row >= rows_indexed_) {
    return Status::OutOfRange("row out of range");
  }
  if (!mapping_.void_code().has_value()) {
    return Status::OK();
  }
  return WriteCodes(row, {*mapping_.void_code()});
}

bool EncodedIndexBase::MaskUnencodedRows(BitVector* result) {
  if (!mapping_.null_code().has_value() && column_->HasNulls()) {
    // Only a value-binary mapping holds NULL rows without a NULL
    // codeword: they were written as code 0, the bias value's codeword.
    for (size_t row = 0; row < rows_indexed_; ++row) {
      if (column_->ValueIdAt(row) == kNullValueId) {
        result->Reset(row);
      }
    }
  }
  if (mapping_.void_code().has_value()) {
    return false;
  }
  // No void codeword: deleted rows still carry stale value codes, so the
  // existence bitmap must be ANDed — exactly the extra read Theorem 2.1
  // eliminates.
  io_->ChargeVectorRead(existence_->SizeBytes());
  result->AndWith(*existence_);
  return true;
}

Result<BitVector> EncodedIndexBase::EvaluateCharged(const Cover& cover) {
  obs::ScopedSpan span("cover.eval");
  const IoScope scope(io_);
  EBI_ASSIGN_OR_RETURN(BitVector result, EvaluateSlices(cover));
  const bool existence_and = MaskUnencodedRows(&result);
  if (span.active()) {
    // The measured c_e of Section 3.1: distinct slice vectors the reduced
    // expression touched (existence_and marks the Theorem 2.1 extra read).
    span.Attr("minterms", cover.size());
    span.Attr("vectors_read", static_cast<uint64_t>(DistinctVariables(cover)));
    span.Attr("slices_held", NumVectors());
    span.Attr("existence_and", existence_and);
    span.AttrIo(scope.Delta());
  }
  return result;
}

Result<BitVector> EncodedIndexBase::EvaluateIds(
    obs::ScopedSpan& span, const std::vector<ValueId>& ids) {
  if (span.active()) {
    span.Attr("index", Name());
    span.Attr("delta", ids.size());
  }
  EBI_ASSIGN_OR_RETURN(const Cover cover,
                       ReduceSelection(mapping_, ids, options_.reduction));
  return EvaluateCharged(cover);
}

Result<BitVector> EncodedIndexBase::EvaluateIn(
    const std::vector<Value>& values) {
  if (!built_) {
    return Status::FailedPrecondition("index not built");
  }
  obs::ScopedSpan span("index.eval");
  return EvaluateIds(span, IdsOf(values));
}

Result<BitVector> EncodedIndexBase::EvaluateRange(int64_t lo, int64_t hi) {
  if (!built_) {
    return Status::FailedPrecondition("index not built");
  }
  if (column_->type() != Column::Type::kInt64) {
    return Status::InvalidArgument("range selection on non-integer column");
  }
  obs::ScopedSpan span("index.eval");
  return EvaluateIds(span, column_->IdsInRange(lo, hi));
}

Result<BitVector> EncodedIndexBase::EvaluateIsNull() {
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
  return EvaluateCharged(
      {Cube::MinTerm(*mapping_.null_code(), mapping_.width())});
}

Result<Cover> EncodedIndexBase::CoverForIn(
    const std::vector<Value>& values) const {
  if (!built_) {
    return Status::FailedPrecondition("index not built");
  }
  return ReduceSelection(mapping_, IdsOf(values), options_.reduction);
}

Result<int> EncodedIndexBase::AccessCostForIn(
    const std::vector<Value>& values) const {
  EBI_ASSIGN_OR_RETURN(const Cover cover, CoverForIn(values));
  return DistinctVariables(cover);
}

}  // namespace ebi
