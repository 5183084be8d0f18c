#include "index/bit_sliced_index.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"

namespace ebi {

Status BitSlicedIndex::CheckSelection(const BitVector& rows) const {
  if (!built_) {
    return Status::FailedPrecondition("index not built");
  }
  if (rows.size() != rows_indexed_) {
    return Status::InvalidArgument("selection bitmap size mismatch");
  }
  return Status::OK();
}

void BitSlicedIndex::ChargeSlice(size_t i) {
  io_->ChargeVectorRead(slices()[i].SizeBytes());
}

BitVector BitSlicedIndex::LessOrEqual(uint64_t c) {
  // Classic slice-arithmetic comparison: walk from the most significant
  // slice, maintaining "strictly less so far" and "equal so far" bitmaps.
  BitVector lt(rows_indexed_);
  BitVector eq(rows_indexed_, true);
  for (size_t bit = slices().size(); bit-- > 0;) {
    ChargeSlice(bit);
    if ((c >> bit) & 1) {
      // Rows equal so far with a 0 here become strictly less.
      BitVector step = eq;
      step.AndNotWith(slices()[bit]);
      lt.OrWith(step);
      eq.AndWith(slices()[bit]);
    } else {
      eq.AndNotWith(slices()[bit]);
    }
  }
  lt.OrWith(eq);
  return lt;
}

Result<BitVector> BitSlicedIndex::EvaluateRange(int64_t lo, int64_t hi) {
  if (!built_) {
    return Status::FailedPrecondition("index not built");
  }
  obs::ScopedSpan span("index.eval");
  const IoScope scope(io_);
  if (span.active()) {
    span.Attr("index", Name());
    span.Attr("slices_held", NumVectors());
  }
  const int64_t bias = this->bias();
  const int64_t max_biased =
      static_cast<int64_t>((uint64_t{1} << slices().size()) - 1);
  if (lo > hi || hi < bias || lo > bias + max_biased) {
    return BitVector(rows_indexed_);
  }
  BitVector result =
      LessOrEqual(static_cast<uint64_t>(std::min(hi - bias, max_biased)));
  if (lo > bias) {
    result.AndNotWith(LessOrEqual(static_cast<uint64_t>(lo - bias - 1)));
  }
  const bool existence_and = MaskUnencodedRows(&result);
  if (span.active()) {
    span.Attr("existence_and", existence_and);
    span.AttrIo(scope.Delta());
  }
  return result;
}

Result<int64_t> BitSlicedIndex::Sum(const BitVector& rows) {
  EBI_RETURN_IF_ERROR(CheckSelection(rows));
  int64_t total = 0;
  for (size_t i = 0; i < slices().size(); ++i) {
    ChargeSlice(i);
    total += static_cast<int64_t>(And(slices()[i], rows).Count()) << i;
  }
  total += bias() * static_cast<int64_t>(rows.Count());
  return total;
}

Result<int64_t> BitSlicedIndex::Min(const BitVector& rows) {
  EBI_RETURN_IF_ERROR(CheckSelection(rows));
  if (rows.IsZero()) {
    return Status::NotFound("empty selection");
  }
  BitVector candidates = rows;
  uint64_t value = 0;
  for (size_t bit = slices().size(); bit-- > 0;) {
    ChargeSlice(bit);
    BitVector zeros = candidates;
    zeros.AndNotWith(slices()[bit]);
    if (!zeros.IsZero()) {
      candidates = std::move(zeros);  // Some candidate has 0 here: min does.
    } else {
      value |= uint64_t{1} << bit;  // All candidates have 1 here.
    }
  }
  return bias() + static_cast<int64_t>(value);
}

Result<int64_t> BitSlicedIndex::Max(const BitVector& rows) {
  EBI_RETURN_IF_ERROR(CheckSelection(rows));
  if (rows.IsZero()) {
    return Status::NotFound("empty selection");
  }
  BitVector candidates = rows;
  uint64_t value = 0;
  for (size_t bit = slices().size(); bit-- > 0;) {
    ChargeSlice(bit);
    BitVector ones = And(candidates, slices()[bit]);
    if (!ones.IsZero()) {
      candidates = std::move(ones);
      value |= uint64_t{1} << bit;
    }
  }
  return bias() + static_cast<int64_t>(value);
}

Result<int64_t> BitSlicedIndex::Quantile(const BitVector& rows, double q) {
  EBI_RETURN_IF_ERROR(CheckSelection(rows));
  if (q <= 0.0 || q > 1.0) {
    return Status::InvalidArgument("quantile must be in (0, 1]");
  }
  const size_t count = rows.Count();
  if (count == 0) {
    return Status::NotFound("empty selection");
  }
  // Rank of the requested quantile, 1-based: the ceil(q*count)-th
  // smallest.
  size_t rank = static_cast<size_t>(q * static_cast<double>(count));
  if (static_cast<double>(rank) < q * static_cast<double>(count)) {
    ++rank;
  }
  rank = std::max<size_t>(rank, 1);

  BitVector candidates = rows;
  uint64_t value = 0;
  for (size_t bit = slices().size(); bit-- > 0;) {
    ChargeSlice(bit);
    BitVector zeros = candidates;
    zeros.AndNotWith(slices()[bit]);
    const size_t zero_count = zeros.Count();
    if (rank <= zero_count) {
      candidates = std::move(zeros);
    } else {
      rank -= zero_count;
      candidates.AndWith(slices()[bit]);
      value |= uint64_t{1} << bit;
    }
  }
  return bias() + static_cast<int64_t>(value);
}

}  // namespace ebi
