#ifndef EBI_INDEX_BIT_SLICED_INDEX_H_
#define EBI_INDEX_BIT_SLICED_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "index/encoded_bitmap_index.h"

namespace ebi {

/// The bit-sliced index of O'Neil & Quass (Section 4 of the paper), for
/// kInt64 columns: slice S_i holds bit i of (value - bias). As the paper
/// notes, it is the encoded bitmap index whose mapping is the internal
/// binary representation — the total-order preserving special case of
/// Definition 2.1 — so it is an EncodedBitmapIndex preset with the
/// value-binary mapping (EncodingStrategy::kValueBinary). Points and
/// IN-lists run through the reduced retrieval cover, appends take the
/// value's own code and grow the slices upward, and a value below the bias
/// reports Unimplemented.
///
/// What the preset adds are the operations [11] defines bit-sliced
/// indexes for, computed on the slices alone: the slice-arithmetic range
/// comparison (no per-value enumeration, no reduction) and the aggregates.
/// Each aggregate takes a selection that must not hold NULL or deleted
/// rows (Evaluate* results already comply).
class BitSlicedIndex : public EncodedBitmapIndex {
 public:
  BitSlicedIndex(const Column* column, const BitVector* existence,
                 IoAccountant* io)
      : EncodedBitmapIndex(column, existence, io, {}, "bit-sliced") {
    options_.strategy = EncodingStrategy::kValueBinary;
  }

  /// Two LessOrEqual passes over the slices: at most 2k reads, plus the
  /// existence AND.
  Result<BitVector> EvaluateRange(int64_t lo, int64_t hi) override;

  /// Ranges cost the two comparator passes; value sets cost the cover.
  double EstimatePages(const SelectionShape& shape) const override {
    if (shape.kind != SelectionShape::Kind::kRange) {
      return EncodedBitmapIndex::EstimatePages(shape);
    }
    return (2.0 * static_cast<double>(NumVectors()) + 1.0) *
           PagesPerVector();
  }

  /// SUM(column) over the rows selected by `rows`:
  /// sum_i 2^i * Count(S_i AND rows) + bias * Count(rows).
  Result<int64_t> Sum(const BitVector& rows);

  /// MIN / MAX over the selected rows by most-significant-slice descent
  /// (O(k) slice reads, no data access). NotFound on an empty selection.
  Result<int64_t> Min(const BitVector& rows);
  Result<int64_t> Max(const BitVector& rows);

  /// The q-quantile (0 < q <= 1) of the selected rows' values, computed by
  /// rank descent over the slices — the paper's Section 5 median / N-tile
  /// aggregates. q = 0.5 is the (lower) median: the ceil(q*count)-th
  /// smallest value.
  Result<int64_t> Quantile(const BitVector& rows, double q);

  /// The value of code 0: the column minimum at Build().
  int64_t bias() const { return value_bias_.value_or(0); }

 protected:
  std::unique_ptr<EncodedBitmapIndex> NewOfSameClass(
      const Column* column, const BitVector* existence,
      IoAccountant* io) const override {
    return std::make_unique<BitSlicedIndex>(column, existence, io);
  }

 private:
  /// Bitmap of rows with (value - bias) <= c, by most-to-least
  /// significant slice scan. Charges every slice it reads.
  BitVector LessOrEqual(uint64_t c);
  /// Checks that the index is built and `rows` spans it.
  Status CheckSelection(const BitVector& rows) const;
  /// Charges a read of slice i.
  void ChargeSlice(size_t i);
};

}  // namespace ebi

#endif  // EBI_INDEX_BIT_SLICED_INDEX_H_
