#ifndef EBI_INDEX_BIT_SLICED_INDEX_H_
#define EBI_INDEX_BIT_SLICED_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "index/index.h"

namespace ebi {

/// The bit-sliced index of O'Neil & Quass (Section 4 of the paper), for
/// kInt64 columns: bitmap vector S_i holds bit i of (value - bias), i.e.
/// the index is an encoded bitmap index whose encoding is the total-order
/// preserving internal binary representation.
///
/// Range selections run the classic slice-arithmetic comparison (no
/// per-value enumeration), and SUM aggregates are computed directly on the
/// slices — the operations [11] defines bit-sliced indexes for.
class BitSlicedIndex : public SecondaryIndex {
 public:
  BitSlicedIndex(const Column* column, const BitVector* existence,
                 IoAccountant* io)
      : SecondaryIndex(column, existence, io) {}

  std::string Name() const override { return "bit-sliced"; }

  Status Build() override;
  Status Append(size_t row) override;

  Result<BitVector> EvaluateEquals(const Value& value) override;
  Result<BitVector> EvaluateIn(const std::vector<Value>& values) override;
  Result<BitVector> EvaluateRange(int64_t lo, int64_t hi) override;

  size_t SizeBytes() const override;
  size_t NumVectors() const override { return slices_.size(); }

  /// Ranges run two slice-arithmetic passes (2k reads); value sets cost a
  /// pass per value. The existence AND adds one vector.
  double EstimatePages(const SelectionShape& shape) const override {
    const double k = static_cast<double>(slices_.size());
    const double passes =
        shape.kind == SelectionShape::Kind::kRange
            ? 2.0
            : 2.0 * static_cast<double>(shape.delta);
    return (passes * k + 1.0) * PagesPerVector();
  }

  /// SUM(column) over the rows selected by `rows`, evaluated on the slices
  /// as sum_i 2^i * Count(S_i AND rows) + bias * Count(rows). `rows` must
  /// not select NULL or deleted rows (Evaluate* results already comply).
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

  int64_t bias() const { return bias_; }

  void ForEachAuditVector(
      const std::function<void(const AuditableVector&)>& fn) const override {
    for (size_t i = 0; i < slices_.size(); ++i) {
      fn(AuditableVector{"slice", i, &slices_[i]});
    }
  }

 private:
  /// Bitmap of rows with (value - bias) <= c, by most-to-least significant
  /// slice scan. Charges every slice it reads.
  BitVector LessOrEqual(uint64_t c);
  /// Charges a read of slice i.
  void ChargeSlice(size_t i);
  void WriteBiased(size_t row, uint64_t biased);

  bool built_ = false;
  size_t rows_indexed_ = 0;
  int64_t bias_ = 0;
  std::vector<BitVector> slices_;
};

}  // namespace ebi

#endif  // EBI_INDEX_BIT_SLICED_INDEX_H_
