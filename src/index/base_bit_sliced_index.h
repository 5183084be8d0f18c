#ifndef EBI_INDEX_BASE_BIT_SLICED_INDEX_H_
#define EBI_INDEX_BASE_BIT_SLICED_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "index/index.h"

namespace ebi {

/// Options for the non-binary-base bit-sliced index.
struct BaseBitSlicedIndexOptions {
  /// Digit base. 2 reduces to the classic bit-sliced index (one vector per
  /// digit position holding the digit... with base 2 the equality-encoded
  /// digit keeps two vectors, so prefer BitSlicedIndex for base 2).
  uint32_t base = 10;
};

/// Bit-sliced index with a non-binary base, the [11] variant Section 4
/// mentions: (value - bias) is written in base-b digits and every digit
/// position keeps one bitmap vector per digit value ("equality-encoded"
/// digits). With d = ceil(log_b range) digit positions the index holds
/// b*d vectors; point queries AND d vectors (one per position) instead of
/// the binary index's ceil(log2 range) — the classic space/time knob
/// between simple bitmaps (b = m, one digit) and binary slices (b = 2).
class BaseBitSlicedIndex : public SecondaryIndex {
 public:
  BaseBitSlicedIndex(const Column* column, const BitVector* existence,
                     IoAccountant* io,
                     BaseBitSlicedIndexOptions options =
                         BaseBitSlicedIndexOptions())
      : SecondaryIndex(column, existence, io), options_(options) {}

  std::string Name() const override {
    return "bit-sliced-base" + std::to_string(options_.base);
  }

  Status Build() override;
  Status Append(size_t row) override;

  Result<BitVector> EvaluateEquals(const Value& value) override;
  Result<BitVector> EvaluateIn(const std::vector<Value>& values) override;
  Result<BitVector> EvaluateRange(int64_t lo, int64_t hi) override;

  size_t SizeBytes() const override;
  size_t NumVectors() const override {
    return digits_.empty() ? 0 : digits_.size() * options_.base;
  }

  /// Points AND one vector per digit position; ranges touch up to base
  /// vectors per position per comparison pass.
  double EstimatePages(const SelectionShape& shape) const override {
    const double d = static_cast<double>(digits_.size());
    const double b = static_cast<double>(options_.base);
    double vectors = 0;
    switch (shape.kind) {
      case SelectionShape::Kind::kPoint:
        vectors = d;
        break;
      case SelectionShape::Kind::kValueSet:
        vectors = d * static_cast<double>(shape.delta);
        break;
      case SelectionShape::Kind::kRange:
        vectors = 2.0 * d * b / 2.0;  // Avg half the digits per position.
        break;
    }
    return (vectors + 1.0) * PagesPerVector();
  }

  /// Number of digit positions d.
  size_t NumDigits() const { return digits_.size(); }
  int64_t bias() const { return bias_; }

  void ForEachAuditVector(
      const std::function<void(const AuditableVector&)>& fn) const override {
    for (size_t pos = 0; pos < digits_.size(); ++pos) {
      for (size_t digit = 0; digit < digits_[pos].size(); ++digit) {
        fn(AuditableVector{"digit", pos * options_.base + digit,
                           &digits_[pos][digit]});
      }
    }
  }

 private:
  /// Bitmap of rows whose biased value is <= c, via digit-wise
  /// most-significant-first comparison.
  BitVector LessOrEqual(uint64_t c);
  /// Digit `pos` of `biased`.
  uint32_t DigitOf(uint64_t biased, size_t pos) const;
  void ChargeVector(size_t pos, uint32_t digit);
  void WriteBiased(size_t row, uint64_t biased);
  /// Masks NULL and deleted rows out of `result` (charging existence).
  void MaskInvalid(BitVector* result);

  BaseBitSlicedIndexOptions options_;
  bool built_ = false;
  size_t rows_indexed_ = 0;
  int64_t bias_ = 0;
  /// digits_[pos][digit] = bitmap of rows whose digit at `pos` equals
  /// `digit`; pos 0 is the least significant digit.
  std::vector<std::vector<BitVector>> digits_;
  std::vector<uint64_t> position_weight_;  // base^pos.
};

}  // namespace ebi

#endif  // EBI_INDEX_BASE_BIT_SLICED_INDEX_H_
