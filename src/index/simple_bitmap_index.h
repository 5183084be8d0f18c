#ifndef EBI_INDEX_SIMPLE_BITMAP_INDEX_H_
#define EBI_INDEX_SIMPLE_BITMAP_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "index/index.h"
#include "util/bitvector.h"

namespace ebi {

/// The simple (value-list) bitmap index of Section 2.1: one bitmap vector
/// B_v per distinct value v, plus a NULL vector when the column has NULLs.
///
/// A selection reads one vector per selected value (c_s = δ, Section 3.1)
/// and always ANDs the existence bitmap, which the paper contrasts with
/// Theorem 2.1's free existence handling in encoded indexes.
class SimpleBitmapIndex : public SecondaryIndex {
 public:
  SimpleBitmapIndex(const Column* column, const BitVector* existence,
                    IoAccountant* io)
      : SecondaryIndex(column, existence, io) {}

  std::string Name() const override { return "simple-bitmap"; }

  Status Build() override;
  Status Append(size_t row) override;

  /// Copy-on-write clone for snapshot publication: copies the per-value
  /// vectors as built, rebinding to the target table's column/existence.
  Result<std::unique_ptr<SecondaryIndex>> CloneRebound(
      const Column* column, const BitVector* existence,
      IoAccountant* io) const override;

  Result<BitVector> EvaluateEquals(const Value& value) override;
  Result<BitVector> EvaluateIn(const std::vector<Value>& values) override;
  Result<BitVector> EvaluateRange(int64_t lo, int64_t hi) override;

  size_t SizeBytes() const override;
  size_t NumVectors() const override;

  /// Section 3.1: c_s = δ vectors plus the mandatory existence AND.
  double EstimatePages(const SelectionShape& shape) const override {
    return (static_cast<double>(shape.delta) + 1.0) * PagesPerVector();
  }

  /// Rows whose column is NULL (reads the dedicated NULL vector).
  Result<BitVector> EvaluateIsNull() override;
  bool SupportsIsNull() const override { return true; }

  /// Average sparsity over all value vectors — the (m-1)/m quantity of
  /// Section 2.1.
  double AverageSparsity() const;

  void ForEachAuditVector(
      const std::function<void(const AuditableVector&)>& fn) const override {
    for (size_t i = 0; i < vectors_.size(); ++i) {
      fn(AuditableVector{"value", i, &vectors_[i]});
    }
    if (!null_vector_.empty()) {
      fn(AuditableVector{"null", 0, &null_vector_});
    }
  }

 private:
  /// Evaluates an IN-list given resolved value ids.
  Result<BitVector> EvaluateIds(const std::vector<ValueId>& ids);

  bool built_ = false;
  size_t rows_indexed_ = 0;
  /// One vector per value.
  std::vector<BitVector> vectors_;
  /// B_NULL (always plain — read whole on every IS NULL).
  BitVector null_vector_;
};

}  // namespace ebi

#endif  // EBI_INDEX_SIMPLE_BITMAP_INDEX_H_
