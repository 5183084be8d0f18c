#ifndef EBI_INDEX_RANGE_BASED_BITMAP_INDEX_H_
#define EBI_INDEX_RANGE_BASED_BITMAP_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "index/index.h"

namespace ebi {

/// Options for the range-based bitmap index.
struct RangeBasedBitmapIndexOptions {
  /// Number of equal-population buckets.
  size_t num_buckets = 32;
};

/// The dynamic range-based bitmap index of Wu & Yu (Section 4, [19]):
/// the (integer) domain is partitioned into buckets of roughly equal
/// population — i.e. by the observed value distribution, robust to skew —
/// and one bitmap vector is kept per bucket.
///
/// Wholly covered buckets answer a range directly; boundary buckets yield
/// candidates that must be verified against the attribute values (charged
/// as a projection read), the extra cost the paper's own range-based
/// *encoded* variant avoids by partitioning on predefined predicates.
class RangeBasedBitmapIndex : public SecondaryIndex {
 public:
  RangeBasedBitmapIndex(const Column* column, const BitVector* existence,
                        IoAccountant* io,
                        RangeBasedBitmapIndexOptions options =
                            RangeBasedBitmapIndexOptions())
      : SecondaryIndex(column, existence, io), options_(options) {}

  std::string Name() const override { return "range-based-bitmap"; }

  Status Build() override;
  Status Append(size_t row) override;

  Result<BitVector> EvaluateEquals(const Value& value) override;
  Result<BitVector> EvaluateIn(const std::vector<Value>& values) override;
  Result<BitVector> EvaluateRange(int64_t lo, int64_t hi) override;

  size_t SizeBytes() const override;
  size_t NumVectors() const override { return bitmaps_.size(); }

  /// Covered buckets are vector reads; the two boundary buckets add a
  /// candidate check per row they hold (n / #buckets fetches each).
  double EstimatePages(const SelectionShape& shape) const override {
    if (bitmaps_.empty()) {
      return 1.0;
    }
    const double buckets = static_cast<double>(bitmaps_.size());
    const double covered = std::min(
        buckets, static_cast<double>(shape.delta) * buckets /
                     std::max<double>(1.0, column_->Cardinality()));
    const double rows_per_bucket =
        static_cast<double>(NumRows()) / buckets;
    const double boundary =
        shape.kind == SelectionShape::Kind::kRange ? 2.0 : 1.0;
    const double check_pages =
        boundary * rows_per_bucket * sizeof(int64_t) /
        static_cast<double>(io_->page_size());
    return (covered + boundary + 1.0) * PagesPerVector() + check_pages;
  }

  /// Bucket lower bounds (bucket i spans [bounds_[i], bounds_[i+1]), the
  /// last bucket is unbounded above).
  const std::vector<int64_t>& bucket_lower_bounds() const { return bounds_; }

  /// Rows verified one-by-one during the last range query (the candidate-
  /// check overhead of boundary buckets).
  size_t last_candidates_checked() const { return last_candidates_; }

  void ForEachAuditVector(
      const std::function<void(const AuditableVector&)>& fn) const override {
    for (size_t i = 0; i < bitmaps_.size(); ++i) {
      fn(AuditableVector{"bucket", i, &bitmaps_[i]});
    }
  }

 private:
  size_t BucketOf(int64_t v) const;
  /// Verifies candidate rows of a partially covered bucket.
  void VerifyBucket(size_t bucket, int64_t lo, int64_t hi, BitVector* out);

  RangeBasedBitmapIndexOptions options_;
  bool built_ = false;
  size_t rows_indexed_ = 0;
  std::vector<int64_t> bounds_;  // bounds_[i] = lower bound of bucket i.
  /// One plain vector per bucket.
  std::vector<BitVector> bitmaps_;
  size_t last_candidates_ = 0;
};

}  // namespace ebi

#endif  // EBI_INDEX_RANGE_BASED_BITMAP_INDEX_H_
