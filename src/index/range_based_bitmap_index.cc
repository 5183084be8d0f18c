#include "index/range_based_bitmap_index.h"

#include <algorithm>

#include "obs/trace.h"

namespace ebi {

Status RangeBasedBitmapIndex::Build() {
  if (column_->type() != Column::Type::kInt64) {
    return Status::InvalidArgument(
        "range-based bitmap index requires an integer column");
  }
  const size_t n = column_->size();

  // Equal-population bucket bounds from the sorted non-NULL values.
  std::vector<int64_t> values;
  values.reserve(n);
  for (size_t row = 0; row < n; ++row) {
    const ValueId id = column_->ValueIdAt(row);
    if (id != kNullValueId) {
      values.push_back(column_->ValueOf(id).int_value);
    }
  }
  std::sort(values.begin(), values.end());

  const size_t buckets =
      std::max<size_t>(1, std::min(options_.num_buckets,
                                   std::max<size_t>(1, values.size())));
  bounds_.clear();
  bounds_.reserve(buckets);
  for (size_t b = 0; b < buckets; ++b) {
    const size_t pos = values.empty() ? 0 : b * values.size() / buckets;
    const int64_t bound = values.empty() ? 0 : values[pos];
    // Keep bounds strictly increasing (skewed data can repeat quantiles).
    if (bounds_.empty() || bound > bounds_.back()) {
      bounds_.push_back(bound);
    }
  }

  bitmaps_.assign(bounds_.size(), BitVector(n));
  for (size_t row = 0; row < n; ++row) {
    const ValueId id = column_->ValueIdAt(row);
    if (id == kNullValueId) {
      continue;
    }
    bitmaps_[BucketOf(column_->ValueOf(id).int_value)].Set(row);
  }
  rows_indexed_ = n;
  built_ = true;
  return Status::OK();
}

size_t RangeBasedBitmapIndex::BucketOf(int64_t v) const {
  // Last bound <= v; values below every bound fall into bucket 0.
  const auto it = std::upper_bound(bounds_.begin(), bounds_.end(), v);
  if (it == bounds_.begin()) {
    return 0;
  }
  return static_cast<size_t>(it - bounds_.begin()) - 1;
}

Status RangeBasedBitmapIndex::Append(size_t row) {
  if (!built_) {
    return Status::FailedPrecondition("index not built");
  }
  if (row != rows_indexed_) {
    return Status::InvalidArgument("rows must be appended in order");
  }
  const ValueId id = column_->ValueIdAt(row);
  for (size_t b = 0; b < bitmaps_.size(); ++b) {
    bool set = false;
    if (id != kNullValueId) {
      set = BucketOf(column_->ValueOf(id).int_value) == b;
    }
    bitmaps_[b].PushBack(set);
  }
  ++rows_indexed_;
  return Status::OK();
}

void RangeBasedBitmapIndex::VerifyBucket(size_t bucket, int64_t lo,
                                         int64_t hi, BitVector* out) {
  io_->ChargeVectorRead(bitmaps_[bucket].SizeBytes());
  bitmaps_[bucket].ForEachSetBit([&](size_t row) {
    // Candidate check: each candidate costs an attribute fetch.
    ++last_candidates_;
    io_->ChargeBytes(sizeof(int64_t));
    const ValueId id = column_->ValueIdAt(row);
    const int64_t v = column_->ValueOf(id).int_value;
    if (v >= lo && v <= hi) {
      out->Set(row);
    }
  });
}

Result<BitVector> RangeBasedBitmapIndex::EvaluateRange(int64_t lo,
                                                       int64_t hi) {
  if (!built_) {
    return Status::FailedPrecondition("index not built");
  }
  obs::ScopedSpan span("index.eval");
  const IoScope scope(io_);
  last_candidates_ = 0;
  BitVector result(rows_indexed_);
  if (lo > hi) {
    return result;
  }
  const size_t first = BucketOf(lo);
  const size_t last = BucketOf(hi);
  size_t buckets_read = 0;
  for (size_t b = first; b <= last && b < bitmaps_.size(); ++b) {
    ++buckets_read;
    const int64_t bucket_lo = bounds_[b];
    const bool has_upper = b + 1 < bounds_.size();
    const int64_t bucket_hi_excl = has_upper ? bounds_[b + 1] : 0;
    const bool fully_covered =
        lo <= bucket_lo && (has_upper ? hi >= bucket_hi_excl - 1 : false);
    if (fully_covered) {
      io_->ChargeVectorRead(bitmaps_[b].SizeBytes());
      result.OrWith(bitmaps_[b]);
    } else {
      VerifyBucket(b, lo, hi, &result);
    }
  }
  io_->ChargeVectorRead(existence_->SizeBytes());
  result.AndWith(*existence_);
  if (span.active()) {
    span.Attr("index", Name());
    span.Attr("buckets", buckets_read);
    span.Attr("candidates", last_candidates_);
    span.Attr("existence_and", true);
    span.AttrIo(scope.Delta());
  }
  return result;
}

Result<BitVector> RangeBasedBitmapIndex::EvaluateEquals(const Value& value) {
  if (!built_) {
    return Status::FailedPrecondition("index not built");
  }
  if (value.kind != Value::Kind::kInt64) {
    return BitVector(rows_indexed_);
  }
  return EvaluateRange(value.int_value, value.int_value);
}

Result<BitVector> RangeBasedBitmapIndex::EvaluateIn(
    const std::vector<Value>& values) {
  if (!built_) {
    return Status::FailedPrecondition("index not built");
  }
  BitVector result(rows_indexed_);
  size_t candidates = 0;
  for (const Value& v : values) {
    EBI_ASSIGN_OR_RETURN(const BitVector one, EvaluateEquals(v));
    candidates += last_candidates_;
    result.OrWith(one);
  }
  last_candidates_ = candidates;
  return result;
}

size_t RangeBasedBitmapIndex::SizeBytes() const {
  size_t total = bounds_.size() * sizeof(int64_t);
  for (const BitVector& b : bitmaps_) {
    total += b.SizeBytes();
  }
  return total;
}

}  // namespace ebi
