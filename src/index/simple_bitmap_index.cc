#include "index/simple_bitmap_index.h"

#include <utility>

#include "obs/trace.h"

namespace ebi {

Status SimpleBitmapIndex::Build() {
  const size_t n = column_->size();
  const size_t m = column_->Cardinality();
  vectors_.assign(m, BitVector(n));
  null_vector_ = BitVector(n);
  for (size_t row = 0; row < n; ++row) {
    const ValueId id = column_->ValueIdAt(row);
    if (id == kNullValueId) {
      null_vector_.Set(row);
    } else {
      vectors_[id].Set(row);
    }
  }
  rows_indexed_ = n;
  built_ = true;
  return Status::OK();
}

Status SimpleBitmapIndex::Append(size_t row) {
  if (!built_) {
    return Status::FailedPrecondition("index not built");
  }
  if (row != rows_indexed_) {
    return Status::InvalidArgument("rows must be appended in order");
  }
  const ValueId id = column_->ValueIdAt(row);

  // Domain expansion: a new value needs a brand-new vector of `row` zero
  // bits — the O(|T|) maintenance cost of Section 3.1.
  if (id != kNullValueId && id >= vectors_.size()) {
    vectors_.resize(id + 1, BitVector(row));
  }

  // Extend every vector by one bit.
  for (size_t v = 0; v < vectors_.size(); ++v) {
    vectors_[v].PushBack(id != kNullValueId && v == id);
  }
  null_vector_.PushBack(id == kNullValueId);
  ++rows_indexed_;
  return Status::OK();
}

Result<std::unique_ptr<SecondaryIndex>> SimpleBitmapIndex::CloneRebound(
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
  auto clone = std::make_unique<SimpleBitmapIndex>(column, existence, io);
  clone->vectors_ = vectors_;
  clone->null_vector_ = null_vector_;
  clone->rows_indexed_ = rows_indexed_;
  clone->built_ = true;
  return std::unique_ptr<SecondaryIndex>(std::move(clone));
}

Result<BitVector> SimpleBitmapIndex::EvaluateIds(
    const std::vector<ValueId>& ids) {
  obs::ScopedSpan span("index.eval");
  const IoScope scope(io_);
  BitVector result(rows_indexed_);
  // Union the selected vectors where they are stored, with one fused
  // kernel pass rather than a chain of binary ORs. Each selected vector
  // is charged as one read.
  std::vector<const BitVector*> operands;
  operands.reserve(ids.size());
  for (ValueId id : ids) {
    io_->ChargeVectorRead(vectors_[id].SizeBytes());
    operands.push_back(&vectors_[id]);
  }
  if (!operands.empty()) {
    result.OrWithMany(operands);
  }
  // Simple bitmap indexing must always AND the existence vector (the
  // contrast Theorem 2.1 draws with void-aware encodings).
  io_->ChargeVectorRead(existence_->SizeBytes());
  result.AndWith(*existence_);
  if (span.active()) {
    span.Attr("index", Name());
    // One vector per selected value plus the existence AND — the paper's
    // c_s = δ (+1) cost a simple bitmap pays.
    span.Attr("delta", ids.size());
    span.Attr("existence_and", true);
    span.AttrIo(scope.Delta());
  }
  return result;
}

Result<BitVector> SimpleBitmapIndex::EvaluateEquals(const Value& value) {
  if (!built_) {
    return Status::FailedPrecondition("index not built");
  }
  return EvaluateIds(IdsOf({value}));
}

Result<BitVector> SimpleBitmapIndex::EvaluateIn(
    const std::vector<Value>& values) {
  if (!built_) {
    return Status::FailedPrecondition("index not built");
  }
  return EvaluateIds(IdsOf(values));
}

Result<BitVector> SimpleBitmapIndex::EvaluateRange(int64_t lo, int64_t hi) {
  if (!built_) {
    return Status::FailedPrecondition("index not built");
  }
  if (column_->type() != Column::Type::kInt64) {
    return Status::InvalidArgument("range selection on non-integer column");
  }
  return EvaluateIds(column_->IdsInRange(lo, hi));
}

Result<BitVector> SimpleBitmapIndex::EvaluateIsNull() {
  if (!built_) {
    return Status::FailedPrecondition("index not built");
  }
  obs::ScopedSpan span("index.eval");
  if (span.active()) {
    span.Attr("index", Name());
    span.Attr("op", "is_null");
  }
  io_->ChargeVectorRead(null_vector_.SizeBytes());
  BitVector result = null_vector_;
  io_->ChargeVectorRead(existence_->SizeBytes());
  result.AndWith(*existence_);
  return result;
}

size_t SimpleBitmapIndex::SizeBytes() const {
  size_t total = null_vector_.SizeBytes();
  for (const BitVector& v : vectors_) {
    total += v.SizeBytes();
  }
  return total;
}

size_t SimpleBitmapIndex::NumVectors() const {
  return vectors_.size() + (column_->HasNulls() ? 1 : 0);
}

double SimpleBitmapIndex::AverageSparsity() const {
  const size_t m = vectors_.size();
  if (m == 0 || rows_indexed_ == 0) {
    return 0.0;
  }
  double total = 0.0;
  for (const BitVector& v : vectors_) {
    total += v.Sparsity();
  }
  return total / static_cast<double>(m);
}

}  // namespace ebi
