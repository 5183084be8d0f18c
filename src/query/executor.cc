#include "query/executor.h"

#include <algorithm>
#include <chrono>

#include "obs/metrics.h"

namespace ebi {

Result<SelectionShape> SelectionExecutor::ShapeOf(
    const Predicate& predicate) const {
  EBI_ASSIGN_OR_RETURN(const Column* column,
                       table_->FindColumn(predicate.column));
  SelectionShape shape;
  switch (predicate.kind) {
    case Predicate::Kind::kEquals:
    case Predicate::Kind::kIsNull:
    case Predicate::Kind::kNotEquals:
      shape.kind = SelectionShape::Kind::kPoint;
      shape.delta = 1;
      break;
    case Predicate::Kind::kIn:
    case Predicate::Kind::kNotIn:
      shape.kind = SelectionShape::Kind::kValueSet;
      shape.delta = std::max<size_t>(1, predicate.values.size());
      break;
    case Predicate::Kind::kRange:
      shape.kind = SelectionShape::Kind::kRange;
      shape.delta = std::max<size_t>(1, predicate.Width(*column));
      break;
  }
  return shape;
}

Result<AccessPath> SelectionExecutor::Choose(
    const Predicate& predicate) const {
  obs::ScopedSpan span("plan.choose");
  EBI_ASSIGN_OR_RETURN(const SelectionShape shape, ShapeOf(predicate));
  AccessPath best;
  best.delta = shape.delta;
  size_t seen = 0;
  for (const Candidate& candidate : candidates_) {
    if (candidate.column != predicate.column) {
      continue;
    }
    // Numbered by order among the column's candidates, so two same-named
    // indexes on a column stay distinguishable.
    const size_t number = seen++;
    SecondaryIndex* index = candidate.index;
    if (predicate.kind == Predicate::Kind::kIsNull &&
        !index->SupportsIsNull()) {
      continue;
    }
    const double pages = index->EstimatePages(shape);
    if (span.active()) {
      span.Attr("cand." + std::to_string(number) + "." + index->Name(),
                pages);
    }
    if (best.index == nullptr || pages < best.estimated_pages) {
      best.index = index;
      best.estimated_pages = pages;
    }
  }
  if (seen == 0) {
    return Status::NotFound("no index registered for column " +
                            predicate.column);
  }
  if (best.index == nullptr) {
    return Status::NotFound("no index on " + predicate.column +
                            " supports " + predicate.ToString());
  }
  if (span.active()) {
    span.Attr("chosen", best.index->Name());
    span.Attr("est_pages", best.estimated_pages);
    span.Attr("delta", best.delta);
  }
  return best;
}

Result<BitVector> SelectionExecutor::EvaluateOne(
    const Predicate& p, std::vector<AccessPath>* paths) {
  SecondaryIndex* only = nullptr;
  size_t candidates = 0;
  for (const Candidate& candidate : candidates_) {
    if (candidate.column == p.column) {
      only = candidate.index;
      ++candidates;
    }
  }
  if (candidates == 0) {
    return Status::NotFound("no index registered for column " + p.column);
  }
  obs::ScopedSpan span("predicate");
  if (span.active()) {
    span.Attr("column", p.column);
    span.Attr("pred", p.ToString());
  }
  if (candidates == 1 && paths == nullptr) {
    if (span.active()) {
      span.Attr("index", only->Name());
    }
    return Evaluate(p, only);
  }
  EBI_ASSIGN_OR_RETURN(const AccessPath path, Choose(p));
  if (paths != nullptr) {
    paths->push_back(path);
  }
  if (span.active()) {
    span.Attr("index", path.index->Name());
  }
  const IoScope scope(io_);
  EBI_ASSIGN_OR_RETURN(BitVector rows, Evaluate(p, path.index));
  const IoStats actual = scope.Delta();
  obs::RecordEstimateError(path.estimated_pages,
                           static_cast<double>(actual.pages_read));
  if (span.active()) {
    span.Attr("rows", rows.Count());
    span.AttrIo(actual);
  }
  return rows;
}

Result<BitVector> SelectionExecutor::Evaluate(const Predicate& p,
                                              SecondaryIndex* index) const {
  switch (p.kind) {
    case Predicate::Kind::kEquals:
      return index->EvaluateEquals(p.value);
    case Predicate::Kind::kIn:
      return index->EvaluateIn(p.values);
    case Predicate::Kind::kRange:
      return index->EvaluateRange(p.lo, p.hi);
    case Predicate::Kind::kIsNull:
      return index->EvaluateIsNull();
    case Predicate::Kind::kNotEquals:
    case Predicate::Kind::kNotIn: {
      // Negation as bitmap complement, restricted to existing non-NULL
      // rows (SQL: NULL satisfies neither side of !=).
      EBI_ASSIGN_OR_RETURN(BitVector rows, Evaluate(p.Positive(), index));
      rows.FlipAll();
      rows.AndWith(table_->existence());
      EBI_RETURN_IF_ERROR(MaskNulls(p.column, index, &rows));
      return rows;
    }
  }
  return Status::Internal("unknown predicate kind");
}

Status SelectionExecutor::MaskNulls(const std::string& column_name,
                                    SecondaryIndex* index,
                                    BitVector* rows) const {
  EBI_ASSIGN_OR_RETURN(const Column* column,
                       table_->FindColumn(column_name));
  if (!column->HasNulls()) {
    return Status::OK();
  }
  if (index->SupportsIsNull()) {
    EBI_ASSIGN_OR_RETURN(const BitVector nulls, index->EvaluateIsNull());
    rows->AndNotWith(nulls);
    return Status::OK();
  }
  // Fallback: scan the column's id array for NULL cells (charged).
  io_->ChargeBytes(column->RowBytes());
  for (size_t row = 0; row < column->size(); ++row) {
    if (column->ValueIdAt(row) == kNullValueId) {
      rows->Reset(row);
    }
  }
  return Status::OK();
}

Result<SelectionResult> SelectionExecutor::Select(
    const std::vector<Predicate>& predicates,
    std::vector<AccessPath>* paths) {
  obs::ScopedSpan span("executor.select");
  const auto started = std::chrono::steady_clock::now();
  const IoScope scope(io_);
  // With no predicate every live row qualifies; otherwise `rows` is
  // replaced by the first evaluated predicate below.
  BitVector rows;
  if (predicates.empty()) {
    rows = BitVector(table_->NumRows(), true);
    rows.AndWith(table_->existence());
  }
  // Evaluate every predicate first, then intersect all result vectors in
  // one fused kernel pass instead of a chain of binary ANDs.
  std::vector<BitVector> evaluated;
  evaluated.reserve(predicates.size());
  std::vector<PredicateStat> stats;
  if (predicate_stats_) {
    stats.reserve(predicates.size());
  }
  for (const Predicate& predicate : predicates) {
    EBI_ASSIGN_OR_RETURN(BitVector one, EvaluateOne(predicate, paths));
    if (predicate_stats_) {
      PredicateStat stat;
      stat.column = predicate.column;
      stat.op = predicate.OpTag();
      stat.fingerprint = predicate.Fingerprint();
      stat.rows = one.Count();
      stats.push_back(std::move(stat));
    }
    evaluated.push_back(std::move(one));
  }
  if (!evaluated.empty()) {
    rows = std::move(evaluated.front());
    std::vector<const BitVector*> rest;
    rest.reserve(evaluated.size() - 1);
    for (size_t i = 1; i < evaluated.size(); ++i) {
      rest.push_back(&evaluated[i]);
    }
    if (!rest.empty()) {
      rows.AndWithMany(rest);
    }
  }
  SelectionResult result;
  result.count = rows.Count();
  result.rows = std::move(rows);
  result.io = scope.Delta();
  result.predicate_stats = std::move(stats);
  obs::RecordQuery(result.io,
                   std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - started)
                       .count());
  if (span.active()) {
    span.Attr("predicates", predicates.size());
    span.Attr("rows", result.count);
    span.AttrIo(result.io);
  }
  return result;
}

Result<SelectionResult> SelectionExecutor::ExplainSelect(
    const std::vector<Predicate>& predicates, obs::QueryTrace* trace,
    std::vector<AccessPath>* paths) {
  const obs::TraceScope install(trace);
  return Select(predicates, paths);
}

Result<SelectionResult> SelectionExecutor::SelectDnf(
    const std::vector<std::vector<Predicate>>& branches) {
  // Query metrics are recorded by the per-branch Select calls; the DNF
  // wrapper only contributes a grouping span.
  obs::ScopedSpan span("executor.select_dnf");
  const IoScope scope(io_);
  // An empty disjunction is false: zero branches leave `rows` empty.
  BitVector rows(table_->NumRows());
  // Run every branch, then union the branch vectors in one fused pass.
  std::vector<BitVector> branch_rows;
  branch_rows.reserve(branches.size());
  for (const std::vector<Predicate>& branch : branches) {
    EBI_ASSIGN_OR_RETURN(SelectionResult one, Select(branch));
    branch_rows.push_back(std::move(one.rows));
  }
  std::vector<const BitVector*> operands;
  operands.reserve(branch_rows.size());
  for (const BitVector& branch : branch_rows) {
    operands.push_back(&branch);
  }
  if (!operands.empty()) {
    rows.OrWithMany(operands);
  }
  SelectionResult result;
  result.count = rows.Count();
  result.rows = std::move(rows);
  result.io = scope.Delta();
  if (span.active()) {
    span.Attr("branches", branches.size());
    span.Attr("rows", result.count);
    span.AttrIo(result.io);
  }
  return result;
}

Result<BitVector> SelectionExecutor::SelectDnfByScan(
    const std::vector<std::vector<Predicate>>& branches) const {
  BitVector rows(table_->NumRows());
  for (const std::vector<Predicate>& branch : branches) {
    EBI_ASSIGN_OR_RETURN(const BitVector one, SelectByScan(branch));
    rows.OrWith(one);
  }
  return rows;
}

Result<bool> SelectionExecutor::RowMatches(const Predicate& p,
                                           const Column& column,
                                           size_t row) const {
  const Value v = column.ValueAt(row);
  switch (p.kind) {
    case Predicate::Kind::kEquals:
      return !v.is_null() && v == p.value;
    case Predicate::Kind::kIn:
      return !v.is_null() &&
             std::find(p.values.begin(), p.values.end(), v) !=
                 p.values.end();
    case Predicate::Kind::kRange:
      if (v.is_null()) {
        return false;
      }
      if (column.type() != Column::Type::kInt64) {
        return Status::InvalidArgument("range scan on non-integer column");
      }
      return v.int_value >= p.lo && v.int_value <= p.hi;
    case Predicate::Kind::kIsNull:
      return v.is_null();
    case Predicate::Kind::kNotEquals:
      return !v.is_null() && !(v == p.value);
    case Predicate::Kind::kNotIn:
      return !v.is_null() &&
             std::find(p.values.begin(), p.values.end(), v) ==
                 p.values.end();
  }
  return Status::Internal("unknown predicate kind");
}

Result<BitVector> SelectionExecutor::SelectByScan(
    const std::vector<Predicate>& predicates) const {
  BitVector rows(table_->NumRows());
  for (size_t row = 0; row < table_->NumRows(); ++row) {
    if (!table_->RowExists(row)) {
      continue;
    }
    bool all = true;
    for (const Predicate& p : predicates) {
      EBI_ASSIGN_OR_RETURN(const Column* column, table_->FindColumn(p.column));
      EBI_ASSIGN_OR_RETURN(const bool match, RowMatches(p, *column, row));
      if (!match) {
        all = false;
        break;
      }
    }
    if (all) {
      rows.Set(row);
    }
  }
  return rows;
}

}  // namespace ebi
