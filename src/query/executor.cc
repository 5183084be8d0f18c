#include "query/executor.h"

#include <algorithm>
#include <chrono>

#include "obs/metrics.h"

namespace ebi {

Result<BitVector> SelectionExecutor::EvaluateOne(const Predicate& p) {
  const auto it = indexes_.find(p.column);
  if (it == indexes_.end()) {
    return Status::NotFound("no index registered for column " + p.column);
  }
  SecondaryIndex* index = it->second;
  obs::ScopedSpan span("predicate");
  if (span.active()) {
    span.Attr("column", p.column);
    span.Attr("pred", p.ToString());
    span.Attr("index", index->Name());
  }
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
      EBI_ASSIGN_OR_RETURN(BitVector positive,
                           EvaluateOne(p.Positive()));
      positive.FlipAll();
      positive.AndWith(table_->existence());
      EBI_RETURN_IF_ERROR(MaskNulls(p.column, index, &positive));
      return positive;
    }
  }
  return Status::Internal("unknown predicate kind");
}

Status MaskNullRows(const Table& table, const std::string& column_name,
                    SecondaryIndex* index, IoAccountant* io,
                    BitVector* rows) {
  EBI_ASSIGN_OR_RETURN(const Column* column,
                       table.FindColumn(column_name));
  if (!column->HasNulls()) {
    return Status::OK();
  }
  if (index->SupportsIsNull()) {
    EBI_ASSIGN_OR_RETURN(const BitVector nulls, index->EvaluateIsNull());
    rows->AndNotWith(nulls);
    return Status::OK();
  }
  // Fallback: scan the column's id array for NULL cells (charged).
  io->ChargeBytes(column->RowBytes());
  for (size_t row = 0; row < column->size(); ++row) {
    if (column->ValueIdAt(row) == kNullValueId) {
      rows->Reset(row);
    }
  }
  return Status::OK();
}

Status SelectionExecutor::MaskNulls(const std::string& column_name,
                                    SecondaryIndex* index,
                                    BitVector* rows) const {
  return MaskNullRows(*table_, column_name, index, io_, rows);
}

Result<SelectionResult> SelectionExecutor::Select(
    const std::vector<Predicate>& predicates) {
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
    EBI_ASSIGN_OR_RETURN(BitVector one, EvaluateOne(predicate));
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
    const std::vector<Predicate>& predicates, obs::QueryTrace* trace) {
  const obs::TraceScope install(trace);
  return Select(predicates);
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
