#ifndef EBI_QUERY_EXECUTOR_H_
#define EBI_QUERY_EXECUTOR_H_

#include <cstddef>
#include <string>
#include <vector>

#include "index/index.h"
#include "obs/trace.h"
#include "query/predicate.h"
#include "storage/io_accountant.h"
#include "storage/table.h"
#include "util/bitvector.h"
#include "util/status.h"

namespace ebi {

/// What one conjunct selected on its own — the per-predicate observation
/// the workload recorder logs (obs/workload_recorder.h). Collected only
/// when the executor has predicate stats enabled.
struct PredicateStat {
  std::string column;
  /// Predicate::OpTag() of the conjunct.
  std::string op;
  /// Predicate::Fingerprint() of the conjunct.
  uint64_t fingerprint = 0;
  /// Rows this predicate's bitmap selected before the conjunction AND.
  size_t rows = 0;
};

/// Result of a conjunctive selection.
struct SelectionResult {
  /// Qualifying rows (existing, non-deleted tuples only).
  BitVector rows;
  /// I/O this selection performed.
  IoStats io;
  /// Number of qualifying rows (rows.Count(), precomputed).
  size_t count = 0;
  /// Per-conjunct observations, in predicate order; empty unless
  /// SelectionExecutor::EnablePredicateStats(true) was called.
  std::vector<PredicateStat> predicate_stats;
};

/// The access path chosen for one predicate, with the estimate that won.
struct AccessPath {
  SecondaryIndex* index = nullptr;
  double estimated_pages = 0.0;
  /// The paper's δ for this predicate on its column.
  size_t delta = 0;
};

/// Evaluates conjunctive selections over one table using registered
/// per-column indexes: each predicate is answered by one of its column's
/// indexes and the result bitmaps are ANDed — the bitmap-index cooperativity
/// that Section 2.1 contrasts with compound-key B-trees.
///
/// A column may have several candidate indexes. A predicate on such a
/// column is planned: Choose prices its selection shape through every
/// candidate's EstimatePages() model and the cheapest one answers — the
/// operational form of Section 3.1: simple bitmaps win single-value
/// selections, encoded bitmaps win once δ > log2|A| + 1, bit-sliced
/// indexes win wide numeric ranges. A column with one candidate is not
/// planned: its predicates go straight to that index.
class SelectionExecutor {
 public:
  SelectionExecutor(const Table* table, IoAccountant* io)
      : table_(table), io_(io) {}

  /// Adds `index` as a candidate for predicates on `column`. Several
  /// candidates per column are allowed; Choose picks among them.
  void RegisterIndex(const std::string& column, SecondaryIndex* index) {
    candidates_.push_back({column, index});
  }

  /// Drops every registration (e.g. before re-wiring after an index drop).
  void Clear() { candidates_.clear(); }

  /// Collect per-conjunct PredicateStats in Select results. Off by
  /// default: the extra popcount per predicate is cheap but not free,
  /// and only the workload recorder consumes the stats.
  void EnablePredicateStats(bool on) { predicate_stats_ = on; }
  bool predicate_stats_enabled() const { return predicate_stats_; }

  /// The selection shape (kind + δ) of a predicate on this table.
  Result<SelectionShape> ShapeOf(const Predicate& predicate) const;

  /// Picks the cheapest registered candidate for `predicate`; IS NULL is
  /// routed only to indexes that support it. Records a plan.choose span.
  Result<AccessPath> Choose(const Predicate& predicate) const;

  /// Evaluates the conjunction of `predicates`. Every referenced column
  /// must have a registered index. `paths`, when non-null, receives the
  /// chosen path of every predicate in order; asking for them plans
  /// single-candidate columns too, so each path carries its estimate.
  ///
  /// Records an executor.select trace span with one predicate child per
  /// conjunct when a trace sink is installed (obs::TraceScope); a planned
  /// predicate's span also holds the plan.choose child, and the rows and
  /// I/O that predicate performed. With no sink installed tracing is a
  /// no-op and the charged I/O is identical.
  Result<SelectionResult> Select(const std::vector<Predicate>& predicates,
                                 std::vector<AccessPath>* paths = nullptr);

  /// EXPLAIN entry point: runs Select with `trace` installed as the
  /// active sink, so the finished trace can be rendered with
  /// obs::ExplainText()/ExplainJson(). The query is executed for real
  /// (EXPLAIN ANALYZE semantics — every attribute is measured, not
  /// estimated).
  Result<SelectionResult> ExplainSelect(
      const std::vector<Predicate>& predicates, obs::QueryTrace* trace,
      std::vector<AccessPath>* paths = nullptr);

  /// Evaluates a disjunction of conjunctions (disjunctive normal form):
  /// rows satisfying ANY of the conjunctive branches. Cross-column ORs —
  /// e.g. "product = 3 OR region = 7" — are one bitmap OR per branch,
  /// the cooperativity argument of Section 2.1 extended to disjunction.
  Result<SelectionResult> SelectDnf(
      const std::vector<std::vector<Predicate>>& branches);

  /// Reference evaluation by full table scan (no indexes); used by tests
  /// and benches to validate index answers.
  Result<BitVector> SelectByScan(
      const std::vector<Predicate>& predicates) const;

  /// Scan reference for SelectDnf.
  Result<BitVector> SelectDnfByScan(
      const std::vector<std::vector<Predicate>>& branches) const;

 private:
  struct Candidate {
    std::string column;
    SecondaryIndex* index;
  };

  /// Answers one conjunct through its column's only candidate, or through
  /// the chosen one when the column has several (or `paths` is wanted).
  Result<BitVector> EvaluateOne(const Predicate& predicate,
                                std::vector<AccessPath>* paths);
  /// Answers `predicate` with `index`: the six-kind dispatch, with
  /// negation as complement over existing non-NULL rows.
  Result<BitVector> Evaluate(const Predicate& predicate,
                             SecondaryIndex* index) const;
  /// Removes NULL rows of `column_name` from `rows` (for negated
  /// predicates), using the index's NULL vector when it has one and a
  /// charged column scan otherwise.
  Status MaskNulls(const std::string& column_name, SecondaryIndex* index,
                   BitVector* rows) const;
  /// Scan-evaluates one predicate on one row.
  Result<bool> RowMatches(const Predicate& predicate, const Column& column,
                          size_t row) const;

  const Table* table_;
  IoAccountant* io_;
  bool predicate_stats_ = false;
  /// Registrations in order; a column's candidates are the entries naming
  /// it, numbered by their order among those entries.
  std::vector<Candidate> candidates_;
};

}  // namespace ebi

#endif  // EBI_QUERY_EXECUTOR_H_
