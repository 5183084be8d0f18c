#ifndef EBI_OBS_REQUEST_RECORD_H_
#define EBI_OBS_REQUEST_RECORD_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "util/status.h"

namespace ebi {
namespace obs {

/// Log-schema version written into every serialized record.
inline constexpr int kRequestRecordVersion = 1;

/// One predicate of a recorded query: the fingerprint the re-encoding
/// advisor mines (column, operator, literal set) plus what the execution
/// observed (rows its bitmap selected).
struct WorkloadPredicate {
  std::string column;
  /// Stable operator tag: "eq", "in", "range", "isnull", "neq", "notin".
  std::string op;
  /// FNV-1a hash over column, operator and the literal set — the
  /// identity hot-predicate mining groups by. Two textually different
  /// IN-lists with the same members collide on purpose (the set is
  /// hashed sorted).
  uint64_t fingerprint = 0;
  /// Rows this predicate's bitmap selected (before conjunction).
  uint64_t rows = 0;
  /// Integer literals of eq/in predicates, ascending. The workload log
  /// keeps the first WorkloadRecorder::kLiteralCap (the fingerprint
  /// always covers the full set). String literals contribute to the
  /// fingerprint only.
  std::vector<int64_t> literals;
  /// Range predicates: inclusive bounds.
  int64_t lo = 0;
  int64_t hi = 0;
  bool has_range = false;
};

/// One served selection: what ran, what it selected, what it cost per
/// stage, and how it ended. QueryService builds one per request; the
/// trace ring, the slow-query ring and the workload log each hold a copy,
/// and the serve stage histograms are observed from it (DESIGN.md §11).
struct RequestRecord {
  /// Stamped by the sink that holds the record: capture order in a ring,
  /// line number in the workload log.
  uint64_t seq = 0;
  /// Milliseconds since the recorder started (monotonic clock — the log
  /// carries no wall-clock time, keeping runs reproducible). Stamped by
  /// the recorder; 0 in the rings.
  double ts_ms = 0.0;
  uint64_t epoch = 0;
  uint64_t rows_selected = 0;
  uint64_t rows_total = 0;
  double queue_ms = 0.0;
  /// Stages the request never reached stay unset: a request past its
  /// deadline at pickup never pins, and one that found no snapshot never
  /// plans or executes.
  std::optional<double> pin_ms;
  std::optional<double> plan_ms;
  std::optional<double> execute_ms;
  /// Submit to completion.
  double total_ms = 0.0;
  uint64_t vectors = 0;
  uint64_t pages = 0;
  uint64_t bytes = 0;
  /// Bitmap-kernel backend the process dispatched to ("scalar", "avx2",
  /// ...), so logs from different hosts stay comparable.
  std::string kernel;
  std::vector<WorkloadPredicate> predicates;
  /// The outcome's status code.
  StatusCode status = StatusCode::kOk;
  /// Crossed the service's slow threshold.
  bool slow = false;
  /// Predicate summary, e.g. "a = 3 AND b IN {1, 2}"; filled only for
  /// slow requests.
  std::string query;
  /// The span tree, when the request was traced (sampled, or traced by
  /// its caller) and a ring took it.
  std::optional<TraceSpan> root;

  /// rows_selected / rows_total (0 when the table was empty).
  double Selectivity() const {
    return rows_total > 0 ? static_cast<double>(rows_selected) /
                                static_cast<double>(rows_total)
                          : 0.0;
  }
};

/// Serializes one record as a single JSON object (no trailing newline):
/// the workload log's JSONL line and each element of a ring dump. The
/// fields after "preds" appear only when set — a failed status, the slow
/// flag, the query text, the span tree — so an ok, fast, untraced
/// request's line is exactly the v1 line.
std::string RequestRecordJson(const RequestRecord& record);

/// Parses one JSONL line. Rejects unknown schema versions, malformed
/// documents and fields of the wrong type — including integer fields
/// that are not exact integers of their range (the log reader skips such
/// lines and counts them). "status" and "trace" are not read back: the
/// log holds ok requests only, and no span trees.
Result<RequestRecord> ParseRequestRecord(const std::string& line);

/// Renders one span tree as JSON (name/elapsed_ms/attrs/children) — the
/// shape ExplainJson uses for whole traces, reusable for captured roots.
std::string SpanJson(const TraceSpan& span);

}  // namespace obs
}  // namespace ebi

#endif  // EBI_OBS_REQUEST_RECORD_H_
