#ifndef EBI_OBS_EXPLAIN_H_
#define EBI_OBS_EXPLAIN_H_

#include <string>

#include "obs/trace.h"

namespace ebi {
namespace obs {

/// Rendering options for EXPLAIN output.
struct ExplainOptions {
  /// Include per-span wall-clock timings. Off by default so the output is
  /// deterministic (golden-testable); demos turn it on.
  bool include_timing = false;
  /// Spaces of indentation per tree level in the text form.
  int indent = 2;
};

/// Renders a finished QueryTrace as a human-readable plan tree, one span
/// per line:
///
///   query
///     executor.select rows=3575 vectors=19 pages=76 bytes=285000
///       predicate column=product pred="product IN (...)"
///         plan.choose chosen=encoded-bitmap est_pages=10 ...
///         index.eval index=encoded-bitmap ...
///           boolean.reduce method=exact terms_in=40 terms_out=3 ...
///
/// Grammar (DESIGN.md §6): line := indent name {" " key "=" value}* ;
/// string values with spaces are double-quoted; children are indented one
/// level deeper than their parent.
std::string ExplainText(const QueryTrace& trace,
                        const ExplainOptions& options = ExplainOptions());

/// The same tree as JSON:
///   {"name": ..., "attrs": {...}, "children": [...]}
/// with "elapsed_ms" per span when include_timing is set.
std::string ExplainJson(const QueryTrace& trace,
                        const ExplainOptions& options = ExplainOptions());

/// Renders one span subtree (same JSON shape as ExplainJson) — how the
/// telemetry layer dumps captured roots that no longer live in a
/// QueryTrace (obs/telemetry.h).
std::string ExplainSpanJson(const TraceSpan& span,
                            const ExplainOptions& options = ExplainOptions());

}  // namespace obs
}  // namespace ebi

#endif  // EBI_OBS_EXPLAIN_H_
