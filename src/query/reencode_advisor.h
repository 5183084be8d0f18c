#ifndef EBI_QUERY_REENCODE_ADVISOR_H_
#define EBI_QUERY_REENCODE_ADVISOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "encoding/mapping_table.h"
#include "encoding/optimizer.h"
#include "obs/workload_recorder.h"
#include "storage/column.h"
#include "util/status.h"

namespace ebi {

/// One observed selection pattern with its frequency (queries per period).
struct WorkloadEntry {
  std::vector<ValueId> values;  // The IN-list / rewritten range.
  double frequency = 1.0;
};

/// An observed (or forecast) selection workload against one column.
using WorkloadProfile = std::vector<WorkloadEntry>;

/// Mines a WorkloadProfile for `column` out of recorded production
/// queries (the serve layer's workload log, obs/workload_recorder.h):
/// positive predicates on the column — eq, in, range — become IN-list
/// entries resolved to ValueIds through `col`'s dictionary, grouped by
/// predicate fingerprint with one unit of frequency per occurrence.
/// Negated and IS NULL predicates, and literals absent from the
/// dictionary, are skipped: the advisor models positive IN-list
/// selections. This closes the telemetry -> re-encoding loop (ROADMAP
/// item 5).
Result<WorkloadProfile> ProfileFromRecords(
    const std::vector<obs::RequestRecord>& records,
    const std::string& column, const Column& col);

/// Outcome of evaluating a candidate re-encoding — the paper's future-work
/// item 3: "a model for evaluating the cost-effectiveness of a
/// reconstruction of the encoded bitmap indexes".
struct ReencodeDecision {
  /// Expected bitmap-vector reads per period under the current mapping.
  double current_cost = 0.0;
  /// Same under the candidate mapping.
  double candidate_cost = 0.0;
  /// One-time cost of rewriting the slices, in vector-write units
  /// (k' vectors of n bits each).
  double reencode_cost = 0.0;
  /// Periods until the saving pays for the rewrite; +inf when the
  /// candidate is not cheaper.
  double break_even_periods = 0.0;
  /// The recommendation: true iff the candidate is strictly cheaper and
  /// pays for itself within the caller's horizon.
  bool worthwhile = false;
};

/// Compares `current` vs `candidate` on `profile` for an index over `n`
/// rows. `horizon_periods` is how many periods of the profile the caller
/// expects the workload to stay stable.
Result<ReencodeDecision> EvaluateReencoding(
    const MappingTable& current, const MappingTable& candidate,
    const WorkloadProfile& profile, size_t n, double horizon_periods = 10.0,
    const ReductionOptions& reduction = ReductionOptions());

/// Convenience: mines the profile's predicates, optimizes a candidate
/// mapping for them (greedy + annealing), and evaluates it against the
/// current mapping. Returns the candidate and the decision.
struct ReencodeProposal {
  MappingTable candidate;
  ReencodeDecision decision;
};
Result<ReencodeProposal> ProposeReencoding(
    const MappingTable& current, const WorkloadProfile& profile, size_t m,
    size_t n, const OptimizerOptions& options = OptimizerOptions(),
    const EncoderOptions& encoder_options = EncoderOptions(),
    double horizon_periods = 10.0);

}  // namespace ebi

#endif  // EBI_QUERY_REENCODE_ADVISOR_H_
