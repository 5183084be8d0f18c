#include "query/reencode_advisor.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <utility>

#include "encoding/well_defined.h"

namespace ebi {

namespace {

/// Expected vector reads per period for a mapping over the profile.
Result<double> ExpectedCost(const MappingTable& mapping,
                            const WorkloadProfile& profile,
                            const ReductionOptions& reduction) {
  double total = 0.0;
  for (const WorkloadEntry& entry : profile) {
    EBI_ASSIGN_OR_RETURN(const int cost,
                         AccessCost(mapping, entry.values, reduction));
    total += entry.frequency * cost;
  }
  return total;
}

}  // namespace

Result<WorkloadProfile> ProfileFromRecords(
    const std::vector<obs::RequestRecord>& records,
    const std::string& column, const Column& col) {
  // Accumulate frequency per predicate fingerprint; the value set of the
  // first occurrence stands for the group (identical fingerprints carry
  // identical literal sets by construction).
  std::unordered_map<uint64_t, WorkloadEntry> groups;
  std::vector<uint64_t> order;  // First-seen order, for determinism.
  for (const obs::RequestRecord& record : records) {
    for (const obs::WorkloadPredicate& pred : record.predicates) {
      if (pred.column != column) {
        continue;
      }
      // The advisor models positive IN-list selections; complements and
      // NULL probes do not map onto a value set.
      const bool positive =
          pred.op == "eq" || pred.op == "in" || pred.op == "range";
      if (!positive) {
        continue;
      }
      auto it = groups.find(pred.fingerprint);
      if (it != groups.end()) {
        it->second.frequency += 1.0;
        continue;
      }
      WorkloadEntry entry;
      entry.frequency = 1.0;
      if (pred.op == "range") {
        if (!pred.has_range || col.type() != Column::Type::kInt64) {
          continue;
        }
        entry.values = col.IdsInRange(pred.lo, pred.hi);
      } else {
        for (const int64_t literal : pred.literals) {
          const std::optional<ValueId> id = col.Lookup(Value::Int(literal));
          if (id.has_value()) {
            entry.values.push_back(*id);
          }
        }
        std::sort(entry.values.begin(), entry.values.end());
        entry.values.erase(
            std::unique(entry.values.begin(), entry.values.end()),
            entry.values.end());
      }
      if (entry.values.empty()) {
        continue;  // Nothing resolvable against this dictionary.
      }
      groups.emplace(pred.fingerprint, std::move(entry));
      order.push_back(pred.fingerprint);
    }
  }
  WorkloadProfile profile;
  profile.reserve(order.size());
  for (const uint64_t fingerprint : order) {
    profile.push_back(std::move(groups[fingerprint]));
  }
  return profile;
}

Result<ReencodeDecision> EvaluateReencoding(
    const MappingTable& current, const MappingTable& candidate,
    const WorkloadProfile& profile, size_t n, double horizon_periods,
    const ReductionOptions& reduction) {
  ReencodeDecision decision;
  EBI_ASSIGN_OR_RETURN(decision.current_cost,
                       ExpectedCost(current, profile, reduction));
  EBI_ASSIGN_OR_RETURN(decision.candidate_cost,
                       ExpectedCost(candidate, profile, reduction));
  // Rewriting k' slices of n bits, measured in whole-vector operations so
  // it is commensurate with the per-query vector-read costs.
  decision.reencode_cost = static_cast<double>(candidate.width());
  (void)n;  // The per-vector unit already scales with n on both sides.

  const double saving_per_period =
      decision.current_cost - decision.candidate_cost;
  if (saving_per_period <= 0.0) {
    decision.break_even_periods =
        std::numeric_limits<double>::infinity();
    decision.worthwhile = false;
  } else {
    decision.break_even_periods =
        decision.reencode_cost / saving_per_period;
    decision.worthwhile = decision.break_even_periods <= horizon_periods;
  }
  return decision;
}

Result<ReencodeProposal> ProposeReencoding(
    const MappingTable& current, const WorkloadProfile& profile, size_t m,
    size_t n, const OptimizerOptions& options,
    const EncoderOptions& encoder_options, double horizon_periods) {
  PredicateSet predicates;
  predicates.reserve(profile.size());
  for (const WorkloadEntry& entry : profile) {
    predicates.push_back(entry.values);
  }
  EBI_ASSIGN_OR_RETURN(
      MappingTable candidate,
      AnnealEncode(m, predicates, options, encoder_options));
  EBI_ASSIGN_OR_RETURN(
      const ReencodeDecision decision,
      EvaluateReencoding(current, candidate, profile, n, horizon_periods,
                         options.reduction));
  return ReencodeProposal{std::move(candidate), decision};
}

}  // namespace ebi
