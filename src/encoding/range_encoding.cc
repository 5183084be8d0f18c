#include "encoding/range_encoding.h"

#include <algorithm>

namespace ebi {

std::string HalfOpenRange::ToString() const {
  std::string out = "[";
  out += std::to_string(lo);
  out += ',';
  out += std::to_string(hi);
  out += ')';
  return out;
}

Result<RangeBasedEncoding> RangeBasedEncoding::Create(
    int64_t domain_lo, int64_t domain_hi,
    const std::vector<HalfOpenRange>& predefined,
    const OptimizerOptions& options) {
  if (domain_lo >= domain_hi) {
    return Status::InvalidArgument("empty domain");
  }
  // Figure 7: the union of all range endpoints partitions the domain.
  std::vector<int64_t> cuts = {domain_lo, domain_hi};
  for (const HalfOpenRange& r : predefined) {
    if (r.lo >= r.hi) {
      return Status::InvalidArgument("empty predefined range " +
                                     r.ToString());
    }
    if (r.lo < domain_lo || r.hi > domain_hi) {
      return Status::OutOfRange("predefined range " + r.ToString() +
                                " outside the domain");
    }
    cuts.push_back(r.lo);
    cuts.push_back(r.hi);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  RangeBasedEncoding out;
  for (size_t i = 0; i + 1 < cuts.size(); ++i) {
    out.intervals_.push_back(HalfOpenRange{cuts[i], cuts[i + 1]});
  }

  // Each predefined selection becomes a predicate over interval ids.
  PredicateSet predicates;
  for (const HalfOpenRange& r : predefined) {
    std::vector<ValueId> ids;
    for (size_t i = 0; i < out.intervals_.size(); ++i) {
      if (out.intervals_[i].lo >= r.lo && out.intervals_[i].hi <= r.hi) {
        ids.push_back(static_cast<ValueId>(i));
      }
    }
    predicates.push_back(std::move(ids));
  }

  EBI_ASSIGN_OR_RETURN(
      out.mapping_,
      AnnealEncode(out.intervals_.size(), predicates, options));
  return out;
}

Result<size_t> RangeBasedEncoding::IntervalOf(int64_t value) const {
  // Binary search over the ascending disjoint intervals.
  size_t lo = 0;
  size_t hi = intervals_.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (intervals_[mid].Contains(value)) {
      return mid;
    }
    if (value < intervals_[mid].lo) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return Status::OutOfRange("value " + std::to_string(value) +
                            " outside the encoded domain");
}

Result<Cover> RangeBasedEncoding::CoverForRange(
    int64_t lo, int64_t hi, const ReductionOptions& options) const {
  if (lo >= hi) {
    return Cover();  // Empty selection.
  }
  std::vector<ValueId> ids;
  bool lo_aligned = false;
  bool hi_aligned = false;
  for (size_t i = 0; i < intervals_.size(); ++i) {
    if (intervals_[i].lo == lo) {
      lo_aligned = true;
    }
    if (intervals_[i].hi == hi) {
      hi_aligned = true;
    }
    if (intervals_[i].lo >= lo && intervals_[i].hi <= hi) {
      ids.push_back(static_cast<ValueId>(i));
    }
  }
  if (!lo_aligned || !hi_aligned) {
    return Status::FailedPrecondition(
        "range [" + std::to_string(lo) + "," + std::to_string(hi) +
        ") does not align with the predefined partition; use a total-order "
        "preserving encoding instead");
  }
  return ReduceSelection(mapping_, ids, options);
}

}  // namespace ebi
