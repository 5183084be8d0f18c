#include "encoding/well_defined.h"

#include <algorithm>
#include <bit>

#include "encoding/chain.h"
#include "util/bit_util.h"

namespace ebi {

namespace {

/// Enumerates size-r subsets of `codes`, returning true as soon as `pred`
/// accepts one.
template <typename Pred>
bool AnySubset(const std::vector<uint64_t>& codes, size_t r, Pred pred) {
  const size_t n = codes.size();
  if (r > n) {
    return false;
  }
  std::vector<size_t> idx(r);
  for (size_t i = 0; i < r; ++i) {
    idx[i] = i;
  }
  for (;;) {
    std::vector<uint64_t> subset(r);
    for (size_t i = 0; i < r; ++i) {
      subset[i] = codes[idx[i]];
    }
    if (pred(subset)) {
      return true;
    }
    // Next combination.
    size_t i = r;
    while (i > 0 && idx[i - 1] == n - r + (i - 1)) {
      --i;
    }
    if (i == 0) {
      return false;
    }
    ++idx[i - 1];
    for (size_t j = i; j < r; ++j) {
      idx[j] = idx[j - 1] + 1;
    }
  }
}

bool HasPrimeChain(const std::vector<uint64_t>& codes) {
  return FindPrimeChain(codes).has_value();
}

}  // namespace

Result<bool> IsWellDefined(const MappingTable& mapping,
                           const std::vector<ValueId>& subdomain,
                           size_t domain_size) {
  const size_t n = subdomain.size();
  if (n < 2) {
    return Status::InvalidArgument(
        "well-definedness needs a subdomain of at least 2 values");
  }

  std::vector<uint64_t> codes;
  codes.reserve(n);
  for (ValueId id : subdomain) {
    EBI_ASSIGN_OR_RETURN(const uint64_t code, mapping.CodeOf(id));
    codes.push_back(code);
  }

  const int p = Log2Floor(n);
  const size_t pow_p = size_t{1} << p;

  // Case i: |s| = 2^p — a prime chain must exist on the codes themselves.
  if (n == pow_p) {
    return HasPrimeChain(codes);
  }

  // Cases ii/iii need: some 2^p-subset with a prime chain.
  const bool has_prime_subset =
      AnySubset(codes, pow_p,
                [](const std::vector<uint64_t>& s) { return HasPrimeChain(s); });
  if (!has_prime_subset) {
    return false;
  }

  if (n % 2 == 0) {
    // Case ii: chain over all of s, pairwise distance <= p+1.
    if (!PairwiseDistanceAtMost(codes, p + 1)) {
      return false;
    }
    return FindChain(codes).has_value();
  }

  // Case iii: odd |s| — some mapped value w outside s completes a chain
  // with pairwise distance <= p+1 over s ∪ {w}.
  for (ValueId w = 0; w < domain_size; ++w) {
    if (std::find(subdomain.begin(), subdomain.end(), w) !=
        subdomain.end()) {
      continue;
    }
    const Result<uint64_t> wcode = mapping.CodeOf(w);
    if (!wcode.ok()) {
      continue;
    }
    std::vector<uint64_t> extended = codes;
    extended.push_back(*wcode);
    if (PairwiseDistanceAtMost(extended, p + 1) &&
        FindChain(extended).has_value()) {
      return true;
    }
  }
  return false;
}

Result<int> AccessCost(const MappingTable& mapping,
                       const std::vector<ValueId>& subdomain,
                       const ReductionOptions& options) {
  EBI_ASSIGN_OR_RETURN(const Cover cover,
                       ReduceSelection(mapping, subdomain, options));
  return DistinctVariables(cover);
}

Result<int> TotalAccessCost(const MappingTable& mapping,
                            const std::vector<std::vector<ValueId>>& preds,
                            const ReductionOptions& options) {
  int total = 0;
  for (const auto& pred : preds) {
    EBI_ASSIGN_OR_RETURN(const int cost, AccessCost(mapping, pred, options));
    total += cost;
  }
  return total;
}

}  // namespace ebi
