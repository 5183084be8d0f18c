#include "boolean/quine_mccluskey.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <span>
#include <tuple>
#include <utility>

namespace ebi {

namespace {

std::vector<uint64_t> DedupSorted(std::vector<uint64_t> xs) {
  std::sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());
  return xs;
}

/// Appends to `out` the prime implicants of the function whose ON ∪ DC set
/// is `f`, read over its low `var` bits. `f` is sorted and distinct, and
/// its codes agree on every bit at or above `var`, so the order of the full
/// codes is the order of their low bits. The primes are cubes over those
/// `var` variables.
///
/// Shannon cofactoring on the top variable x: with f0, f1 the halves of `f`
/// on x' and x and g = f0 ∩ f1, primes(f) = primes(g) with x free, plus
/// x·p for each p in primes(f1), and x'·p for each p in primes(f0), that no
/// prime of g contains (such a p implies both halves, so x can be dropped
/// from it). A prime q of g that contains a prime p of f1 implies f1 too,
/// since g ⊆ f1, so p = q by p's primality: the check is a lookup.
///
/// `scratch` holds at least |f| codes and is disjoint from `f`: g (at most
/// |f|/2 codes) is written at its front, and the recursion on g gets the
/// rest; the recursions on f1 and f0 reuse all of it once g is done.
void AppendPrimes(std::span<const uint64_t> f, int var,
                  std::span<uint64_t> scratch, std::vector<Cube>* out) {
  if (f.empty()) {
    return;
  }
  if (var < 64 && f.size() == (uint64_t{1} << var)) {
    out->push_back(Cube());  // Every assignment is in f.
    return;
  }
  const uint64_t x = uint64_t{1} << (var - 1);
  const uint64_t low = x - 1;
  const size_t split = static_cast<size_t>(
      std::partition_point(f.begin(), f.end(),
                           [x](uint64_t c) { return (c & x) == 0; }) -
      f.begin());
  const std::span<const uint64_t> f0 = f.first(split);
  const std::span<const uint64_t> f1 = f.subspan(split);

  size_t g_size = 0;
  for (size_t i = 0, j = 0; i < f0.size() && j < f1.size();) {
    const uint64_t a = f0[i] & low;
    const uint64_t b = f1[j] & low;
    if (a < b) {
      ++i;
    } else if (b < a) {
      ++j;
    } else {
      scratch[g_size++] = a;
      ++i;
      ++j;
    }
  }

  const size_t g_begin = out->size();
  AppendPrimes(scratch.first(g_size), var - 1, scratch.subspan(g_size), out);
  const size_t g_end = out->size();
  std::sort(out->begin() + static_cast<std::ptrdiff_t>(g_begin),
            out->begin() + static_cast<std::ptrdiff_t>(g_end));

  // Recurses into one half and keeps, with the x literal added, the primes
  // that no prime of g contains. A half equal to g contributes nothing.
  const auto add_half = [&](std::span<const uint64_t> half, uint64_t value) {
    if (half.size() == g_size) {
      return;
    }
    const size_t begin = out->size();
    AppendPrimes(half, var - 1, scratch, out);
    size_t kept = begin;
    for (size_t i = begin; i < out->size(); ++i) {
      const Cube p = (*out)[i];
      if (!std::binary_search(
              out->begin() + static_cast<std::ptrdiff_t>(g_begin),
              out->begin() + static_cast<std::ptrdiff_t>(g_end), p)) {
        (*out)[kept++] = Cube(p.values | value, p.mask | x);
      }
    }
    out->resize(kept);
  };
  add_half(f1, x);
  add_half(f0, 0);
}

}  // namespace

std::vector<Cube> PrimeImplicants(const std::vector<uint64_t>& onset,
                                  const std::vector<uint64_t>& dontcare,
                                  int k) {
  k = std::clamp(k, 0, 64);
  const uint64_t full = Cube::MinTerm(~uint64_t{0}, k).mask;
  std::vector<uint64_t> codes;
  codes.reserve(onset.size() + dontcare.size());
  for (const std::vector<uint64_t>* part : {&onset, &dontcare}) {
    for (uint64_t code : *part) {
      codes.push_back(code & full);
    }
  }
  codes = DedupSorted(std::move(codes));

  std::vector<uint64_t> scratch(codes.size());
  std::vector<Cube> primes;
  AppendPrimes(codes, k, scratch, &primes);
  std::sort(primes.begin(), primes.end());
  return primes;
}

Cover MinimizeQm(const std::vector<uint64_t>& onset,
                 const std::vector<uint64_t>& dontcare, int k,
                 const MinimizeOptions& options, size_t* num_primes) {
  const std::vector<uint64_t> need = DedupSorted(onset);
  if (need.empty()) {
    return Cover();
  }

  const std::vector<Cube> primes = PrimeImplicants(need, dontcare, k);
  if (num_primes != nullptr) {
    *num_primes = primes.size();
  }

  // Prime implicant chart: which primes cover which required minterms.
  std::vector<std::vector<size_t>> covering(need.size());
  for (size_t p = 0; p < primes.size(); ++p) {
    for (size_t m = 0; m < need.size(); ++m) {
      if (primes[p].Covers(need[m])) {
        covering[m].push_back(p);
      }
    }
  }

  std::vector<bool> covered(need.size(), false);
  std::vector<bool> selected(primes.size(), false);
  Cover result;
  uint64_t used_vars = 0;
  size_t remaining = need.size();

  auto select = [&](size_t p) {
    selected[p] = true;
    result.push_back(primes[p]);
    used_vars |= primes[p].mask;
    for (size_t m = 0; m < need.size(); ++m) {
      if (!covered[m] && primes[p].Covers(need[m])) {
        covered[m] = true;
        --remaining;
      }
    }
  };

  // 1. Essential primes: minterms with a single covering prime.
  for (size_t m = 0; m < need.size(); ++m) {
    if (covering[m].size() == 1 && !selected[covering[m][0]]) {
      select(covering[m][0]);
    }
  }

  // 2a. Exact completion for small charts: branch-and-bound set cover over
  //     the remaining minterms (Petrick's method in spirit), minimizing the
  //     number of selected primes.
  if (remaining > 0) {
    std::vector<size_t> uncovered;
    for (size_t m = 0; m < need.size(); ++m) {
      if (!covered[m]) {
        uncovered.push_back(m);
      }
    }
    std::vector<size_t> candidates;
    for (size_t p = 0; p < primes.size(); ++p) {
      if (selected[p]) {
        continue;
      }
      for (size_t u : uncovered) {
        if (primes[p].Covers(need[u])) {
          candidates.push_back(p);
          break;
        }
      }
    }
    if (uncovered.size() <= 64 && candidates.size() <= 24) {
      std::vector<uint64_t> cover_mask(candidates.size(), 0);
      for (size_t c = 0; c < candidates.size(); ++c) {
        for (size_t u = 0; u < uncovered.size(); ++u) {
          if (primes[candidates[c]].Covers(need[uncovered[u]])) {
            cover_mask[c] |= uint64_t{1} << u;
          }
        }
      }
      const uint64_t full = uncovered.size() == 64
                                ? ~uint64_t{0}
                                : (uint64_t{1} << uncovered.size()) - 1;
      std::vector<size_t> best_pick;
      std::vector<size_t> pick;
      size_t best_size = candidates.size() + 1;
      // Depth-first: always branch on the lowest uncovered minterm.
      const std::function<void(uint64_t)> search = [&](uint64_t done) {
        if (done == full) {
          if (pick.size() < best_size) {
            best_size = pick.size();
            best_pick = pick;
          }
          return;
        }
        if (pick.size() + 1 >= best_size) {
          return;  // Cannot beat the incumbent.
        }
        const int next = std::countr_one(done);
        for (size_t c = 0; c < candidates.size(); ++c) {
          if ((cover_mask[c] >> next) & 1) {
            pick.push_back(candidates[c]);
            search(done | cover_mask[c]);
            pick.pop_back();
          }
        }
      };
      search(0);
      for (size_t p : best_pick) {
        select(p);
      }
    }
  }

  // 2b. Greedy completion (large charts, or exact-search fallback):
  //    repeatedly take the prime that covers the most uncovered minterms,
  //    tie-broken toward (a) introducing fewer new variables when
  //    requested, then (b) fewer literals.
  while (remaining > 0) {
    size_t best = primes.size();
    size_t best_gain = 0;
    int best_new_vars = 65;
    int best_literals = 65;
    for (size_t p = 0; p < primes.size(); ++p) {
      if (selected[p]) {
        continue;
      }
      size_t gain = 0;
      for (size_t m = 0; m < need.size(); ++m) {
        if (!covered[m] && primes[p].Covers(need[m])) {
          ++gain;
        }
      }
      if (gain == 0) {
        continue;
      }
      const int new_vars =
          options.prefer_fewer_variables
              ? std::popcount(primes[p].mask & ~used_vars)
              : 0;
      const int literals = primes[p].NumLiterals();
      const bool better =
          std::tuple(best_gain, -best_new_vars, -best_literals) <
          std::tuple(gain, -new_vars, -literals);
      if (better) {
        best = p;
        best_gain = gain;
        best_new_vars = new_vars;
        best_literals = literals;
      }
    }
    if (best == primes.size()) {
      break;  // Unreachable for a correct chart; defensive.
    }
    select(best);
  }

  // 3. Drop redundant primes (a greedy pass can select primes that later
  //    selections made unnecessary).
  for (size_t i = result.size(); i > 0; --i) {
    Cover without;
    without.reserve(result.size() - 1);
    for (size_t j = 0; j < result.size(); ++j) {
      if (j != i - 1) {
        without.push_back(result[j]);
      }
    }
    bool still_covered = true;
    for (uint64_t m : need) {
      if (!CoverCovers(without, m)) {
        still_covered = false;
        break;
      }
    }
    if (still_covered) {
      result = std::move(without);
    }
  }

  return result;
}

}  // namespace ebi
