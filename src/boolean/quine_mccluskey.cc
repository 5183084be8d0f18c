#include "boolean/quine_mccluskey.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <numeric>
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

/// Appends to `out` the positions i in [lo, hi) of the codes `cube`
/// covers. `codes` is sorted, and its entries in [lo, hi) agree on every
/// bit at or above `var`: the range splits on the next variable down, a
/// literal keeps one half, a free variable keeps both, and a cube with no
/// literal below `var` covers the whole range.
void CollectCovered(const std::vector<uint64_t>& codes, size_t lo, size_t hi,
                    int var, const Cube& cube, std::vector<uint32_t>* out) {
  if (lo == hi) {
    return;
  }
  if ((cube.mask & Cube::MinTerm(~uint64_t{0}, var).mask) == 0) {
    for (size_t i = lo; i < hi; ++i) {
      out->push_back(static_cast<uint32_t>(i));
    }
    return;
  }
  const uint64_t x = uint64_t{1} << (var - 1);
  const size_t split = static_cast<size_t>(
      std::partition_point(codes.begin() + static_cast<std::ptrdiff_t>(lo),
                           codes.begin() + static_cast<std::ptrdiff_t>(hi),
                           [x](uint64_t c) { return (c & x) == 0; }) -
      codes.begin());
  if ((cube.mask & x) == 0 || (cube.values & x) == 0) {
    CollectCovered(codes, lo, split, var - 1, cube, out);
  }
  if ((cube.mask & x) == 0 || (cube.values & x) != 0) {
    CollectCovered(codes, split, hi, var - 1, cube, out);
  }
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
                 size_t* num_primes) {
  k = std::clamp(k, 0, 64);
  std::vector<uint64_t> need;
  need.reserve(onset.size());
  for (uint64_t code : onset) {
    need.push_back(Cube::MinTerm(code, k).values);
  }
  need = DedupSorted(std::move(need));
  if (need.empty()) {
    return Cover();
  }

  const std::vector<Cube> primes = PrimeImplicants(need, dontcare, k);
  if (num_primes != nullptr) {
    *num_primes = primes.size();
  }

  // The prime chart, stored sparsely both ways as flat arrays: row p
  // (the minterms prime p covers) is row_entries[row_begin[p],
  // row_begin[p + 1]), column m (the primes covering minterm m, in
  // increasing order) likewise in col_entries. gain[p] counts the
  // uncovered minterms in row p; it drops as selections cover them, so a
  // selected prime's gain is 0.
  std::vector<uint32_t> row_entries;
  std::vector<size_t> row_begin(primes.size() + 1, 0);
  for (size_t p = 0; p < primes.size(); ++p) {
    CollectCovered(need, 0, need.size(), k, primes[p], &row_entries);
    row_begin[p + 1] = row_entries.size();
  }
  const auto rows = [&](size_t p) {
    return std::span<const uint32_t>(row_entries)
        .subspan(row_begin[p], row_begin[p + 1] - row_begin[p]);
  };
  std::vector<size_t> col_begin(need.size() + 1, 0);
  for (uint32_t m : row_entries) {
    ++col_begin[m + 1];
  }
  std::partial_sum(col_begin.begin(), col_begin.end(), col_begin.begin());
  std::vector<uint32_t> col_entries(row_entries.size());
  std::vector<size_t> fill(col_begin.begin(), col_begin.end() - 1);
  std::vector<size_t> gain(primes.size());
  for (size_t p = 0; p < primes.size(); ++p) {
    gain[p] = rows(p).size();
    for (uint32_t m : rows(p)) {
      col_entries[fill[m]++] = static_cast<uint32_t>(p);
    }
  }
  const auto cols = [&](size_t m) {
    return std::span<const uint32_t>(col_entries)
        .subspan(col_begin[m], col_begin[m + 1] - col_begin[m]);
  };

  std::vector<bool> covered(need.size(), false);
  std::vector<size_t> picked;
  uint64_t used_vars = 0;
  size_t remaining = need.size();

  auto select = [&](size_t p) {
    picked.push_back(p);
    used_vars |= primes[p].mask;
    for (uint32_t m : rows(p)) {
      if (!covered[m]) {
        covered[m] = true;
        --remaining;
        for (uint32_t q : cols(m)) {
          --gain[q];
        }
      }
    }
  };

  // 1. Essential primes: minterms with a single covering prime.
  for (size_t m = 0; m < need.size(); ++m) {
    if (cols(m).size() == 1 && !covered[m]) {
      select(cols(m)[0]);
    }
  }

  // 2a. Exact completion for small charts: branch-and-bound set cover over
  //     the remaining minterms (Petrick's method in spirit), minimizing the
  //     number of selected primes.
  if (remaining > 0 && remaining <= 64) {
    std::vector<size_t> slot(need.size(), 0);
    size_t uncovered = 0;
    for (size_t m = 0; m < need.size(); ++m) {
      if (!covered[m]) {
        slot[m] = uncovered++;
      }
    }
    std::vector<size_t> candidates;
    for (size_t p = 0; p < primes.size() && candidates.size() <= 24; ++p) {
      if (gain[p] > 0) {
        candidates.push_back(p);
      }
    }
    if (candidates.size() <= 24) {
      std::vector<uint64_t> cover_mask(candidates.size(), 0);
      for (size_t c = 0; c < candidates.size(); ++c) {
        for (uint32_t m : rows(candidates[c])) {
          if (!covered[m]) {
            cover_mask[c] |= uint64_t{1} << slot[m];
          }
        }
      }
      const uint64_t full = uncovered == 64 ? ~uint64_t{0}
                                            : (uint64_t{1} << uncovered) - 1;
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
  //     repeatedly take the prime that covers the most uncovered minterms,
  //     tie-broken toward (a) introducing fewer new variables — the
  //     paper's cost metric is distinct bitmap vectors accessed — then
  //     (b) fewer literals, then (c) the lower prime index.
  while (remaining > 0) {
    size_t best = primes.size();
    size_t best_gain = 0;
    int best_new_vars = 65;
    int best_literals = 65;
    for (size_t p = 0; p < primes.size(); ++p) {
      if (gain[p] == 0) {
        continue;
      }
      const int new_vars = std::popcount(primes[p].mask & ~used_vars);
      const int literals = primes[p].NumLiterals();
      const bool better =
          std::tuple(best_gain, -best_new_vars, -best_literals) <
          std::tuple(gain[p], -new_vars, -literals);
      if (better) {
        best = p;
        best_gain = gain[p];
        best_new_vars = new_vars;
        best_literals = literals;
      }
    }
    if (best == primes.size()) {
      break;  // Unreachable for a correct chart; defensive.
    }
    select(best);
  }

  // 3. Drop redundant primes, last selected first (a greedy pass can
  //    select primes that later selections made unnecessary). A prime is
  //    redundant when every minterm it covers is covered by at least one
  //    other prime still in the cover.
  std::vector<uint32_t> times_covered(need.size(), 0);
  for (size_t p : picked) {
    for (uint32_t m : rows(p)) {
      ++times_covered[m];
    }
  }
  for (size_t i = picked.size(); i > 0; --i) {
    const std::span<const uint32_t> row = rows(picked[i - 1]);
    if (std::all_of(row.begin(), row.end(),
                    [&](uint32_t m) { return times_covered[m] >= 2; })) {
      for (uint32_t m : row) {
        --times_covered[m];
      }
      picked.erase(picked.begin() + static_cast<std::ptrdiff_t>(i - 1));
    }
  }
  Cover result;
  result.reserve(picked.size());
  for (size_t p : picked) {
    result.push_back(primes[p]);
  }
  return result;
}

}  // namespace ebi
