#ifndef EBI_BOOLEAN_QUINE_MCCLUSKEY_H_
#define EBI_BOOLEAN_QUINE_MCCLUSKEY_H_

#include <cstdint>
#include <vector>

#include "boolean/cover.h"
#include "boolean/cube.h"

namespace ebi {

/// Options for exact two-level minimization.
struct MinimizeOptions {
  /// When selecting among prime implicants, prefer ones that do not
  /// introduce new variables. This biases the cover toward the paper's cost
  /// metric (distinct bitmap vectors accessed) instead of literal count.
  bool prefer_fewer_variables = true;
};

/// Exact two-level minimization via the Quine-McCluskey procedure.
///
/// `onset` are the codewords on which the function must be 1, `dontcare`
/// the codewords whose output is unconstrained (unused codewords of an
/// encoding, and — per Theorem 2.1 — the void codeword), `k` the number of
/// variables (bitmap vectors). Returns an irredundant sum-of-products cover
/// built from prime implicants: all essential primes plus a greedy
/// selection for the remaining minterms.
///
/// The number of prime implicants can be exponential in k, and so can the
/// chart (the paper discusses exactly this cost in Section 3.2); use
/// `ReduceCoverHeuristic` from reduction.h for large instances. When
/// `num_primes` is set it receives the size of the prime chart.
Cover MinimizeQm(const std::vector<uint64_t>& onset,
                 const std::vector<uint64_t>& dontcare, int k,
                 const MinimizeOptions& options = MinimizeOptions(),
                 size_t* num_primes = nullptr);

/// Computes all prime implicants of the function defined by onset ∪
/// dontcare, sorted by (mask, values). Codes are read over their low `k`
/// bits, as Cube::MinTerm does.
///
/// Primes come from recursive Shannon cofactoring (Brayton et al., "Logic
/// Minimization Algorithms for VLSI Synthesis", 1984) on the sorted code
/// list: a sub-list that is empty or holds its whole sub-space ends the
/// recursion, so a large block of don't-cares — the free tail a
/// sequential mapping leaves — costs about one branch per variable
/// instead of one merge per sub-cube it contains.
std::vector<Cube> PrimeImplicants(const std::vector<uint64_t>& onset,
                                  const std::vector<uint64_t>& dontcare,
                                  int k);

}  // namespace ebi

#endif  // EBI_BOOLEAN_QUINE_MCCLUSKEY_H_
