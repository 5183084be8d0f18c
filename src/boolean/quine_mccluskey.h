#ifndef EBI_BOOLEAN_QUINE_MCCLUSKEY_H_
#define EBI_BOOLEAN_QUINE_MCCLUSKEY_H_

#include <cstdint>
#include <vector>

#include "boolean/cover.h"
#include "boolean/cube.h"

namespace ebi {

/// Exact two-level minimization via the Quine-McCluskey procedure.
///
/// `onset` are the codewords on which the function must be 1, `dontcare`
/// the codewords whose output is unconstrained (unused codewords of an
/// encoding, and — per Theorem 2.1 — the void codeword), `k` the number of
/// variables (bitmap vectors); codes are read over their low `k` bits, as
/// Cube::MinTerm does. Returns an irredundant sum-of-products cover
/// built from prime implicants: all essential primes, then a
/// branch-and-bound completion when at most 64 minterms and 24 candidate
/// primes remain, else a greedy one that prefers primes introducing fewer
/// new variables (the paper's cost metric), then a reverse pass dropping
/// redundant primes.
///
/// The number of prime implicants can be exponential in k (the paper
/// discusses exactly this cost in Section 3.2). The chart is stored
/// sparsely, as the onset minterms each prime covers and the primes
/// covering each minterm, so its cost follows the chart's entries rather
/// than primes × minterms. When `num_primes` is set it receives the number
/// of prime implicants.
Cover MinimizeQm(const std::vector<uint64_t>& onset,
                 const std::vector<uint64_t>& dontcare, int k,
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
