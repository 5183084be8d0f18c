#ifndef EBI_BOOLEAN_COVER_H_
#define EBI_BOOLEAN_COVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "boolean/cube.h"
#include "util/bitvector.h"

namespace ebi {

namespace kernels {
struct BitmapKernels;
}  // namespace kernels

/// A sum-of-products Boolean expression: the disjunction of its cubes.
/// Retrieval expressions for IN-list selections are Covers; logical
/// reduction rewrites a Cover into an equivalent one referencing fewer
/// bitmap vectors.
using Cover = std::vector<Cube>;

/// Bitwise OR of all cube masks: the set of variables (bitmap vectors) the
/// expression references.
uint64_t VariablesOf(const Cover& cover);

/// Number of distinct bitmap vectors referenced — the paper's cost metric
/// c_e (Section 3.1, footnote 4: the cost counted after logical reduction).
int DistinctVariables(const Cover& cover);

/// Total number of literals across all cubes.
int TotalLiterals(const Cover& cover);

/// True iff the cover evaluates to 1 on the full assignment `minterm`.
bool CoverCovers(const Cover& cover, uint64_t minterm);

/// Renders like "B1'B0 + B2B0'"; the empty cover renders as "0".
std::string CoverToString(const Cover& cover, int k);

/// Evaluates the expression over bitmap slices: slice[i] is the bitmap
/// vector for variable B_i. Returns the result bitmap (bit j set iff the
/// expression is 1 on tuple j's code).
///
/// Precondition: every slice the cover references has exactly `n` bits
/// (asserted in debug builds). Slices the cover does not reference are
/// never read and may be empty.
///
/// Evaluation is one cache-blocked pass: per 256-word block, each cube's
/// negation-aware AND chain is built in an L1-resident buffer and ORed
/// into a block accumulator. Each referenced slice is streamed from memory
/// once per call, so a call reads DistinctVariables(cover) * n/8 bytes of
/// slices (the paper's c_e vectors) and allocates only the result.
BitVector EvaluateCover(const Cover& cover,
                        const std::vector<BitVector>& slices, size_t n);

/// EvaluateCover on an explicit kernel backend (EvaluateCover uses
/// kernels::Active()), so tests and benches can cover every backend the
/// CPU supports in one process.
BitVector EvaluateCoverWith(const kernels::BitmapKernels& k,
                            const Cover& cover,
                            const std::vector<BitVector>& slices, size_t n);

/// True iff the two covers denote the same Boolean function over k
/// variables (exhaustive check; intended for tests and small k).
bool CoversEquivalent(const Cover& a, const Cover& b, int k);

}  // namespace ebi

#endif  // EBI_BOOLEAN_COVER_H_
