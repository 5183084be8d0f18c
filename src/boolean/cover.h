#ifndef EBI_BOOLEAN_COVER_H_
#define EBI_BOOLEAN_COVER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "boolean/cube.h"
#include "util/bitvector.h"
#include "util/status.h"

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

/// Words per block of EvaluateCover's pass: 2 KB, so the block
/// accumulator, the cube's AND buffer and the blocks of the ~8 slices a
/// star-schema cover references all stay L1-resident.
inline constexpr size_t kCoverBlockWords = 256;

/// Where the blocked pass gets slice words from. In memory they are the
/// slices themselves (EvaluateCover, zero-copy); the cold index streams
/// them from pages (ColdEncodedBitmapIndex).
class CoverWordSource {
 public:
  virtual ~CoverWordSource() = default;

  /// Points words[v], for every variable v set in `vars`, at `count` <=
  /// kCoverBlockWords words of slice v starting at word `first`. Called
  /// once per block, in increasing `first` order; the pointers stay valid
  /// until the next call. An error aborts the pass.
  virtual Status Block(uint64_t vars, size_t first, size_t count,
                       const uint64_t** words) = 0;
};

/// EvaluateCover's pass over words from `source`: the same blocked loop,
/// so a disk-resident index never assembles whole slices. Returns the
/// source's first error, never a partial result.
Result<BitVector> EvaluateCoverFrom(const kernels::BitmapKernels& k,
                                    const Cover& cover, size_t n,
                                    CoverWordSource& source);

/// True iff the two covers denote the same Boolean function over k
/// variables (exhaustive check; intended for tests and small k).
bool CoversEquivalent(const Cover& a, const Cover& b, int k);

}  // namespace ebi

#endif  // EBI_BOOLEAN_COVER_H_
