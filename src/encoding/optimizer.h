#ifndef EBI_ENCODING_OPTIMIZER_H_
#define EBI_ENCODING_OPTIMIZER_H_

#include <cstddef>
#include <vector>

#include "boolean/reduction.h"
#include "encoding/encoders.h"
#include "encoding/mapping_table.h"
#include "util/status.h"

namespace ebi {

/// A selection predicate for encoding optimization: the set of ValueIds in
/// an "A IN {...}" list. The optimizer minimizes Theorem 2.3's objective —
/// the total number of bitmap vectors read over all predicates.
using PredicateSet = std::vector<std::vector<ValueId>>;

/// Tuning for the simulated-annealing search. The paper (Sections 2.2 and
/// 3.2) leaves encoding search as future work, noting brute force is
/// exponential and that "some heuristics" exist; these are ours.
struct OptimizerOptions {
  /// Annealing step budget. Each step evaluates all predicates once.
  int iterations = 2000;
  uint64_t seed = 42;
  ReductionOptions reduction;
};

/// Greedy heuristic: orders values so that co-accessed values are adjacent
/// (predicates processed largest-first), then hands out consecutive Gray
/// codewords, so every predicate's codes form chain-like clusters.
Result<MappingTable> GreedyEncode(size_t m, const PredicateSet& predicates,
                                  const EncoderOptions& encoder_options =
                                      EncoderOptions());

/// Simulated annealing on top of the greedy start: proposes codeword swaps
/// (value<->value or value<->unused code) and accepts by the Metropolis
/// rule on the total access cost. Exact-reduction cost evaluation makes
/// this suitable for domains up to a few hundred values.
Result<MappingTable> AnnealEncode(size_t m, const PredicateSet& predicates,
                                  const OptimizerOptions& options =
                                      OptimizerOptions(),
                                  const EncoderOptions& encoder_options =
                                      EncoderOptions());

/// The Figure 6 construction: a *total-order preserving* mapping (codes
/// strictly increasing in ValueId order, so "j < A < i" stays a code
/// range) that is additionally optimized for the favored selections in
/// `predicates`. Exhaustively searches the C(2^width, m) increasing code
/// assignments when at most `max_combinations` exist; otherwise returns
/// the plain sequential mapping (still order-preserving). Set
/// `encoder_options.extra_width` to widen the code space and give the
/// search room.
Result<MappingTable> TotalOrderOptimizedEncode(
    size_t m, const PredicateSet& predicates,
    const EncoderOptions& encoder_options = EncoderOptions(),
    uint64_t max_combinations = 500000);

}  // namespace ebi

#endif  // EBI_ENCODING_OPTIMIZER_H_
