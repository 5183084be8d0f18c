#ifndef EBI_BOOLEAN_REDUCTION_H_
#define EBI_BOOLEAN_REDUCTION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "boolean/cover.h"
#include "boolean/cube.h"

namespace ebi {

/// Controls how retrieval Boolean expressions are reduced before
/// evaluation. Section 3.2 of the paper: a well-defined encoding "only
/// makes sense together with the logical reduction of the retrieval
/// functions".
struct ReductionOptions {
  /// When false, the raw disjunction of min-terms is used unchanged — the
  /// ablation knob for measuring what reduction buys.
  bool enable_reduction = true;
};

/// The most unused codewords a selection passes to the reduction as
/// don't-cares (e.g. of a 2^24 group-set code space); ReduceSelection in
/// encoding/mapping_table.h applies it for every index. Any subset of the
/// free codewords is a valid don't-care set, so a prefix keeps every cover
/// correct; columns with at most this many free codewords lose nothing.
/// Passing them all costs time: a point query on a 600,000-value column
/// (k = 20, 448,575 free codewords) reduced in 10-14 ms with all of them
/// against 0.8-1.4 ms with this prefix (Release, 4-CPU Intel Xeon).
inline constexpr size_t kMaxDontCareTerms = 65536;

/// Builds and reduces the retrieval expression for a value-set selection:
/// `onset` are the codewords of the selected values, `dontcare` the
/// unconstrained codewords, `k` the number of bitmap vectors. Reduces with
/// MinimizeQm unless `options` turns reduction off.
Cover ReduceRetrievalFunction(const std::vector<uint64_t>& onset,
                              const std::vector<uint64_t>& dontcare, int k,
                              const ReductionOptions& options =
                                  ReductionOptions());

}  // namespace ebi

#endif  // EBI_BOOLEAN_REDUCTION_H_
