#ifndef EBI_INDEX_ENCODED_BITMAP_INDEX_H_
#define EBI_INDEX_ENCODED_BITMAP_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "boolean/cover.h"
#include "boolean/reduction.h"
#include "encoding/mapping_table.h"
#include "encoding/optimizer.h"
#include "index/index.h"

namespace ebi {

/// How the domain encoding of an EncodedBitmapIndex is chosen at Build().
enum class EncodingStrategy {
  /// Binary counting (also the "dynamic bitmap" encoding of Section 4).
  kSequential,
  /// Reflected Gray code: consecutive values form chains.
  kGray,
  /// Uniformly random — the improper-mapping baseline of Figure 3(b).
  kRandom,
  /// Greedy affinity + Gray assignment over `training_predicates`.
  kGreedy,
  /// Greedy start + simulated annealing over `training_predicates`
  /// (the well-defined-encoding search of Theorems 2.2/2.3).
  kAnnealed,
  /// Caller supplies the mapping via SetMapping() before Build().
  kCustom,
};

/// Options for EncodedBitmapIndex.
struct EncodedBitmapIndexOptions {
  EncodingStrategy strategy = EncodingStrategy::kSequential;

  /// Reserve codeword 0 for void (deleted/non-existing) tuples. Theorem
  /// 2.1: with this reservation, selection results need no existence AND.
  /// When false, every evaluation reads and ANDs the existence bitmap.
  bool reserve_void_zero = true;

  /// Encode NULL with its own codeword (the paper's preferred treatment).
  /// When unset, a NULL codeword is allocated iff the column has NULLs at
  /// Build() time.
  std::optional<bool> encode_null;

  /// Spare code-width headroom for future domain expansion.
  int extra_width = 0;

  /// Logical-reduction behaviour (enable_reduction=false is the ablation
  /// that evaluates raw min-terms).
  ReductionOptions reduction;

  /// Training predicates (ValueId sets) for kGreedy / kAnnealed.
  PredicateSet training_predicates;

  /// Annealer budget for kAnnealed.
  OptimizerOptions optimizer;

  /// RNG seed for kRandom.
  uint64_t random_seed = 7;
};

/// The encoded bitmap index of Definition 2.1 — the paper's contribution.
///
/// Holds k = ceil(log2 |A|) bitmap vectors B_{k-1}..B_0, where B_i[j] is
/// bit i of the codeword of tuple j's value under the mapping table M^A.
/// Selections are answered by building the retrieval Boolean expression
/// (the OR of the selected values' min-terms), logically reducing it with
/// unused codewords as don't-cares, and evaluating the reduced cover over
/// the slices; the number of distinct vectors in the reduced cover is the
/// I/O charged (c_e of Section 3.1). Slices are plain BitVectors: they
/// sit near 50% density (Section 3.1), where compression saves no space
/// and slows every AND/OR (DESIGN.md §4).
///
/// Maintenance follows Section 2.2: appends of known values set k bits;
/// appends of new values take a free codeword, or — when Equation (1)
/// fails — grow the code width by adding an all-zero bitmap vector
/// (Figure 2(b)).
class EncodedBitmapIndex : public SecondaryIndex {
 public:
  EncodedBitmapIndex(const Column* column, const BitVector* existence,
                     IoAccountant* io,
                     EncodedBitmapIndexOptions options =
                         EncodedBitmapIndexOptions())
      : SecondaryIndex(column, existence, io),
        options_(std::move(options)) {}

  std::string Name() const override { return "encoded-bitmap"; }

  /// Installs a caller-provided mapping (strategy kCustom). The mapping
  /// must cover the column's current cardinality.
  Status SetMapping(MappingTable mapping);

  Status Build() override;
  Status Append(size_t row) override;

  /// Batched appends (Section 2.2, coalesced): resolves codewords for the
  /// whole batch first — growing the code width at most as far as the
  /// batch needs, in one mapping pass — then writes all bits in a single
  /// slice pass.
  Status AppendBatch(size_t first_row, size_t count) override;

  /// Copy-on-write clone for snapshot publication: copies the mapping and
  /// the slice vectors as built, rebinding to `column`/`existence`/`io`
  /// (which must hold exactly the rows this index has indexed). The
  /// clone keeps the trained mapping — no re-encoding, no Build() pass.
  Result<std::unique_ptr<SecondaryIndex>> CloneRebound(
      const Column* column, const BitVector* existence,
      IoAccountant* io) const override;

  /// Re-encodes a deleted row to the void codeword (Section 2.2's handling
  /// of deleted tuples). Call after Table::DeleteRow.
  Status MarkDeleted(size_t row) override;

  Result<BitVector> EvaluateEquals(const Value& value) override;
  Result<BitVector> EvaluateIn(const std::vector<Value>& values) override;
  Result<BitVector> EvaluateRange(int64_t lo, int64_t hi) override;

  /// Rows whose column is NULL (requires a NULL codeword).
  Result<BitVector> EvaluateIsNull() override;
  bool SupportsIsNull() const override {
    return mapping_.null_code().has_value();
  }

  size_t SizeBytes() const override;
  size_t NumVectors() const override { return slices_.size(); }

  /// Section 3.1: c_e <= ceil(log2 m) whatever δ is (worst case; reduction
  /// only lowers it), plus an existence read when no void codeword exists.
  double EstimatePages(const SelectionShape& shape) const override {
    (void)shape;
    const double existence =
        mapping_.void_code().has_value() ? 0.0 : 1.0;
    return (static_cast<double>(slices_.size()) + existence) *
           PagesPerVector();
  }

  const MappingTable& mapping() const { return mapping_; }
  /// The slice vectors B_0..B_{k-1}.
  const std::vector<BitVector>& slices() const { return slices_; }

  /// The reduced retrieval expression an IN-list would evaluate — exposed
  /// so experiments can report c_e without running the query.
  Result<Cover> CoverForIn(const std::vector<Value>& values) const;

  /// Distinct bitmap vectors the reduced expression for `values` touches.
  Result<int> AccessCostForIn(const std::vector<Value>& values) const;

  /// Re-encodes the index under a new mapping (the "dynamic re-encoding"
  /// of Section 2.2 / future-work item 3): all slices are rewritten in one
  /// O(n * k') pass; the data is untouched. The new mapping must cover the
  /// column's current cardinality, and must reserve a NULL codeword if the
  /// column has NULLs (and a void codeword to keep Theorem 2.1 behaviour).
  Status Reencode(MappingTable new_mapping);

  void ForEachAuditVector(
      const std::function<void(const AuditableVector&)>& fn) const override {
    for (size_t i = 0; i < slices_.size(); ++i) {
      fn(AuditableVector{"slice", i, &slices_[i]});
    }
  }

  const MappingTable* audit_mapping() const override {
    return built_ ? &mapping_ : nullptr;
  }

 private:
  Result<Cover> CoverForIds(const std::vector<ValueId>& ids) const;
  Result<BitVector> EvaluateCoverCharged(const Cover& cover);
  /// Writes codeword `code` into plain slices at row `row`.
  static void WriteCodeTo(std::vector<BitVector>* slices, size_t row,
                          uint64_t code);
  Result<uint64_t> CodeForRow(size_t row) const;

  EncodedBitmapIndexOptions options_;
  bool built_ = false;
  size_t rows_indexed_ = 0;
  MappingTable mapping_;
  /// slices_[i] = B_i.
  std::vector<BitVector> slices_;
};

}  // namespace ebi

#endif  // EBI_INDEX_ENCODED_BITMAP_INDEX_H_
