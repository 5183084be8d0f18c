#ifndef EBI_INDEX_ENCODED_INDEX_BASE_H_
#define EBI_INDEX_ENCODED_INDEX_BASE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "boolean/cover.h"
#include "boolean/reduction.h"
#include "encoding/mapping_table.h"
#include "encoding/optimizer.h"
#include "index/index.h"
#include "obs/trace.h"

namespace ebi {

/// How the domain encoding of an encoded bitmap index is chosen at Build().
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
  /// The value's own binary form, code = value - bias with the bias the
  /// column minimum at Build(): the total-order preserving encoding of the
  /// bit-sliced index (Section 4). Integer columns only. It reserves no
  /// void or NULL codeword whatever the options say: deleted rows are
  /// masked by the existence AND, NULL rows are written as code 0 and
  /// masked after evaluation.
  kValueBinary,
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

/// The encoding of Definition 2.1, whoever holds the slices: the one
/// place that derives the mapping table, resolves rows to codewords
/// (void, NULL, and the domain expansion of Section 2.2), reduces a
/// selection to its retrieval cover, and writes codewords into in-memory
/// slices. EncodedBitmapIndex keeps its slices in memory and
/// ColdEncodedBitmapIndex in a storage engine; each supplies only the
/// three storage hooks below, each called once per build, append batch,
/// deletion or query — never per row or per word.
class EncodedIndexBase : public SecondaryIndex {
 public:
  /// Derives the mapping (per `strategy`), encodes every row and hands
  /// the slices to StoreSlices.
  Status Build() final;
  Status Append(size_t row) final { return AppendBatch(row, 1); }

  /// Batched appends (Section 2.2, coalesced): resolves codewords for the
  /// whole batch first — growing the code width at most as far as the
  /// batch needs — then extends the slices once (WriteCodes).
  Status AppendBatch(size_t first_row, size_t count) final;

  /// Re-encodes a deleted row to the void codeword (Section 2.2's handling
  /// of deleted tuples). Call after Table::DeleteRow. Without a void
  /// codeword the existence AND in evaluation masks the row instead.
  Status MarkDeleted(size_t row) final;

  Result<BitVector> EvaluateEquals(const Value& value) final {
    return EvaluateIn({value});
  }
  Result<BitVector> EvaluateIn(const std::vector<Value>& values) final;
  /// Ranges run through the reduced cover of the ids in [lo, hi]. The
  /// bit-sliced preset overrides this with its slice comparator.
  Result<BitVector> EvaluateRange(int64_t lo, int64_t hi) override;

  /// Rows whose column is NULL (requires a NULL codeword).
  Result<BitVector> EvaluateIsNull() final;
  bool SupportsIsNull() const final {
    return mapping_.null_code().has_value();
  }

  const MappingTable& mapping() const { return mapping_; }
  const MappingTable* audit_mapping() const final {
    return built_ ? &mapping_ : nullptr;
  }

  /// The reduced retrieval expression an IN-list would evaluate — exposed
  /// so experiments can report c_e without running the query.
  Result<Cover> CoverForIn(const std::vector<Value>& values) const;

  /// Distinct bitmap vectors the reduced expression for `values` touches.
  Result<int> AccessCostForIn(const std::vector<Value>& values) const;

 protected:
  EncodedIndexBase(const Column* column, const BitVector* existence,
                   IoAccountant* io, EncodedBitmapIndexOptions options)
      : SecondaryIndex(column, existence, io),
        options_(std::move(options)) {}

  /// Takes the width() slices Build encoded, B_0 first.
  virtual Status StoreSlices(std::vector<BitVector> slices) = 0;
  /// Writes `codes` at rows [first_row, first_row + codes.size()) of
  /// every slice: a deletion rewrites one indexed row, an append batch
  /// extends every slice past rows_indexed_, after adding the slices up
  /// to mapping_.width() that width growth asked for — all zero before
  /// the batch (Figure 2(b)).
  virtual Status WriteCodes(size_t first_row,
                            const std::vector<uint64_t>& codes) = 0;
  /// Evaluates `cover` over the slices it references, charging the reads.
  virtual Result<BitVector> EvaluateSlices(const Cover& cover) = 0;

  /// Clears from an evaluated `result` the rows its codewords cannot
  /// exclude: NULL rows under a value-binary mapping, and, without a void
  /// codeword, deleted rows (the existence AND, charged). Returns whether
  /// it read the existence bitmap.
  bool MaskUnencodedRows(BitVector* result);

  /// Encodes rows [0, n) under mapping_ into width() slices, a block of
  /// rows at a time.
  Result<std::vector<BitVector>> EncodeRows(size_t n);

  /// The slice writer: stores codes[0, count) at rows
  /// [first_row, first_row + count) of slices[0, num_slices), slice s
  /// taking bit first_bit + s of each codeword, 64 rows at a time.
  static void WriteBits(const uint64_t* codes, size_t count,
                        size_t first_row, int first_bit, BitVector* slices,
                        size_t num_slices);

  EncodedBitmapIndexOptions options_;
  bool built_ = false;
  size_t rows_indexed_ = 0;
  MappingTable mapping_;
  /// Set iff mapping_ is value-binary (kValueBinary): the value of code 0.
  /// Kept apart from options_.strategy, which a clone rewrites to kCustom.
  std::optional<int64_t> value_bias_;

 private:
  Status DeriveMapping();
  /// Codewords of rows [first_row, first_row + count): void for deleted
  /// rows, the NULL codeword (code 0 under a value-binary mapping) for
  /// NULLs, and for values the mapping does not yet hold a new codeword
  /// (AddNewValue).
  Status ResolveCodes(size_t first_row, size_t count, uint64_t* codes);
  /// Domain expansion (Section 2.2) for the value `id`: the code
  /// value - bias under a value-binary mapping, else the first free
  /// codeword; the width grows until the code fits.
  Status AddNewValue(ValueId id, bool value_binary);
  /// Reduces the selection of `ids` and evaluates it under `span`.
  Result<BitVector> EvaluateIds(obs::ScopedSpan& span,
                                const std::vector<ValueId>& ids);
  /// EvaluateSlices plus the existence AND Theorem 2.1 spares a void
  /// codeword, inside one cover.eval span.
  Result<BitVector> EvaluateCharged(const Cover& cover);
};

}  // namespace ebi

#endif  // EBI_INDEX_ENCODED_INDEX_BASE_H_
