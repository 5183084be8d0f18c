#ifndef EBI_ENCODING_MAPPING_TABLE_H_
#define EBI_ENCODING_MAPPING_TABLE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "boolean/cover.h"
#include "boolean/cube.h"
#include "boolean/reduction.h"
#include "storage/column.h"
#include "util/status.h"

namespace ebi {

/// The one-to-one mapping M^A of Definition 2.1: domain values (as dense
/// ValueIds of a column dictionary) to codewords of `width` bits.
///
/// Two special codewords may be reserved, following the paper's second
/// NULL-handling method ("assign the non-existing tuples and the tuples
/// with NULL value artificial key values, and encode these values together
/// with the other key values"):
///   * the void codeword for non-existing/deleted tuples — Theorem 2.1
///     recommends reserving code 0 so the existence conjunct can be dropped;
///   * the NULL codeword for SQL NULLs.
class MappingTable {
 public:
  MappingTable() = default;

  /// Creates a mapping for `codes[i]` = codeword of ValueId i. Codewords
  /// must be distinct and fit in `width` bits; `width` must be at least
  /// ceil(log2 of the total number of codewords including reserved ones).
  static Result<MappingTable> Create(
      int width, const std::vector<uint64_t>& codes,
      std::optional<uint64_t> void_code = std::nullopt,
      std::optional<uint64_t> null_code = std::nullopt);

  int width() const { return width_; }
  /// Number of mapped domain values (excluding void/NULL codewords).
  size_t NumValues() const { return code_of_value_.size(); }
  /// Total codewords in use, including reserved ones.
  size_t NumCodes() const;

  std::optional<uint64_t> void_code() const { return void_code_; }
  std::optional<uint64_t> null_code() const { return null_code_; }

  /// Codeword of a domain value.
  Result<uint64_t> CodeOf(ValueId id) const;
  /// ValueId mapped to `code`; nullopt for unused / reserved codewords.
  std::optional<ValueId> ValueOfCode(uint64_t code) const;

  /// The retrieval Boolean function f_v of Definition 2.1 (a k-variable
  /// min-term).
  Result<Cube> RetrievalFunction(ValueId id) const;

  /// Registers a codeword for a new domain value (updates *without* width
  /// expansion, Figure 2(a)). Fails if the code is taken or out of width.
  Status AddValue(ValueId id, uint64_t code);

  /// Grows the code width (updates *with* domain expansion, Figure 2(b)):
  /// existing codewords are zero-extended, matching the paper's step of
  /// adding a new all-zero bitmap vector B_k.
  Status ExpandWidth(int new_width);

  /// First codeword in [0, 2^width) not currently assigned; nullopt if the
  /// code space is full. O(1).
  std::optional<uint64_t> FirstFreeCode() const;

  /// Unused codewords (don't-cares for logical reduction) in ascending
  /// order, at most `limit`. O(limit).
  std::vector<uint64_t> UnusedCodes(size_t limit) const;

  /// All assigned (value, code) pairs in ValueId order; for inspection.
  const std::vector<uint64_t>& codes() const { return code_of_value_; }

  std::string ToString() const;

 private:
  int width_ = 0;
  std::vector<uint64_t> code_of_value_;  // by ValueId
  std::unordered_map<uint64_t, ValueId> value_of_code_;
  std::optional<uint64_t> void_code_;
  std::optional<uint64_t> null_code_;

  /// Removes `code`, which must be free, from `free_ranges_`.
  void TakeFreeCode(uint64_t code);

  /// The unassigned codewords of [0, 2^width) as sorted, disjoint,
  /// non-adjacent inclusive ranges. A sequential mapping leaves one range
  /// (its free tail); there are never more than NumCodes() + 1.
  struct CodeRange {
    uint64_t first;
    uint64_t last;
  };
  std::vector<CodeRange> free_ranges_ = {{0, 0}};  // Width 0: code 0 free.
};

/// Reduces the retrieval function of the selection "value in `ids`": the
/// onset is the ids' codewords under `mapping`, the don't-cares its first
/// kMaxDontCareTerms unused codewords. Unused codewords never occur in the
/// data; reserved codewords (void/NULL) stay constrained to 0, so a
/// selection never returns void or NULL tuples. Every index and cost model
/// reduces a selection through here, so the don't-care cap is one policy.
Result<Cover> ReduceSelection(const MappingTable& mapping,
                              const std::vector<ValueId>& ids,
                              const ReductionOptions& options);

}  // namespace ebi

#endif  // EBI_ENCODING_MAPPING_TABLE_H_
