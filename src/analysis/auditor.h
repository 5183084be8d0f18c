#ifndef EBI_ANALYSIS_AUDITOR_H_
#define EBI_ANALYSIS_AUDITOR_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "encoding/mapping_table.h"
#include "index/index.h"
#include "storage/column.h"
#include "util/bitvector.h"

namespace ebi {

/// The structural invariant a check found broken. Each kind maps to one of
/// the paper's correctness guarantees (see DESIGN.md §8):
///   * bijectivity / width / inverse-map kinds — Definition 2.1's
///     one-to-one mapping M^A;
///   * kReservedCodeAssigned — Theorem 2.1's reserved void/NULL codewords
///     (code 0 assigned to a live value breaks the existence-free
///     selection guarantee);
///   * kRetrievalFunctionMismatch — Definition 2.1's retrieval function
///     f_v must be exactly the min-term of v's codeword;
///   * kSelectionNotWellDefined — Definition 2.5 / Theorems 2.2-2.3;
///   * the bitmap kinds — every vector spans the table, and
///     (kBitmapTailDirty) no padding bit above size() is set — the tail
///     invariant Count()/IsZero() rely on to skip masking; a cold slice
///     that fails to load from its pages is kPersistedBitmapCorrupt;
///   * kClusterPartitionMismatch — a cluster placement's per-shard
///     global-row-id maps must tile [0, total_rows) exactly: every row
///     owned by exactly one shard, in append order.
enum class ViolationKind : uint8_t {
  kDuplicateCodeword,
  kCodewordOutOfWidth,
  kInverseMapMismatch,
  kReservedCodeAssigned,
  kRetrievalFunctionMismatch,
  kSelectionNotWellDefined,
  kBitmapLengthMismatch,
  kBitmapTailDirty,
  kPersistedBitmapCorrupt,
  kClusterPartitionMismatch,
};

/// Short stable name, e.g. "DuplicateCodeword".
const char* ViolationKindName(ViolationKind kind);

/// One broken invariant: the kind, the entity it anchors to (ValueId,
/// slice/bucket ordinal, shard number — context-dependent) and a
/// human-readable account.
struct Violation {
  ViolationKind kind;
  size_t entity = 0;
  std::string detail;
};

/// Outcome of an audit pass. `checks_run` counts individual invariant
/// checks so a clean report on an empty structure is distinguishable from
/// a pass that checked nothing.
struct AuditReport {
  std::vector<Violation> violations;
  size_t checks_run = 0;

  [[nodiscard]] bool clean() const { return violations.empty(); }
  [[nodiscard]] bool Has(ViolationKind kind) const;
  [[nodiscard]] size_t CountOf(ViolationKind kind) const;

  /// Folds another report into this one.
  void Merge(AuditReport other);

  /// One line per violation plus a summary header; for test failures and
  /// the shell's `audit` command.
  std::string ToString() const;
};

/// Debug/verify-mode structural auditor for the paper's invariants.
///
/// The high-level entry points (AuditIndex, AuditMapping) walk real
/// structures through the SecondaryIndex audit hooks; the raw-part
/// overloads (AuditMappingParts, AuditBitVectorWords) exist so tests can
/// seed known-bad inputs that the constructing APIs themselves reject.
class InvariantAuditor {
 public:
  /// Audits raw mapping parts: codeword distinctness (including the
  /// reserved codewords), width fit, and reserved-code liveness (a live
  /// value occupying the void/NULL codeword, e.g. code 0 under Theorem
  /// 2.1's recommended reservation).
  static AuditReport AuditMappingParts(
      int width, const std::vector<uint64_t>& codes,
      std::optional<uint64_t> void_code = std::nullopt,
      std::optional<uint64_t> null_code = std::nullopt);

  /// Audits a built MappingTable: the raw-part checks plus inverse-map
  /// consistency (ValueOfCode o CodeOf == identity) and retrieval-function
  /// min-term consistency (f_v == MinTerm(code_v, width), Definition 2.1).
  static AuditReport AuditMapping(const MappingTable& mapping);

  /// Checks Definition 2.5 well-definedness of "A IN subdomain" under
  /// `mapping`. Exact but exponential in |subdomain| (see
  /// encoding/well_defined.h); intended for hand-written IN-lists.
  static AuditReport AuditSelection(const MappingTable& mapping,
                                    const std::vector<ValueId>& subdomain);

  /// Length contract of a plain vector: size == expected_bits, the word
  /// array spans exactly ceil(size / 64) words, and the tail invariant
  /// holds (every padding bit above size() in the last word is zero).
  static AuditReport AuditBitVector(const BitVector& bits,
                                    size_t expected_bits,
                                    size_t ordinal = 0);

  /// Raw tail-invariant contract: audits a bare word array claiming to
  /// hold `declared_bits` bits, so tests can seed padding-bit corruption
  /// that BitVector's own mutators always mask away.
  static AuditReport AuditBitVectorWords(const std::vector<uint64_t>& words,
                                         size_t declared_bits,
                                         size_t ordinal = 0);

  /// Audits one index against the table it is bound to: every vector the
  /// audit hooks surface (length + tail), the mapping table if
  /// the family has one, and — for cold indexes — every slice fetched
  /// back from the backing store. `expected_rows` is the table's row
  /// count. Non-const because cold-store fetches go through the LRU pool.
  static AuditReport AuditIndex(SecondaryIndex& index, size_t expected_rows);

  /// Audits a cluster placement's raw global-row-id maps
  /// (serve/cluster's ShardRouter::Placement::shard_rows, passed as raw
  /// parts so the analysis layer needs no serve dependency): the maps
  /// must tile [0, total_rows) exactly — every global id claimed by
  /// exactly one shard, each shard's map strictly increasing (cluster
  /// append order), and the sizes summing to `total_rows`.
  static AuditReport AuditClusterPartition(
      const std::vector<std::vector<uint64_t>>& shard_rows,
      uint64_t total_rows);
};

}  // namespace ebi

#endif  // EBI_ANALYSIS_AUDITOR_H_
