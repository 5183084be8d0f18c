#ifndef EBI_INDEX_INDEX_H_
#define EBI_INDEX_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "storage/column.h"
#include "storage/io_accountant.h"
#include "util/bitvector.h"
#include "util/status.h"

namespace ebi {

class MappingTable;

/// One bitmap vector an index physically holds, surfaced for structural
/// audits (analysis/auditor.h).
struct AuditableVector {
  /// What the vector represents: "value", "slice", "bucket", "digit",
  /// "null", ... — the index family's own vocabulary.
  const char* role = "vector";
  /// Position within the role (value id, slice number, bucket, ...).
  size_t ordinal = 0;
  const BitVector* plain = nullptr;
};

/// Kinds of selection an index may be asked to cost (mirrors
/// Predicate::Kind without depending on the query layer).
struct SelectionShape {
  enum class Kind : uint8_t { kPoint, kValueSet, kRange } kind =
      Kind::kPoint;
  /// Number of distinct selected values (the paper's δ); 1 for points.
  size_t delta = 1;
};

/// Common interface of all secondary indexes in the library.
///
/// An index is bound to one column (plus the table's existence bitmap) at
/// construction, charges all its reads to an IoAccountant, and answers
/// point, IN-list and range selections with a result bitmap over rows.
/// Range bounds are inclusive ([lo, hi]) and apply to kInt64 columns.
///
/// All Evaluate* results exclude deleted (void) rows.
class SecondaryIndex {
 public:
  SecondaryIndex(const Column* column, const BitVector* existence,
                 IoAccountant* io)
      : column_(column), existence_(existence), io_(io) {}
  virtual ~SecondaryIndex() = default;

  SecondaryIndex(const SecondaryIndex&) = delete;
  SecondaryIndex& operator=(const SecondaryIndex&) = delete;

  /// Human-readable kind, e.g. "encoded-bitmap".
  virtual std::string Name() const = 0;

  /// Builds the index from the bound column's current contents.
  virtual Status Build() = 0;

  /// Extends the index for row `row`, which was just appended to the
  /// column. Rows must be appended in order.
  virtual Status Append(size_t row) = 0;

  /// Extends the index for rows [first_row, first_row + count), all
  /// already appended to the column. The default loops Append; families
  /// with an expensive per-append path (slice rewrites, domain expansion)
  /// override it to coalesce the whole batch into one rewrite — the
  /// batched maintenance path of MaintenanceDriver::AppendRows.
  virtual Status AppendBatch(size_t first_row, size_t count) {
    for (size_t i = 0; i < count; ++i) {
      EBI_RETURN_IF_ERROR(Append(first_row + i));
    }
    return Status::OK();
  }

  /// Copy-on-write rebuild hook for snapshot publication (src/serve/):
  /// returns a new index of the same family and configuration, bound to
  /// (`column`, `existence`, `io`) — typically the cloned table of the
  /// next snapshot — carrying over the already-built structure (mapping
  /// tables, slice vectors) instead of re-running Build(). The bound
  /// column must hold exactly the rows this index has indexed; append the
  /// batch afterwards through AppendBatch. Families without an override
  /// report Unimplemented and the serving layer falls back to a factory
  /// rebuild.
  virtual Result<std::unique_ptr<SecondaryIndex>> CloneRebound(
      const Column* column, const BitVector* existence,
      IoAccountant* io) const {
    (void)column;
    (void)existence;
    (void)io;
    return Status::Unimplemented(Name() + " has no copy-on-write clone");
  }

  /// Rows with column == value.
  virtual Result<BitVector> EvaluateEquals(const Value& value) = 0;

  /// Rows with column IN values.
  virtual Result<BitVector> EvaluateIn(const std::vector<Value>& values) = 0;

  /// Rows with lo <= column <= hi (kInt64 columns only).
  virtual Result<BitVector> EvaluateRange(int64_t lo, int64_t hi) = 0;

  /// Rows whose column is NULL. Only bitmap-family indexes materialize a
  /// NULL representation; others report Unimplemented.
  virtual Result<BitVector> EvaluateIsNull() {
    return Status::Unimplemented(Name() + " has no NULL representation");
  }

  /// True iff EvaluateIsNull is implemented — SelectionExecutor::Choose
  /// only routes IS NULL predicates to capable indexes.
  virtual bool SupportsIsNull() const { return false; }

  /// Reacts to the logical deletion of `row`. Most indexes rely on the
  /// existence bitmap at evaluation time and need no action; encoded
  /// bitmap indexes re-encode the row to the void codeword.
  virtual Status MarkDeleted(size_t row) {
    (void)row;
    return Status::OK();
  }

  /// Estimated pages this index would read to answer a selection of the
  /// given shape — the quantity SelectionExecutor::Choose minimizes. The
  /// default is a pessimistic whole-index read; every index family
  /// overrides it with its Section 2.1/3.1 cost model.
  virtual double EstimatePages(const SelectionShape& shape) const {
    (void)shape;
    return static_cast<double>(
        (SizeBytes() + io_->page_size() - 1) / io_->page_size());
  }

  /// Enumerates the bitmap vectors the index physically holds, for the
  /// InvariantAuditor's structural checks (length and tail contracts).
  /// Indexes without in-memory bitmap storage (B-tree, projection,
  /// value-list, cold) enumerate nothing; the auditor reaches disk-
  /// resident vectors through their own accessors.
  virtual void ForEachAuditVector(
      const std::function<void(const AuditableVector&)>& fn) const {
    (void)fn;
  }

  /// The mapping table driving the index's encoding, if any — audited for
  /// bijectivity, reserved codewords and retrieval-function consistency
  /// (Definitions 2.1/2.5, Theorem 2.1). nullptr for unencoded families.
  virtual const MappingTable* audit_mapping() const { return nullptr; }

 protected:
  /// Pages of one n-bit bitmap vector under the accountant's page size.
  double PagesPerVector() const {
    const double bytes = static_cast<double>((NumRows() + 7) / 8);
    return std::max(1.0, bytes / static_cast<double>(io_->page_size()));
  }

 public:

  /// Heap bytes of the index structures (the space metric of Figure 10 and
  /// the Section 2.1 analysis).
  virtual size_t SizeBytes() const = 0;

  /// Number of bitmap vectors (or vector-like structures) the index holds;
  /// |A| for simple bitmap indexes, ceil(log2 |A|) for encoded ones.
  virtual size_t NumVectors() const = 0;

  const Column& column() const { return *column_; }

 protected:
  /// Translates an IN-list of user values to ValueIds, silently dropping
  /// values that never occur (they match no row).
  std::vector<ValueId> IdsOf(const std::vector<Value>& values) const;

  /// Number of rows currently indexed.
  size_t NumRows() const { return column_->size(); }

  const Column* column_;
  const BitVector* existence_;
  IoAccountant* io_;
};

}  // namespace ebi

#endif  // EBI_INDEX_INDEX_H_
