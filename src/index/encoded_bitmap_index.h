#ifndef EBI_INDEX_ENCODED_BITMAP_INDEX_H_
#define EBI_INDEX_ENCODED_BITMAP_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "index/encoded_index_base.h"

namespace ebi {

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
/// The encoding and the maintenance of Section 2.2 live in
/// EncodedIndexBase; this class holds the slices in memory.
class EncodedBitmapIndex : public EncodedIndexBase {
 public:
  EncodedBitmapIndex(const Column* column, const BitVector* existence,
                     IoAccountant* io,
                     EncodedBitmapIndexOptions options =
                         EncodedBitmapIndexOptions())
      : EncodedIndexBase(column, existence, io, std::move(options)) {}

  std::string Name() const override { return name_; }

  /// Installs a caller-provided mapping (strategy kCustom). The mapping
  /// must cover the column's current cardinality. A value-binary index
  /// refuses it, as it refuses Reencode.
  Status SetMapping(MappingTable mapping);

  /// Copy-on-write clone for snapshot publication: copies the mapping and
  /// the slice vectors as built, rebinding to `column`/`existence`/`io`
  /// (which must hold exactly the rows this index has indexed). The
  /// clone keeps the trained mapping, the value-binary rule for new
  /// values, the class and the name — no re-encoding, no Build() pass.
  Result<std::unique_ptr<SecondaryIndex>> CloneRebound(
      const Column* column, const BitVector* existence,
      IoAccountant* io) const override;

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

  /// The slice vectors B_0..B_{k-1}.
  const std::vector<BitVector>& slices() const { return slices_; }

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

 protected:
  /// A preset of the index under its own name (DynamicBitmapIndex,
  /// BitSlicedIndex).
  EncodedBitmapIndex(const Column* column, const BitVector* existence,
                     IoAccountant* io, EncodedBitmapIndexOptions options,
                     const char* name)
      : EncodedIndexBase(column, existence, io, std::move(options)),
        name_(name) {}

  /// An unbuilt index of this object's class, bound to the arguments,
  /// that CloneRebound fills: a preset with methods of its own overrides
  /// it, so that its clones keep them.
  virtual std::unique_ptr<EncodedBitmapIndex> NewOfSameClass(
      const Column* column, const BitVector* existence,
      IoAccountant* io) const {
    return std::make_unique<EncodedBitmapIndex>(column, existence, io);
  }

 private:
  Status StoreSlices(std::vector<BitVector> slices) override;
  Status WriteCodes(size_t first_row,
                    const std::vector<uint64_t>& codes) override;
  Result<BitVector> EvaluateSlices(const Cover& cover) override;

  const char* name_ = "encoded-bitmap";
  /// slices_[i] = B_i.
  std::vector<BitVector> slices_;
};

}  // namespace ebi

#endif  // EBI_INDEX_ENCODED_BITMAP_INDEX_H_
