#ifndef EBI_UTIL_STORED_BITMAP_H_
#define EBI_UTIL_STORED_BITMAP_H_

#include <cstddef>
#include <variant>

#include "util/bitmap_format.h"
#include "util/bitvector.h"
#include "util/ewah_bitmap.h"
#include "util/status.h"

namespace ebi {

/// One bitmap vector in its selected physical format.
///
/// This is the unit SimpleBitmapIndex stores per value and the storage
/// engine stores per slice: the logical bits are the same in every
/// format, but SizeBytes() — and therefore the I/O charged per vector
/// read — reflects the physical representation. Logical operations
/// dispatch to the matching kernel, so a query path written against
/// StoredBitmap runs unchanged over plain and EWAH storage.
class StoredBitmap {
 public:
  /// An empty plain bitmap.
  StoredBitmap() = default;

  /// Materializes `bits` in the requested format.
  [[nodiscard]] static StoredBitmap Make(BitVector bits, BitmapFormat format);

  /// Wraps an already-compressed representation without re-encoding —
  /// the deserialization path, where the compressed words were validated
  /// on read and decompress/recompress would lose the exact physical
  /// layout the I/O charge is based on.
  [[nodiscard]] static StoredBitmap FromEwah(EwahBitmap ewah);

  [[nodiscard]] BitmapFormat format() const {
    return std::holds_alternative<EwahBitmap>(rep_) ? BitmapFormat::kEwah
                                                    : BitmapFormat::kPlain;
  }

  /// Number of logical bits.
  [[nodiscard]] size_t size() const;
  /// Number of set bits (computed on the compressed form).
  [[nodiscard]] size_t Count() const;
  /// Physical heap bytes — the per-read I/O charge and the space metric.
  [[nodiscard]] size_t SizeBytes() const;
  /// Fraction of zero bits.
  [[nodiscard]] double Sparsity() const;

  /// Expands to a plain bit vector (a copy even for plain storage).
  [[nodiscard]] BitVector ToBitVector() const&;
  /// Expands to a plain bit vector, moving plain storage out instead of
  /// copying it.
  [[nodiscard]] BitVector ToBitVector() &&;

  /// Fast path: the underlying plain vector, or nullptr when compressed.
  [[nodiscard]] const BitVector* AsPlain() const {
    return std::get_if<BitVector>(&rep_);
  }

  /// The underlying compressed form, or nullptr when plain. Used by the
  /// codec to serialize words without decompressing.
  [[nodiscard]] const EwahBitmap* AsEwah() const {
    return std::get_if<EwahBitmap>(&rep_);
  }

  /// Appends one bit. Plain storage grows in place; compressed storage is
  /// rewritten (decompress, append, recompress) — the O(|T|) maintenance
  /// cost compressed indexes pay per append (Section 3.1).
  void AppendBit(bool value);

  /// Logical operations on the stored form. Both operands must share the
  /// same format and bit size; InvalidArgument otherwise.
  static Result<StoredBitmap> And(const StoredBitmap& a,
                                  const StoredBitmap& b);
  static Result<StoredBitmap> Or(const StoredBitmap& a,
                                 const StoredBitmap& b);

  /// Calls `fn(index)` for every set bit in increasing order.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    std::visit([&](const auto& rep) { rep.ForEachSetBit(fn); }, rep_);
  }

 private:
  std::variant<BitVector, EwahBitmap> rep_;
};

}  // namespace ebi

#endif  // EBI_UTIL_STORED_BITMAP_H_
