#ifndef EBI_UTIL_BITVECTOR_H_
#define EBI_UTIL_BITVECTOR_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ebi {

/// A densely packed, word-aligned bit vector.
///
/// This is the physical representation of every bitmap vector in the
/// library: one bit per tuple position, bit j set iff tuple j satisfies the
/// vector's property (Section 2.1 of the paper). Logical operations are
/// word-parallel; bits past `size()` in the last word are kept at zero so
/// that Count() and IsZero() never need masking.
class BitVector {
 public:
  BitVector() = default;
  /// Creates a vector of `size` bits, all zero (or all one).
  explicit BitVector(size_t size, bool value = false);

  BitVector(const BitVector&) = default;
  BitVector& operator=(const BitVector&) = default;
  BitVector(BitVector&&) = default;
  BitVector& operator=(BitVector&&) = default;

  /// Parses a string of '0'/'1' characters, index 0 first. Other characters
  /// are rejected by returning an empty vector; intended for tests.
  [[nodiscard]] static BitVector FromString(const std::string& bits);

  /// Adopts `words` as the backing array of a `size`-bit vector without
  /// copying — the bulk-load path for file reads. The vector is resized
  /// to the exact word count for `size` (truncating or zero-extending) and
  /// the tail is masked, so the tail invariant holds regardless of what
  /// the caller read into the array.
  [[nodiscard]] static BitVector FromWords(size_t size,
                                           std::vector<uint64_t> words);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  [[nodiscard]] bool Get(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & uint64_t{1};
  }
  void Set(size_t i) { words_[i >> 6] |= uint64_t{1} << (i & 63); }
  void Reset(size_t i) { words_[i >> 6] &= ~(uint64_t{1} << (i & 63)); }
  void Assign(size_t i, bool value) {
    if (value) {
      Set(i);
    } else {
      Reset(i);
    }
  }

  /// Grows or shrinks to `size` bits; new bits are zero.
  void Resize(size_t size);
  /// Appends one bit at the end.
  void PushBack(bool value);
  /// Sets all bits to zero without changing the size.
  void Clear();
  /// Sets all bits to one.
  void SetAll();

  /// Number of set bits.
  [[nodiscard]] size_t Count() const;
  /// True iff no bit is set.
  [[nodiscard]] bool IsZero() const;
  /// Fraction of zero bits, the paper's "sparsity" measure (Section 2.1).
  [[nodiscard]] double Sparsity() const;

  /// In-place logical operations, dispatched through the active bitmap
  /// kernel backend (util/kernels, DESIGN.md §10). The operand must have
  /// the same size (asserted in debug builds). If the sizes nevertheless
  /// differ, the shorter operand is treated as zero-extended — the
  /// operations stay memory-safe, never read past either word array, and
  /// always re-mask the tail so padding bits stay zero even when the
  /// longer operand carried set bits in this vector's padding range.
  BitVector& AndWith(const BitVector& other);
  BitVector& OrWith(const BitVector& other);
  BitVector& XorWith(const BitVector& other);
  /// In-place complement (bits past size() stay zero).
  BitVector& FlipAll();
  /// this &= ~other.
  BitVector& AndNotWith(const BitVector& other);

  /// Fused multi-operand merges: one pass over memory instead of a chain
  /// of binary ops, the shape of the paper's min-term OR chains and of
  /// conjunctive predicate merges. Every operand must be non-null and
  /// match size() (asserted in debug builds; an operand of a different
  /// size falls back to the binary op's zero-extension semantics).
  BitVector& OrWithMany(const std::vector<const BitVector*>& operands);
  BitVector& AndWithMany(const std::vector<const BitVector*>& operands);

  /// Calls `fn(index)` for every set bit in increasing order.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t word = words_[w];
      while (word != 0) {
        const int bit = __builtin_ctzll(word);
        fn(static_cast<size_t>(w * 64 + bit));
        word &= word - 1;
      }
    }
  }

  /// Materializes the positions of the set bits.
  [[nodiscard]] std::vector<uint32_t> ToPositions() const;

  /// Renders as a '0'/'1' string, index 0 first; intended for tests.
  std::string ToString() const;

  /// Number of heap bytes used by the word array (the index size metric).
  size_t SizeBytes() const { return words_.size() * sizeof(uint64_t); }

  /// Read access to the backing words (e.g. for serialization).
  const std::vector<uint64_t>& words() const { return words_; }

  /// Number of backing 64-bit words.
  size_t NumWords() const { return words_.size(); }

  /// Bulk word-granular write: overwrites `count` backing words starting
  /// at `first` with `words[0..count)` (the blocked cover pass's write-
  /// back). A write that touches the last word is masked so the tail
  /// invariant is preserved. The range must lie within NumWords()
  /// (asserted in debug builds; clamped otherwise).
  void SetWordRange(size_t first, const uint64_t* words, size_t count);

  /// True iff every padding bit above size() in the last word is zero —
  /// the tail invariant Count()/IsZero()/ForEachSetBit rely on. Asserted
  /// after every mutating operation in debug builds; public so tests and
  /// the InvariantAuditor can verify it.
  [[nodiscard]] bool TailIsClean() const;

  friend bool operator==(const BitVector& a, const BitVector& b) {
    return a.size_ == b.size_ && a.words_ == b.words_;
  }

 private:
  /// Zeroes the unused high bits of the last word.
  void MaskTail();

  /// Debug-build assertion that the tail invariant held after a mutating
  /// operation; compiles to nothing under NDEBUG.
  void DebugCheckTail() const;

  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

/// Out-of-place logical operations.
[[nodiscard]] BitVector And(const BitVector& a, const BitVector& b);
[[nodiscard]] BitVector Or(const BitVector& a, const BitVector& b);
[[nodiscard]] BitVector Xor(const BitVector& a, const BitVector& b);
[[nodiscard]] BitVector Not(const BitVector& a);

}  // namespace ebi

#endif  // EBI_UTIL_BITVECTOR_H_
