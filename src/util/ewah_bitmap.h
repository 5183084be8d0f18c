#ifndef EBI_UTIL_EWAH_BITMAP_H_
#define EBI_UTIL_EWAH_BITMAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/bitvector.h"
#include "util/status.h"

namespace ebi {

/// Word-aligned hybrid compressed bitmap (EWAH-style).
///
/// The buffer is a sequence of groups, each a marker word followed by its
/// literal words. A marker encodes
///
///   bit  0      value of the clean run (all-zero or all-one words),
///   bits 1..32  clean-run length in 64-bit words,
///   bits 33..63 number of verbatim literal words that follow.
///
/// Unlike the bit-granular RleBitmap, every logical operation works at
/// word granularity directly on the compressed form: clean runs are
/// skipped or emitted wholesale and only literal words are combined
/// bitwise. This is the compression family of Wu/Lemire-style bitmap
/// engines (see "Sorting improves word-aligned bitmap indexes" in
/// PAPERS.md) and the compressed backend behind BitmapFormat.
///
/// Invariants mirror BitVector: bits at positions >= size() are zero, so
/// Count() and equality never need masking; a partial last word is always
/// stored as a literal or inside a run of zeros, never a run of ones.
class EwahBitmap {
 public:
  EwahBitmap() = default;

  /// Compresses a plain bit vector.
  [[nodiscard]] static EwahBitmap Compress(const BitVector& bits);

  /// Expands back to a plain bit vector.
  [[nodiscard]] BitVector Decompress() const;

  /// Logical operations on the compressed form. Operands must have equal
  /// bit sizes (asserted in debug builds); if they nevertheless differ,
  /// the shorter operand is treated as zero-extended and the result takes
  /// the larger size — memory-safe, never reads past either buffer.
  [[nodiscard]] static EwahBitmap And(const EwahBitmap& a, const EwahBitmap& b);
  [[nodiscard]] static EwahBitmap Or(const EwahBitmap& a, const EwahBitmap& b);
  [[nodiscard]] static EwahBitmap Xor(const EwahBitmap& a, const EwahBitmap& b);
  /// a AND NOT b.
  [[nodiscard]] static EwahBitmap AndNot(const EwahBitmap& a, const EwahBitmap& b);

  /// Status-returning variants that reject mismatched operand sizes with
  /// InvalidArgument instead of asserting.
  static Result<EwahBitmap> AndChecked(const EwahBitmap& a,
                                       const EwahBitmap& b);
  static Result<EwahBitmap> OrChecked(const EwahBitmap& a,
                                      const EwahBitmap& b);
  static Result<EwahBitmap> XorChecked(const EwahBitmap& a,
                                       const EwahBitmap& b);
  static Result<EwahBitmap> AndNotChecked(const EwahBitmap& a,
                                          const EwahBitmap& b);

  /// Complement on the compressed form (bits past size() stay zero).
  [[nodiscard]] EwahBitmap Not() const;

  /// Number of logical bits.
  size_t size() const { return size_; }
  /// Number of set bits, computed on the compressed form.
  [[nodiscard]] size_t Count() const;
  /// Heap bytes of the word buffer: the compressed-size metric.
  size_t SizeBytes() const { return words_.size() * sizeof(uint64_t); }
  /// Number of buffer words (markers + literals).
  size_t NumWords() const { return words_.size(); }

  /// Compression ratio relative to the plain representation
  /// (plain bytes / compressed bytes); > 1 means compression helped.
  [[nodiscard]] double CompressionRatio() const;

  /// Calls `fn(index)` for every set bit in increasing order, decoding
  /// runs and literals on the fly.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    size_t word_pos = 0;
    size_t i = 0;
    while (i < words_.size()) {
      const uint64_t marker = words_[i++];
      const uint64_t run_len = RunLength(marker);
      if (RunValue(marker)) {
        const size_t begin = word_pos * 64;
        const size_t end = (word_pos + run_len) * 64;
        for (size_t b = begin; b < end; ++b) {
          fn(b);
        }
      }
      word_pos += run_len;
      const uint64_t literals = LiteralCount(marker);
      for (uint64_t l = 0; l < literals; ++l) {
        uint64_t word = words_[i++];
        while (word != 0) {
          const int bit = __builtin_ctzll(word);
          fn(word_pos * 64 + static_cast<size_t>(bit));
          word &= word - 1;
        }
        ++word_pos;
      }
    }
  }

  /// Reconstructs a bitmap from a serialized buffer (e.g. read back from a
  /// BitmapStore slot). Validates that the markers are well formed and
  /// cover exactly ceil(bits / 64) words; rejects corrupt buffers.
  static Result<EwahBitmap> FromWords(std::vector<uint64_t> words,
                                      size_t bits);

  /// Read access to the buffer (markers + literals), for serialization.
  const std::vector<uint64_t>& words() const { return words_; }

  friend bool operator==(const EwahBitmap& a, const EwahBitmap& b) {
    return a.size_ == b.size_ && a.words_ == b.words_;
  }

 private:
  friend class EwahBuilder;
  friend class EwahWordCursor;

  static constexpr int kRunLenShift = 1;
  static constexpr int kLiteralShift = 33;
  static constexpr uint64_t kRunLenMax = (uint64_t{1} << 32) - 1;
  static constexpr uint64_t kLiteralMax = (uint64_t{1} << 31) - 1;

  static bool RunValue(uint64_t marker) { return (marker & 1) != 0; }
  static uint64_t RunLength(uint64_t marker) {
    return (marker >> kRunLenShift) & kRunLenMax;
  }
  static uint64_t LiteralCount(uint64_t marker) {
    return marker >> kLiteralShift;
  }
  static uint64_t MakeMarker(bool value, uint64_t run_len,
                             uint64_t literals) {
    return (value ? uint64_t{1} : 0) | (run_len << kRunLenShift) |
           (literals << kLiteralShift);
  }

  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace ebi

#endif  // EBI_UTIL_EWAH_BITMAP_H_
