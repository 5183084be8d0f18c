#ifndef EBI_UTIL_STORED_BITMAP_IO_H_
#define EBI_UTIL_STORED_BITMAP_IO_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "util/bitvector.h"
#include "util/status.h"

namespace ebi {

/// Stream (de)serialization of bitmap vectors — the byte format of the
/// storage engine's slice payloads (src/storage/engine/). Lives in util
/// so the storage layer can use it without depending on the index layer.
///
/// Format: little-endian, magic-guarded sections. Loading is hardened
/// against hostile streams: counts are never trusted before the bytes
/// backing them have actually been read, so a truncated or garbage
/// stream fails with a descriptive Status (OutOfRange for truncation,
/// InvalidArgument for corruption, including a declared bit size whose
/// word count would overflow) — never an assert, overflow, or attempted
/// multi-gigabyte allocation.

/// Bitmap vectors.
[[nodiscard]] Status SaveBitVector(std::ostream& out, const BitVector& bits);
[[nodiscard]] Result<BitVector> LoadBitVector(std::istream& in);

/// Slice payloads: the stored-bitmap envelope around a BitVector. The
/// stream carries a format tag after the magic; 0 (plain words) is the
/// only tag, and any other is rejected as InvalidArgument.
[[nodiscard]] Status SaveStoredBitmap(std::ostream& out,
                                      const BitVector& bits);
[[nodiscard]] Result<BitVector> LoadStoredBitmap(std::istream& in);

/// Zero-copy load from caller-owned bytes — the storage engine's warm
/// read path, where the payload is already assembled in memory and an
/// istringstream round-trip would cost an extra full copy. Identical
/// format and hardening to the stream overload.
[[nodiscard]] Result<BitVector> LoadStoredBitmap(const uint8_t* data,
                                                 size_t size);

/// Bytes before the first word of a serialized slice payload: the
/// stored magic, the format tag, the vector magic and the u64 bit size.
inline constexpr size_t kPlainStoredHeaderBytes = 20;

/// Validates the header of a serialized slice payload — its first
/// kPlainStoredHeaderBytes bytes — and returns the declared bit size.
/// The streaming read path (BitmapStore::VectorReader) takes the words
/// that follow in order, without assembling a BitVector.
[[nodiscard]] Result<uint64_t> ParsePlainStoredHeader(const uint8_t* header);

/// Converts `n` words copied verbatim from serialized (little-endian)
/// bytes to native order, in place; a no-op on little-endian hosts.
void WordsFromLittleEndian(uint64_t* words, size_t n);

/// Adopts `words`, copied verbatim from a serialized `bits`-bit vector,
/// as a BitVector: converts them to native order and rejects a word
/// count that does not fit `bits` or set padding bits past it
/// (InvalidArgument). The storage engine's whole-slice read copies page
/// payloads straight into `words` and finishes here.
[[nodiscard]] Result<BitVector> BitVectorFromLittleEndian(
    uint64_t bits, std::vector<uint64_t> words);

}  // namespace ebi

#endif  // EBI_UTIL_STORED_BITMAP_IO_H_
