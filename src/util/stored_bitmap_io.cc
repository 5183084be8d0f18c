#include "util/stored_bitmap_io.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <streambuf>
#include <utility>
#include <vector>

namespace ebi {

namespace {

constexpr uint32_t kBitVectorMagic = 0x45424956;  // "EBIV".
constexpr uint32_t kStoredMagic = 0x45424953;     // "EBIS".

// Format tag in the stored-bitmap stream. Tags 1 (a run-length form) and
// 2 (EWAH) held retired compressed formats: they stay unassigned, so old
// streams are rejected as unknown instead of misread.
constexpr uint32_t kTagPlain = 0;

// Cap on the elements a read trusts from a length prefix before the
// bytes backing them have been consumed. Bulk reads proceed in chunks
// of this many elements, so a garbage count can only waste this much
// allocation up-front — the stream runs dry long before a hostile
// length turns into a giant allocation.
constexpr uint64_t kMaxTrustedReserve = 1u << 16;

// An istream view over caller-owned bytes: the zero-copy front end for
// LoadStoredBitmap(data, size). istringstream would copy the payload;
// this streambuf reads straight out of the buffer.
class MemoryStreamBuf : public std::streambuf {
 public:
  MemoryStreamBuf(const char* data, size_t size) {
    char* p = const_cast<char*>(data);
    setg(p, p, p + size);
  }
};

void WriteU32(std::ostream& out, uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) {
    buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
  out.write(buf, 4);
}

void WriteU64(std::ostream& out, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
  out.write(buf, 8);
}

Result<uint32_t> ReadU32(std::istream& in) {
  char buf[4];
  if (!in.read(buf, 4)) {
    return Status::OutOfRange("truncated stream reading u32");
  }
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(buf[i]))
         << (8 * i);
  }
  return v;
}

Result<uint64_t> ReadU64(std::istream& in) {
  char buf[8];
  if (!in.read(buf, 8)) {
    return Status::OutOfRange("truncated stream reading u64");
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(buf[i]))
         << (8 * i);
  }
  return v;
}

// Bulk reads of verbatim (little-endian) words: one in.read() per chunk
// instead of one per element. The words land straight in the output
// vector, whose growth preserves the hardening contract: it runs at most
// one chunk of kMaxTrustedReserve elements ahead of the bytes actually
// read.
Status ReadU64Array(std::istream& in, uint64_t count,
                    std::vector<uint64_t>* out) {
  out->clear();
  out->reserve(static_cast<size_t>(
      std::min<uint64_t>(count, kMaxTrustedReserve)));
  uint64_t remaining = count;
  while (remaining > 0) {
    const size_t chunk = static_cast<size_t>(
        std::min<uint64_t>(remaining, kMaxTrustedReserve));
    const size_t base = out->size();
    out->resize(base + chunk);
    if (!in.read(reinterpret_cast<char*>(out->data() + base),
                 static_cast<std::streamsize>(chunk * 8))) {
      return Status::OutOfRange("truncated stream reading u64 array");
    }
    remaining -= chunk;
  }
  return Status::OK();
}

Status ExpectMagic(std::istream& in, uint32_t magic, const char* what) {
  EBI_ASSIGN_OR_RETURN(const uint32_t got, ReadU32(in));
  if (got != magic) {
    return Status::InvalidArgument(std::string("bad magic for ") + what);
  }
  return Status::OK();
}

// Reads the stored magic and the format tag that precede the vector.
Status ExpectStoredEnvelope(std::istream& in) {
  EBI_RETURN_IF_ERROR(ExpectMagic(in, kStoredMagic, "stored bitmap"));
  EBI_ASSIGN_OR_RETURN(const uint32_t tag, ReadU32(in));
  if (tag != kTagPlain) {
    return Status::InvalidArgument("stored bitmap: unknown format tag");
  }
  return Status::OK();
}

// Reads a declared bit count. Sizes within 63 of 2^64 would wrap the
// (size + 63) / 64 word count to 0 and load as a huge vector with no
// words, so they are rejected as corrupt.
Result<uint64_t> ReadBitSize(std::istream& in, const char* what) {
  EBI_ASSIGN_OR_RETURN(const uint64_t size, ReadU64(in));
  if (size > std::numeric_limits<uint64_t>::max() - 63) {
    return Status::InvalidArgument(std::string(what) +
                                   ": declared size overflows the word count");
  }
  return size;
}

}  // namespace

Status SaveBitVector(std::ostream& out, const BitVector& bits) {
  WriteU32(out, kBitVectorMagic);
  WriteU64(out, bits.size());
  for (uint64_t word : bits.words()) {
    WriteU64(out, word);
  }
  if (!out) {
    return Status::Internal("stream write failed");
  }
  return Status::OK();
}

Result<BitVector> LoadBitVector(std::istream& in) {
  EBI_RETURN_IF_ERROR(ExpectMagic(in, kBitVectorMagic, "BitVector"));
  EBI_ASSIGN_OR_RETURN(const uint64_t size, ReadBitSize(in, "BitVector"));
  // Read the words before sizing the vector: a garbage `size` then dies
  // on stream truncation instead of on a huge allocation.
  const uint64_t num_words = (size + 63) / 64;
  std::vector<uint64_t> words;
  EBI_RETURN_IF_ERROR(ReadU64Array(in, num_words, &words));
  return BitVectorFromLittleEndian(size, std::move(words));
}

Result<BitVector> BitVectorFromLittleEndian(uint64_t bits,
                                            std::vector<uint64_t> words) {
  if (words.size() != (bits + 63) / 64) {
    return Status::InvalidArgument(
        "BitVector: " + std::to_string(words.size()) +
        " words do not hold the declared " + std::to_string(bits) + " bits");
  }
  WordsFromLittleEndian(words.data(), words.size());
  // Bits past `bits` in the last word must be zero (BitVector's tail
  // invariant holds on every save); set padding bits mean corruption.
  if (bits % 64 != 0 && (words.back() >> (bits % 64)) != 0) {
    return Status::InvalidArgument(
        "BitVector: set padding bits past the declared size");
  }
  // FromWords adopts the array — no per-word copy into the vector.
  return BitVector::FromWords(static_cast<size_t>(bits), std::move(words));
}

Status SaveStoredBitmap(std::ostream& out, const BitVector& bits) {
  WriteU32(out, kStoredMagic);
  WriteU32(out, kTagPlain);
  return SaveBitVector(out, bits);
}

Result<BitVector> LoadStoredBitmap(std::istream& in) {
  EBI_RETURN_IF_ERROR(ExpectStoredEnvelope(in));
  return LoadBitVector(in);
}

void WordsFromLittleEndian(uint64_t* words, size_t n) {
  if constexpr (std::endian::native != std::endian::little) {
    for (size_t i = 0; i < n; ++i) {
      uint8_t bytes[8];
      std::memcpy(bytes, &words[i], 8);
      uint64_t v = 0;
      for (int b = 0; b < 8; ++b) {
        v |= static_cast<uint64_t>(bytes[b]) << (8 * b);
      }
      words[i] = v;
    }
  }
}

Result<uint64_t> ParsePlainStoredHeader(const uint8_t* header) {
  MemoryStreamBuf buf(reinterpret_cast<const char*>(header),
                      kPlainStoredHeaderBytes);
  std::istream in(&buf);
  EBI_RETURN_IF_ERROR(ExpectStoredEnvelope(in));
  EBI_RETURN_IF_ERROR(ExpectMagic(in, kBitVectorMagic, "BitVector"));
  return ReadBitSize(in, "BitVector");
}

Result<BitVector> LoadStoredBitmap(const uint8_t* data, size_t size) {
  MemoryStreamBuf buf(reinterpret_cast<const char*>(data), size);
  std::istream in(&buf);
  return LoadStoredBitmap(in);
}

}  // namespace ebi
