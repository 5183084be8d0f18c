#include "util/stored_bitmap_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "util/random.h"

namespace ebi {
namespace {

constexpr uint32_t kBitVectorMagic = 0x45424956;  // "EBIV".
constexpr uint32_t kStoredMagic = 0x45424953;     // "EBIS".
constexpr uint64_t kMaxU64 = ~uint64_t{0};

// Hand-assembles little-endian codec streams, so tests can feed the
// loader byte sequences the savers never produce.
class Bytes {
 public:
  Bytes& U32(uint32_t v) { return Put(v, 4); }
  Bytes& U64(uint64_t v) { return Put(v, 8); }
  const std::string& str() const { return bytes_; }

 private:
  Bytes& Put(uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
    return *this;
  }
  std::string bytes_;
};

TEST(StoredBitmapIoTest, BitVectorRoundTrip) {
  BitVector bits(130);
  bits.Set(0);
  bits.Set(64);
  bits.Set(129);
  std::stringstream stream;
  ASSERT_TRUE(SaveBitVector(stream, bits).ok());
  const auto loaded = LoadBitVector(stream);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, bits);
}

TEST(StoredBitmapIoTest, EmptyBitVectorRoundTrip) {
  std::stringstream stream;
  ASSERT_TRUE(SaveBitVector(stream, BitVector()).ok());
  const auto loaded = LoadBitVector(stream);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 0u);
}

TEST(StoredBitmapIoTest, BitVectorBadMagicRejected) {
  std::stringstream stream("garbage bytes here........");
  EXPECT_EQ(LoadBitVector(stream).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(StoredBitmapIoTest, TruncatedStreamRejected) {
  BitVector bits(1000, true);
  std::stringstream stream;
  ASSERT_TRUE(SaveBitVector(stream, bits).ok());
  const std::string full = stream.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_EQ(LoadBitVector(cut).status().code(), StatusCode::kOutOfRange);
}

TEST(StoredBitmapIoTest, MultipleBitVectorsInOneStream) {
  std::stringstream stream;
  const BitVector a = BitVector::FromString("101");
  const BitVector b = BitVector::FromString("0110");
  ASSERT_TRUE(SaveBitVector(stream, a).ok());
  ASSERT_TRUE(SaveBitVector(stream, b).ok());
  const auto la = LoadBitVector(stream);
  const auto lb = LoadBitVector(stream);
  ASSERT_TRUE(la.ok());
  ASSERT_TRUE(lb.ok());
  EXPECT_EQ(*la, a);
  EXPECT_EQ(*lb, b);
}

TEST(StoredBitmapIoTest, BitVectorSizeOverflowRejected) {
  // size = 2^64 - 1: (size + 63) / 64 wraps to zero words, which once
  // loaded as a vector claiming 2^64 - 1 bits backed by nothing.
  const Bytes bytes = Bytes().U32(kBitVectorMagic).U64(kMaxU64);
  ASSERT_EQ(bytes.str().size(), 12u);
  std::stringstream stream(bytes.str());
  EXPECT_EQ(LoadBitVector(stream).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(StoredBitmapIoTest, StoredBitmapRoundTrip) {
  BitVector bits(300);
  for (size_t i = 0; i < 300; i += 7) {
    bits.Set(i);
  }
  bits.Set(299);
  std::stringstream stream;
  ASSERT_TRUE(SaveStoredBitmap(stream, bits).ok());
  const auto loaded = LoadStoredBitmap(stream);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, bits);
}

TEST(StoredBitmapIoTest, EmptyStoredBitmapRoundTrip) {
  std::stringstream stream;
  ASSERT_TRUE(SaveStoredBitmap(stream, BitVector()).ok());
  const auto loaded = LoadStoredBitmap(stream);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 0u);
}

TEST(StoredBitmapIoTest, StoredBitmapGoldenBytes) {
  // The slice payload format, pinned byte for byte: "EBIS", tag 0,
  // "EBIV", the u64 bit size, then the little-endian words. Page files
  // written by earlier builds hold exactly these bytes.
  BitVector bits(100);
  bits.Set(0);
  bits.Set(63);
  bits.Set(64);
  bits.Set(99);
  const std::string golden(
      "\x53\x49\x42\x45"                  // "EBIS"
      "\x00\x00\x00\x00"                  // tag 0: plain words
      "\x56\x49\x42\x45"                  // "EBIV"
      "\x64\x00\x00\x00\x00\x00\x00\x00"  // 100 bits
      "\x01\x00\x00\x00\x00\x00\x00\x80"  // bits 0 and 63
      "\x01\x00\x00\x00\x08\x00\x00\x00",  // bits 64 and 99
      36);
  std::stringstream stream;
  ASSERT_TRUE(SaveStoredBitmap(stream, bits).ok());
  EXPECT_EQ(stream.str(), golden);
  const auto loaded = LoadStoredBitmap(
      reinterpret_cast<const uint8_t*>(golden.data()), golden.size());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, bits);
}

TEST(StoredBitmapIoTest, StoredBitmapBadMagicRejected) {
  std::stringstream stream("not a stored bitmap, honest......");
  EXPECT_EQ(LoadStoredBitmap(stream).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(StoredBitmapIoTest, StoredBitmapUnknownTagRejected) {
  // A valid magic followed by a format tag the reader does not know.
  std::stringstream good;
  ASSERT_TRUE(SaveStoredBitmap(good, BitVector(8)).ok());
  std::string bytes = good.str();
  bytes[4] = 42;  // Overwrite the little-endian format tag.
  std::stringstream bad(bytes);
  EXPECT_EQ(LoadStoredBitmap(bad).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(StoredBitmapIoTest, RetiredRleTagRejected) {
  // Tag 1 once carried a run-length payload: declared size, run count,
  // then u32 runs. The reader must refuse it, not misread it as another
  // format. Runs 2,3,2 would spell "0011100".
  const Bytes bytes =
      Bytes().U32(kStoredMagic).U32(1).U64(7).U64(3).U32(2).U32(3).U32(2);
  std::stringstream stream(bytes.str());
  EXPECT_EQ(LoadStoredBitmap(stream).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(StoredBitmapIoTest, EveryTagButPlainRejected) {
  // Tag 0 is the only format. Tags 1 (run-length) and 2 (EWAH) carried
  // retired compressed payloads, and tag 3 was never assigned; each is
  // refused as corrupt rather than misread, even when its payload is
  // well formed for the retired format. Every stream spells the same
  // 100 bits: 0, 63, 64 and 99.
  //
  // Run lengths alternate zeros and ones, starting with zeros.
  const Bytes rle = Bytes()
                        .U32(kStoredMagic)
                        .U32(1)
                        .U64(100)
                        .U64(6)
                        .U32(0)
                        .U32(1)
                        .U32(62)
                        .U32(2)
                        .U32(34)
                        .U32(1);
  // One EWAH marker (no clean run, two literal words) and its literals.
  const Bytes ewah = Bytes()
                         .U32(kStoredMagic)
                         .U32(2)
                         .U64(100)
                         .U64(3)
                         .U64(uint64_t{2} << 33)
                         .U64(0x8000000000000001)
                         .U64(0x0000000800000001);
  const Bytes unassigned = Bytes()
                               .U32(kStoredMagic)
                               .U32(3)
                               .U32(kBitVectorMagic)
                               .U64(100)
                               .U64(0x8000000000000001)
                               .U64(0x0000000800000001);
  for (const Bytes* bytes : {&rle, &ewah, &unassigned}) {
    std::stringstream stream(bytes->str());
    EXPECT_EQ(LoadStoredBitmap(stream).status().code(),
              StatusCode::kInvalidArgument);
    const auto* data = reinterpret_cast<const uint8_t*>(bytes->str().data());
    EXPECT_EQ(LoadStoredBitmap(data, bytes->str().size()).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(ParsePlainStoredHeader(data).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(StoredBitmapIoTest, StoredBitmapTruncationRejected) {
  BitVector bits(2048);
  for (size_t i = 0; i < 2048; i += 3) {
    bits.Set(i);
  }
  std::stringstream stream;
  ASSERT_TRUE(SaveStoredBitmap(stream, bits).ok());
  const std::string full = stream.str();
  std::stringstream cut(full.substr(0, full.size() - 5));
  EXPECT_EQ(LoadStoredBitmap(cut).status().code(), StatusCode::kOutOfRange);
}

TEST(StoredBitmapIoTest, StoredBitmapTruncationFuzz) {
  // A stored bitmap cut at *every* byte boundary must come back as a
  // descriptive Status — never a crash, an over-allocation on a garbage
  // length, or a silently short bitmap.
  Rng rng(20260809);
  BitVector bits(5000);
  for (size_t i = 0; i < 5000; ++i) {
    if (rng.Bernoulli(0.3)) {
      bits.Set(i);
    }
  }
  std::stringstream stream;
  ASSERT_TRUE(SaveStoredBitmap(stream, bits).ok());
  const std::string full = stream.str();
  for (size_t cut = 0; cut < full.size(); ++cut) {
    std::stringstream truncated(full.substr(0, cut));
    const auto loaded = LoadStoredBitmap(truncated);
    EXPECT_FALSE(loaded.ok())
        << "decoded a " << cut << "-byte prefix of " << full.size();
    EXPECT_FALSE(loaded.status().message().empty());
  }
  // Byte-flip sweep: corrupted streams must never crash; they either
  // fail loudly or (e.g. a flipped payload bit) decode to some bitmap.
  for (int trial = 0; trial < 150; ++trial) {
    std::string mutated = full;
    mutated[rng.UniformInt(mutated.size())] = static_cast<char>(rng.Next());
    std::stringstream garbled(mutated);
    const auto loaded = LoadStoredBitmap(garbled);
    (void)loaded;
  }
}

TEST(StoredBitmapIoTest, StoredBitmapsShareStreamWithOtherSections) {
  std::stringstream stream;
  const BitVector plain = BitVector::FromString("1010");
  const BitVector stored = BitVector::FromString("000111");
  ASSERT_TRUE(SaveBitVector(stream, plain).ok());
  ASSERT_TRUE(SaveStoredBitmap(stream, stored).ok());
  const auto first = LoadBitVector(stream);
  const auto second = LoadStoredBitmap(stream);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, plain);
  EXPECT_EQ(*second, stored);
}

}  // namespace
}  // namespace ebi
