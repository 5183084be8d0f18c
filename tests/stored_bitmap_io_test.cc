#include "storage/engine/storage_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "storage/engine/crc32.h"
#include "storage/engine/page_file.h"
#include "util/random.h"

namespace ebi {
namespace engine {
namespace {

// The slice payload format StorageEngine writes and parses ("EBIS",
// tag 0, "EBIV", u64 bit size, little-endian words): golden bytes and
// every malformed payload the reader must reject.

std::string TempPath(const char* tag) {
  return std::string(::testing::TempDir()) + "/ebi_engine_" + tag + ".bin";
}

BitVector RandomBits(size_t n, uint64_t seed, double density = 0.4) {
  Rng rng(seed);
  BitVector v(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(density)) {
      v.Set(i);
    }
  }
  return v;
}

void RemoveFiles(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".map").c_str());
  std::remove((path + ".map.tmp").c_str());
}

// ---------------------------------------------------- Slice payload format

constexpr uint32_t kStoredMagic = 0x45424953;     // "EBIS".
constexpr uint32_t kBitVectorMagic = 0x45424956;  // "EBIV".
constexpr uint64_t kMaxU64 = ~uint64_t{0};

// Hand-assembles little-endian slice payloads, so tests can feed the
// engine byte sequences its writer never produces.
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

/// Writes `payloads` as slices 0..n-1 of a fresh page file at `path`,
/// each on its own pages, commits an extent map naming them the way
/// StorageEngine::Sync does, and reopens an engine over them.
std::unique_ptr<StorageEngine> EngineOver(
    const std::string& path, const std::vector<std::string>& payloads) {
  RemoveFiles(path);
  Bytes body;
  body.U32(static_cast<uint32_t>(payloads.size()));
  {
    auto file = PageFile::Open(path, PageFileOptions());
    EXPECT_TRUE(file.ok());
    const size_t capacity = file->PayloadCapacity();
    for (uint32_t slice = 0; slice < payloads.size(); ++slice) {
      const std::string& payload = payloads[slice];
      const auto pages = static_cast<uint32_t>(
          std::max<size_t>(1, (payload.size() + capacity - 1) / capacity));
      const uint32_t first = file->Allocate(pages);
      for (uint32_t p = 0; p < pages; ++p) {
        const size_t offset = p * capacity;
        const size_t bytes = std::min(capacity, payload.size() - offset);
        EXPECT_TRUE(file->WritePage(first + p, slice,
                                    reinterpret_cast<const uint8_t*>(
                                        payload.data() + offset),
                                    bytes)
                        .ok());
      }
      body.U32(first).U32(pages).U64(payload.size());
    }
    EXPECT_TRUE(file->Sync().ok());
  }
  const std::string map = Bytes()
                              .U32(0x50414D45)  // "EMAP".
                              .U32(Crc32(body.str().data(), body.str().size()))
                              .str() +
                          body.str();
  std::FILE* out = std::fopen((path + ".map").c_str(), "wb");
  EXPECT_NE(out, nullptr);
  EXPECT_EQ(std::fwrite(map.data(), 1, map.size(), out), map.size());
  std::fclose(out);
  StorageEngineOptions options;
  options.pool_pages = 2;
  options.recover = true;
  options.remove_on_close = true;
  auto engine = StorageEngine::Open(path, options);
  EXPECT_TRUE(engine.ok());
  return std::move(engine).value();
}

/// Every read of slice `id` — whole, streamed and the on-disk audit —
/// must fail with `code`.
void ExpectEveryReadFails(StorageEngine* engine, uint32_t id, size_t bits,
                          StatusCode code) {
  const auto whole = engine->GetSlice(id);
  ASSERT_FALSE(whole.ok()) << "slice " << id;
  EXPECT_EQ(whole.status().code(), code) << whole.status().ToString();
  const Status verified = engine->VerifySlice(id);
  EXPECT_EQ(verified.code(), code) << "slice " << id;
  auto reader = engine->ReadSlice(id, bits);
  if (reader.ok()) {
    std::vector<uint64_t> words((bits + 63) / 64);
    const Status drained = reader->ReadWords(words.data(), words.size());
    EXPECT_FALSE(drained.ok()) << "slice " << id;
  }
}

TEST(SliceFormatTest, GoldenPayloadBytes) {
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
  const std::string path = TempPath("fmt_golden");
  RemoveFiles(path);
  {
    StorageEngineOptions options;
    options.pool_pages = 2;
    auto engine = StorageEngine::Open(path, options);
    ASSERT_TRUE(engine.ok());
    const auto id = (*engine)->PutSlice(bits);
    ASSERT_TRUE(id.ok());
    ASSERT_EQ(*id, 0u);
    ASSERT_TRUE((*engine)->Sync().ok());
  }
  {
    PageFileOptions options;
    options.truncate = false;
    auto file = PageFile::Open(path, options);
    ASSERT_TRUE(file.ok());
    std::vector<uint8_t> payload;
    uint32_t slice = 99;
    ASSERT_TRUE(file->ReadPage(0, &payload, &slice).ok());
    EXPECT_EQ(slice, 0u);
    EXPECT_EQ(std::string(payload.begin(), payload.end()), golden);
  }
  // And the golden bytes, written by hand, read back as the vector.
  auto engine = EngineOver(path, {golden});
  const auto loaded = engine->GetSlice(0);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, bits);
  EXPECT_TRUE(engine->VerifySlice(0).ok());
}

TEST(SliceFormatTest, EveryByteCutIsRejected) {
  // A payload cut at *every* byte boundary, each stored as the whole of
  // its slice's extent, must come back as a descriptive Status from every
  // read — never a crash, an over-allocation on a garbage size, or a
  // silently short slice. The uncut payload is the last slice.
  Rng rng(20260809);
  BitVector bits(5000);
  for (size_t i = 0; i < bits.size(); ++i) {
    if (rng.Bernoulli(0.3)) {
      bits.Set(i);
    }
  }
  Bytes full = Bytes().U32(kStoredMagic).U32(0).U32(kBitVectorMagic).U64(
      bits.size());
  for (const uint64_t word : bits.words()) {
    full.U64(word);
  }
  std::vector<std::string> payloads;
  for (size_t cut = 0; cut <= full.str().size(); ++cut) {
    payloads.push_back(full.str().substr(0, cut));
  }
  const auto whole = static_cast<uint32_t>(payloads.size() - 1);
  // Then the whole payload with one byte overwritten at random.
  for (int trial = 0; trial < 150; ++trial) {
    std::string mutated = full.str();
    mutated[rng.UniformInt(mutated.size())] = static_cast<char>(rng.Next());
    payloads.push_back(mutated);
  }
  auto engine = EngineOver(TempPath("fmt_cuts"), payloads);
  for (uint32_t cut = 0; cut < whole; ++cut) {
    const auto loaded = engine->GetSlice(cut);
    ASSERT_FALSE(loaded.ok()) << "decoded a " << cut << "-byte prefix";
    EXPECT_FALSE(loaded.status().message().empty());
    EXPECT_FALSE(engine->VerifySlice(cut).ok()) << cut;
    auto reader = engine->ReadSlice(cut, bits.size());
    if (reader.ok()) {
      std::vector<uint64_t> words(bits.words().size());
      EXPECT_FALSE(reader->ReadWords(words.data(), words.size()).ok()) << cut;
    }
  }
  const auto loaded = engine->GetSlice(whole);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, bits);
  EXPECT_TRUE(engine->VerifySlice(whole).ok());
  // A garbled byte must never crash a read: it fails loudly, or (say, a
  // flipped word bit) loads a slice of the size its header declares, and
  // the on-disk audit agrees with the read.
  for (auto i = static_cast<uint32_t>(whole + 1); i < payloads.size(); ++i) {
    const auto garbled = engine->GetSlice(i);
    EXPECT_EQ(engine->VerifySlice(i).ok(), garbled.ok()) << i;
    if (garbled.ok()) {
      EXPECT_EQ(garbled->size(), bits.size()) << i;
    }
  }
}

TEST(SliceFormatTest, EveryTagButPlainIsRejected) {
  // Tag 0 is the only format. Tags 1 (run-length) and 2 (EWAH) carried
  // retired compressed payloads; each is refused as corrupt rather than
  // misread, even when its payload is well formed for the retired
  // format. Every payload spells the same 100 bits: 0, 63, 64 and 99.
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
  std::vector<std::string> payloads = {rle.str(), ewah.str()};
  // Every other tag, on a payload that is plain in all else: tags 1 to
  // 255, then each single set bit (any non-zero tag has one) and all
  // ones.
  std::vector<uint32_t> tags;
  for (uint32_t tag = 1; tag < 256; ++tag) {
    tags.push_back(tag);
  }
  for (int bit = 8; bit < 32; ++bit) {
    tags.push_back(uint32_t{1} << bit);
  }
  tags.push_back(~uint32_t{0});
  for (const uint32_t tag : tags) {
    payloads.push_back(Bytes()
                           .U32(kStoredMagic)
                           .U32(tag)
                           .U32(kBitVectorMagic)
                           .U64(100)
                           .U64(0x8000000000000001)
                           .U64(0x0000000800000001)
                           .str());
  }
  auto engine = EngineOver(TempPath("fmt_tags"), payloads);
  for (uint32_t i = 0; i < payloads.size(); ++i) {
    ExpectEveryReadFails(engine.get(), i, 100, StatusCode::kInvalidArgument);
  }
}

TEST(SliceFormatTest, BadMagicIsRejected) {
  const std::vector<std::string> payloads = {
      Bytes().U32(kBitVectorMagic).U32(0).U32(kBitVectorMagic).U64(64).U64(1)
          .str(),
      Bytes().U32(kStoredMagic).U32(0).U32(kStoredMagic).U64(64).U64(1).str(),
      std::string("not a stored bitmap, honest......")};
  auto engine = EngineOver(TempPath("fmt_magic"), payloads);
  for (uint32_t i = 0; i < payloads.size(); ++i) {
    ExpectEveryReadFails(engine.get(), i, 64, StatusCode::kInvalidArgument);
  }
}

TEST(SliceFormatTest, SizeOverflowingTheWordCountIsRejected) {
  // A declared size within 63 of 2^64 wraps (size + 63) / 64 to zero
  // words: such a payload once loaded as a vector claiming ~2^64 bits
  // backed by nothing. Each payload here carries zero words.
  std::vector<std::string> payloads;
  for (uint64_t below = 0; below < 63; ++below) {
    payloads.push_back(Bytes()
                           .U32(kStoredMagic)
                           .U32(0)
                           .U32(kBitVectorMagic)
                           .U64(kMaxU64 - below)
                           .str());
  }
  auto engine = EngineOver(TempPath("fmt_overflow"), payloads);
  for (uint32_t i = 0; i < payloads.size(); ++i) {
    ExpectEveryReadFails(engine.get(), i, 0, StatusCode::kInvalidArgument);
  }
}

TEST(SliceFormatTest, WordCountMustMatchTheDeclaredSize) {
  // Whole words, one fewer or one more than the declared size needs:
  // rejected by every read, including the on-disk audit.
  const BitVector bits = RandomBits(200, 12);
  auto payload = [&](uint64_t declared, size_t words) {
    Bytes bytes =
        Bytes().U32(kStoredMagic).U32(0).U32(kBitVectorMagic).U64(declared);
    for (size_t w = 0; w < words; ++w) {
      bytes.U64(w < bits.words().size() ? bits.words()[w] : 0);
    }
    return bytes.str();
  };
  const std::vector<std::string> payloads = {payload(200, 3), payload(200, 5),
                                             payload(192, 4)};
  auto engine = EngineOver(TempPath("fmt_words"), payloads);
  for (uint32_t i = 0; i < payloads.size(); ++i) {
    const auto loaded = engine->GetSlice(i);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(engine->VerifySlice(i).code(), StatusCode::kInvalidArgument);
  }
}

TEST(SliceFormatTest, SetPaddingBitsAreRejected) {
  const std::vector<std::string> payloads = {Bytes()
                                                 .U32(kStoredMagic)
                                                 .U32(0)
                                                 .U32(kBitVectorMagic)
                                                 .U64(100)
                                                 .U64(1)
                                                 .U64(uint64_t{1} << 36)
                                                 .str()};
  auto engine = EngineOver(TempPath("fmt_padding"), payloads);
  ExpectEveryReadFails(engine.get(), 0, 100, StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace engine
}  // namespace ebi
