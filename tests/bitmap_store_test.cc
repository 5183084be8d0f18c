#include "storage/engine/storage_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "storage/io_accountant.h"
#include "util/random.h"

namespace ebi {
namespace engine {
namespace {

// StorageEngine as the cold index's slice store: what a whole or
// streamed slice read costs (pool hits free, a miss charges the stored
// bytes and one vector read), hit/miss counts, awkward sizes, eviction
// under a small pool and argument checks.

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

TEST(StorageEngineTest, PoolHitsAreFree) {
  IoAccountant io;
  StorageEngineOptions options;
  options.pool_pages = 4;
  options.io = &io;
  options.remove_on_close = true;
  auto engine = StorageEngine::Open(TempPath("se_hits"), options);
  ASSERT_TRUE(engine.ok());
  const BitVector bits = RandomBits(512, 2);
  const auto id = (*engine)->PutSlice(bits);
  ASSERT_TRUE(id.ok());
  io.Reset();
  (*engine)->ResetStats();
  for (int read = 0; read < 2; ++read) {
    size_t faulted = 1;
    const auto loaded = (*engine)->GetSlice(*id, &faulted);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(*loaded, bits);
    EXPECT_EQ(faulted, 0u);
  }
  EXPECT_EQ(io.stats().vectors_read, 0u);  // Both were pool hits.
  EXPECT_EQ(io.stats().pages_read, 0u);
  EXPECT_EQ((*engine)->stats().hits, 2u);
  EXPECT_EQ((*engine)->stats().misses, 0u);
  EXPECT_DOUBLE_EQ((*engine)->stats().HitRate(), 1.0);
}

TEST(StorageEngineTest, MissChargesStoredBytesAndOneVectorRead) {
  BitVector bits(1 << 17);
  for (size_t i = 1000; i < 1200; ++i) {
    bits.Set(i);
  }
  IoAccountant io;
  StorageEngineOptions options;
  options.pool_pages = 1;
  options.io = &io;
  options.remove_on_close = true;
  auto engine = StorageEngine::Open(TempPath("se_miss"), options);
  ASSERT_TRUE(engine.ok());
  const auto id = (*engine)->PutSlice(bits);
  ASSERT_TRUE(id.ok());
  // Push the slice out of the pool so the next read faults and charges.
  ASSERT_TRUE((*engine)->PutSlice(BitVector(64)).ok());
  io.Reset();
  (*engine)->ResetStats();
  const auto loaded = (*engine)->GetSlice(*id);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, bits);
  EXPECT_EQ(io.stats().vectors_read, 1u);
  const auto stored = (*engine)->SliceBytes(*id);
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(io.stats().bytes_read, *stored);
  // Plain payloads hold every word: the 16 KB slice plus its header.
  EXPECT_EQ(*stored, bits.SizeBytes() + kSliceHeaderBytes);
  EXPECT_EQ((*engine)->stats().misses, 1u);
  EXPECT_EQ((*engine)->stats().hits, 0u);
  EXPECT_GT((*engine)->stats().evictions, 0u);
  EXPECT_EQ((*engine)->PoolResident(), 1u);
}

TEST(StorageEngineTest, WordBoundarySizesAndEmptySliceRoundTrip) {
  StorageEngineOptions options;
  options.pool_pages = 2;
  options.remove_on_close = true;
  auto engine = StorageEngine::Open(TempPath("se_sizes"), options);
  ASSERT_TRUE(engine.ok());
  // The empty slice, then sizes on and around word boundaries, sparse and
  // dense alike.
  std::vector<BitVector> originals = {BitVector()};
  for (const size_t n : {1, 63, 64, 65, 127, 128, 129, 60 + 77 * 7}) {
    originals.push_back(RandomBits(n, n, 0.1));
    originals.push_back(RandomBits(n, n + 1, 0.9));
  }
  for (const BitVector& bits : originals) {
    ASSERT_TRUE((*engine)->PutSlice(bits).ok());
  }
  // A two-page pool: most reads fault from the file, so they exercise
  // the full write/parse round trip.
  for (uint32_t i = 0; i < originals.size(); ++i) {
    const auto bits = (*engine)->GetSlice(i);
    ASSERT_TRUE(bits.ok()) << bits.status().ToString();
    EXPECT_EQ(*bits, originals[i]) << i;
    ASSERT_TRUE((*engine)->VerifySlice(i).ok());
    // A streamed read of the same slice, one word at a time.
    auto reader = (*engine)->ReadSlice(i, originals[i].size());
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    for (const uint64_t want : originals[i].words()) {
      uint64_t word = 0;
      ASSERT_TRUE(reader->ReadWords(&word, 1).ok());
      EXPECT_EQ(word, want);
    }
  }
  const auto empty = (*engine)->GetSlice(0);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->size(), 0u);
}

TEST(StorageEngineTest, ManySlicesSurviveThrashing) {
  StorageEngineOptions options;
  options.pool_pages = 3;
  options.remove_on_close = true;
  auto engine = StorageEngine::Open(TempPath("se_thrash"), options);
  ASSERT_TRUE(engine.ok());
  std::vector<BitVector> originals;
  for (uint64_t i = 0; i < 20; ++i) {
    // 6 to 120 KB: one to many pages each.
    originals.push_back(RandomBits(64 * 800 * (i + 1), i + 40));
    ASSERT_TRUE((*engine)->PutSlice(originals.back()).ok());
  }
  (*engine)->ResetStats();
  Rng rng(50);
  for (int access = 0; access < 100; ++access) {
    const auto pick = static_cast<uint32_t>(rng.UniformInt(originals.size()));
    const auto bits = (*engine)->GetSlice(pick);
    ASSERT_TRUE(bits.ok());
    EXPECT_EQ(*bits, originals[pick]) << pick;
  }
  EXPECT_EQ((*engine)->stats().hits + (*engine)->stats().misses, 100u);
  EXPECT_GT((*engine)->stats().misses, 0u);
  EXPECT_GT((*engine)->stats().evictions, 0u);
}

TEST(StorageEngineTest, InvalidArguments) {
  StorageEngineOptions options;
  options.pool_pages = 0;
  EXPECT_FALSE(StorageEngine::Open(TempPath("se_zero"), options).ok());
  options.pool_pages = 2;
  options.remove_on_close = true;
  auto engine = StorageEngine::Open(TempPath("se_bounds"), options);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->GetSlice(99).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ((*engine)->ReadSlice(99, 8).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ((*engine)->UpdateSlice(99, BitVector(8)).code(),
            StatusCode::kOutOfRange);
}

TEST(StorageEngineTest, StreamedReadChecksSizeAndCountsOnce) {
  IoAccountant io;
  StorageEngineOptions options;
  options.pool_pages = 1;
  options.io = &io;
  options.remove_on_close = true;
  auto engine = StorageEngine::Open(TempPath("se_stream"), options);
  ASSERT_TRUE(engine.ok());
  const BitVector bits = RandomBits(3 * 4072 * 8 + 100, 88);
  const auto id = (*engine)->PutSlice(bits);
  ASSERT_TRUE(id.ok());
  // A reader for the wrong size fails before any word is read.
  EXPECT_EQ((*engine)->ReadSlice(*id, bits.size() - 1).status().code(),
            StatusCode::kInternal);
  // Push the slice's pages out of the one-page pool.
  ASSERT_TRUE((*engine)->PutSlice(BitVector(64)).ok());
  io.Reset();
  (*engine)->ResetStats();
  auto reader = (*engine)->ReadSlice(*id, bits.size());
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->bits(), bits.size());
  // Odd chunks, so reads straddle pages both staged and direct.
  std::vector<uint64_t> words(bits.words().size());
  size_t done = 0;
  for (size_t chunk = 1; done < words.size(); chunk = chunk * 3 + 1) {
    const size_t n = std::min(chunk, words.size() - done);
    EXPECT_EQ((*engine)->stats().misses, 0u);  // Counted at the end.
    ASSERT_TRUE(reader->ReadWords(words.data() + done, n).ok());
    done += n;
  }
  EXPECT_EQ(words, bits.words());
  EXPECT_EQ((*engine)->stats().misses, 1u);
  EXPECT_EQ(io.stats().vectors_read, 1u);
  const auto pages = (*engine)->SlicePages(*id);
  ASSERT_TRUE(pages.ok());
  EXPECT_EQ(reader->pages_faulted(), *pages);
  uint64_t extra = 0;
  EXPECT_EQ(reader->ReadWords(&extra, 1).code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace engine
}  // namespace ebi
