#include "storage/bitmap_store.h"

#include <gtest/gtest.h>

#include "util/random.h"

namespace ebi {
namespace {

std::string TempPath(const char* tag) {
  return std::string(::testing::TempDir()) + "/ebi_store_" + tag + ".bin";
}

BitVector RandomBits(size_t n, uint64_t seed) {
  Rng rng(seed);
  BitVector v(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.4)) {
      v.Set(i);
    }
  }
  return v;
}

TEST(BitmapStoreTest, PutGetRoundTrip) {
  IoAccountant io;
  auto store = BitmapStore::Open(TempPath("roundtrip"), 4, &io);
  ASSERT_TRUE(store.ok());
  const BitVector bits = RandomBits(1000, 1);
  const auto id = store->Put(bits);
  ASSERT_TRUE(id.ok());
  const auto loaded = store->Get(*id);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, bits);
}

TEST(BitmapStoreTest, PoolHitsAreFree) {
  IoAccountant io;
  auto store = BitmapStore::Open(TempPath("hits"), 4, &io);
  ASSERT_TRUE(store.ok());
  const auto id = store->Put(RandomBits(512, 2));
  ASSERT_TRUE(id.ok());
  io.Reset();
  ASSERT_TRUE(store->Get(*id).ok());
  ASSERT_TRUE(store->Get(*id).ok());
  EXPECT_EQ(io.stats().vectors_read, 0u);  // Both were pool hits.
  EXPECT_EQ(store->stats().hits, 2u);
}

TEST(BitmapStoreTest, EvictionChargesReRead) {
  IoAccountant io;
  auto store = BitmapStore::Open(TempPath("evict"), 2, &io);
  ASSERT_TRUE(store.ok());
  std::vector<BitmapStore::VectorId> ids;
  std::vector<BitVector> originals;
  for (uint64_t i = 0; i < 5; ++i) {
    originals.push_back(RandomBits(800, i + 10));
    const auto id = store->Put(originals.back());
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  EXPECT_EQ(store->Resident(), 2u);
  EXPECT_GT(store->stats().evictions, 0u);

  io.Reset();
  // Vector 0 was evicted long ago: the read must hit the file and charge.
  const auto reloaded = store->Get(ids[0]);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(*reloaded, originals[0]);
  EXPECT_EQ(io.stats().vectors_read, 1u);
  EXPECT_GT(store->stats().misses, 0u);
}

TEST(BitmapStoreTest, LruOrderKeepsHotVectors) {
  IoAccountant io;
  auto store = BitmapStore::Open(TempPath("lru"), 2, &io);
  ASSERT_TRUE(store.ok());
  const auto a = store->Put(RandomBits(100, 21));
  const auto b = store->Put(RandomBits(100, 22));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Touch a so b is the LRU victim when c arrives.
  ASSERT_TRUE(store->Get(*a).ok());
  const auto c = store->Put(RandomBits(100, 23));
  ASSERT_TRUE(c.ok());
  io.Reset();
  ASSERT_TRUE(store->Get(*a).ok());  // Still resident.
  EXPECT_EQ(io.stats().vectors_read, 0u);
  ASSERT_TRUE(store->Get(*b).ok());  // Evicted: charged.
  EXPECT_EQ(io.stats().vectors_read, 1u);
}

TEST(BitmapStoreTest, UpdateInPlaceAndRelocation) {
  IoAccountant io;
  auto store = BitmapStore::Open(TempPath("update"), 1, &io);
  ASSERT_TRUE(store.ok());
  const auto id = store->Put(RandomBits(256, 31));
  ASSERT_TRUE(id.ok());
  // Same size: in place.
  const BitVector smaller = RandomBits(256, 32);
  ASSERT_TRUE(store->Update(*id, smaller).ok());
  EXPECT_EQ(*store->Get(*id), smaller);
  // Larger: relocated to a new slot.
  const BitVector bigger = RandomBits(4096, 33);
  ASSERT_TRUE(store->Update(*id, bigger).ok());
  EXPECT_EQ(*store->Get(*id), bigger);
}

TEST(BitmapStoreTest, ManyVectorsSurviveThrashing) {
  IoAccountant io;
  auto store = BitmapStore::Open(TempPath("thrash"), 3, &io);
  ASSERT_TRUE(store.ok());
  std::vector<BitVector> originals;
  std::vector<BitmapStore::VectorId> ids;
  for (uint64_t i = 0; i < 20; ++i) {
    originals.push_back(RandomBits(64 * (i + 1), i + 40));
    const auto id = store->Put(originals.back());
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  Rng rng(50);
  for (int access = 0; access < 100; ++access) {
    const size_t pick = static_cast<size_t>(rng.UniformInt(ids.size()));
    const auto bits = store->Get(ids[pick]);
    ASSERT_TRUE(bits.ok());
    EXPECT_EQ(*bits, originals[pick]) << pick;
  }
  EXPECT_GT(store->stats().HitRate(), 0.0);
  EXPECT_LT(store->stats().HitRate(), 1.0);
}

TEST(BitmapStoreTest, InvalidArguments) {
  IoAccountant io;
  EXPECT_FALSE(BitmapStore::Open(TempPath("zero"), 0, &io).ok());
  auto store = BitmapStore::Open(TempPath("bounds"), 2, &io);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->Get(99).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(store->Update(99, BitVector(8)).code(),
            StatusCode::kOutOfRange);
}

TEST(BitmapStoreTest, WordBoundarySizesRoundTripFromFile) {
  IoAccountant io;
  auto store = BitmapStore::Open(TempPath("sizes"), 2, &io);
  ASSERT_TRUE(store.ok());
  std::vector<BitVector> originals;
  std::vector<BitmapStore::VectorId> ids;
  // Sizes crossing word boundaries, sparse and dense alike.
  for (uint64_t i = 0; i < 8; ++i) {
    originals.push_back(RandomBits(60 + 77 * i, i + 60));
    const auto id = store->Put(originals.back());
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  // Capacity 2 of 8: most of these reads fault from the file, so they
  // exercise the full serialize/deserialize round trip.
  for (size_t i = 0; i < ids.size(); ++i) {
    const auto bits = store->Get(ids[i]);
    ASSERT_TRUE(bits.ok());
    EXPECT_EQ(*bits, originals[i]) << i;
  }
}

TEST(BitmapStoreTest, MissChargesStoredBytes) {
  BitVector bits(1 << 17);
  for (size_t i = 1000; i < 1200; ++i) {
    bits.Set(i);
  }
  IoAccountant io;
  auto store = BitmapStore::Open(TempPath("charge"), 1, &io);
  ASSERT_TRUE(store.ok());
  const auto id = store->Put(bits);
  ASSERT_TRUE(id.ok());
  // Push the vector out of the pool so the next Get faults and charges.
  ASSERT_TRUE(store->Put(BitVector(64)).ok());
  io.Reset();
  const auto loaded = store->Get(*id);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, bits);
  EXPECT_EQ(io.stats().vectors_read, 1u);
  const auto stored = store->StoredBytes(*id);
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(io.stats().bytes_read, *stored);
  // Plain slots hold every word: the 16 KB vector plus codec header.
  EXPECT_GE(*stored, bits.SizeBytes());
}

TEST(BitmapStoreTest, EmptyVectorStored) {
  IoAccountant io;
  auto store = BitmapStore::Open(TempPath("empty"), 2, &io);
  ASSERT_TRUE(store.ok());
  const auto id = store->Put(BitVector());
  ASSERT_TRUE(id.ok());
  const auto bits = store->Get(*id);
  ASSERT_TRUE(bits.ok());
  EXPECT_EQ(bits->size(), 0u);
}

}  // namespace
}  // namespace ebi
