#include "util/stored_bitmap.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/random.h"

namespace ebi {
namespace {

constexpr BitmapFormat kAllFormats[] = {BitmapFormat::kPlain,
                                        BitmapFormat::kEwah};

BitVector RandomBits(size_t n, double density, uint64_t seed) {
  Rng rng(seed);
  BitVector v(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(density)) {
      v.Set(i);
    }
  }
  return v;
}

TEST(StoredBitmapTest, RoundTripEveryFormat) {
  const BitVector bits = RandomBits(1000, 0.1, 1);
  for (BitmapFormat format : kAllFormats) {
    const StoredBitmap stored = StoredBitmap::Make(bits, format);
    EXPECT_EQ(stored.format(), format);
    EXPECT_EQ(stored.size(), bits.size());
    EXPECT_EQ(stored.Count(), bits.Count());
    EXPECT_EQ(stored.ToBitVector(), bits);
    EXPECT_DOUBLE_EQ(stored.Sparsity(), bits.Sparsity());
  }
}

TEST(StoredBitmapTest, CompressedFormatsShrinkSparseVectors) {
  const BitVector sparse = RandomBits(100000, 0.001, 2);
  const StoredBitmap plain = StoredBitmap::Make(sparse, BitmapFormat::kPlain);
  const StoredBitmap ewah = StoredBitmap::Make(sparse, BitmapFormat::kEwah);
  EXPECT_LT(ewah.SizeBytes(), plain.SizeBytes());
}

TEST(StoredBitmapTest, AndOrMatchPlainOracle) {
  const BitVector a = RandomBits(2000, 0.05, 3);
  const BitVector b = RandomBits(2000, 0.05, 4);
  for (BitmapFormat format : kAllFormats) {
    const StoredBitmap sa = StoredBitmap::Make(a, format);
    const StoredBitmap sb = StoredBitmap::Make(b, format);
    const Result<StoredBitmap> and_result = StoredBitmap::And(sa, sb);
    ASSERT_TRUE(and_result.ok());
    EXPECT_EQ(and_result->format(), format);
    EXPECT_EQ(and_result->ToBitVector(), And(a, b));
    const Result<StoredBitmap> or_result = StoredBitmap::Or(sa, sb);
    ASSERT_TRUE(or_result.ok());
    EXPECT_EQ(or_result->ToBitVector(), Or(a, b));
  }
}

TEST(StoredBitmapTest, OpsRejectFormatMismatch) {
  const BitVector bits = RandomBits(100, 0.5, 5);
  const StoredBitmap plain = StoredBitmap::Make(bits, BitmapFormat::kPlain);
  const StoredBitmap ewah = StoredBitmap::Make(bits, BitmapFormat::kEwah);
  EXPECT_EQ(StoredBitmap::And(plain, ewah).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(StoredBitmap::Or(ewah, plain).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(StoredBitmapTest, OpsRejectSizeMismatch) {
  for (BitmapFormat format : kAllFormats) {
    const StoredBitmap a = StoredBitmap::Make(BitVector(100), format);
    const StoredBitmap b = StoredBitmap::Make(BitVector(200), format);
    EXPECT_EQ(StoredBitmap::And(a, b).status().code(),
              StatusCode::kInvalidArgument)
        << BitmapFormatName(format);
    EXPECT_EQ(StoredBitmap::Or(a, b).status().code(),
              StatusCode::kInvalidArgument)
        << BitmapFormatName(format);
  }
}

TEST(StoredBitmapTest, AppendBitGrowsEveryFormat) {
  for (BitmapFormat format : kAllFormats) {
    StoredBitmap stored = StoredBitmap::Make(BitVector(), format);
    BitVector oracle;
    Rng rng(6);
    for (int i = 0; i < 200; ++i) {
      const bool bit = rng.Bernoulli(0.3);
      stored.AppendBit(bit);
      oracle.PushBack(bit);
    }
    EXPECT_EQ(stored.format(), format);
    EXPECT_EQ(stored.ToBitVector(), oracle) << BitmapFormatName(format);
  }
}

TEST(StoredBitmapTest, ForEachSetBitMatchesEveryFormat) {
  const BitVector bits = RandomBits(1500, 0.02, 7);
  for (BitmapFormat format : kAllFormats) {
    const StoredBitmap stored = StoredBitmap::Make(bits, format);
    std::vector<uint32_t> positions;
    stored.ForEachSetBit([&positions](size_t i) {
      positions.push_back(static_cast<uint32_t>(i));
    });
    EXPECT_EQ(positions, bits.ToPositions()) << BitmapFormatName(format);
  }
}

TEST(StoredBitmapTest, FormatNamesAndSuffixes) {
  EXPECT_STREQ(BitmapFormatName(BitmapFormat::kPlain), "plain");
  EXPECT_STREQ(BitmapFormatName(BitmapFormat::kEwah), "ewah");
  EXPECT_EQ(BitmapFormatSuffix(BitmapFormat::kPlain), "");
  EXPECT_EQ(BitmapFormatSuffix(BitmapFormat::kEwah), "-ewah");
}

}  // namespace
}  // namespace ebi
