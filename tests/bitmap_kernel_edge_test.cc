// Edge-case and randomized-equivalence coverage for the bitmap kernel
// layer: BitVector (the oracle) and RleBitmap (the compressed backend).
// Every compressed-form operation is checked bit-for-bit against the
// plain BitVector result over seeded random trials.

#include <gtest/gtest.h>

#include <vector>

#include "util/bitvector.h"
#include "util/random.h"
#include "util/rle_bitmap.h"

namespace ebi {
namespace {

BitVector RandomBits(size_t n, double density, Rng* rng) {
  BitVector v(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng->Bernoulli(density)) {
      v.Set(i);
    }
  }
  return v;
}

// --- Empty / all-zero / all-one edge cases -------------------------------

TEST(BitmapKernelEdgeTest, EmptyBitmapsThroughEveryKernel) {
  const BitVector empty;
  EXPECT_EQ(And(empty, empty), empty);
  EXPECT_EQ(Or(empty, empty), empty);
  EXPECT_EQ(Not(empty), empty);
  EXPECT_EQ(RleBitmap::And(RleBitmap(), RleBitmap()).size(), 0u);
}

TEST(BitmapKernelEdgeTest, RleNotOfEmptyIsEmpty) {
  const RleBitmap empty;
  EXPECT_EQ(empty.Not().size(), 0u);
  EXPECT_EQ(empty.Not().Count(), 0u);
  EXPECT_EQ(empty.Not().Decompress(), BitVector());
  // Not of a compressed empty vector likewise.
  EXPECT_EQ(RleBitmap::Compress(BitVector()).Not().size(), 0u);
}

TEST(BitmapKernelEdgeTest, AllZeroAllOneCombinations) {
  const size_t n = 1000;
  const BitVector zeros(n);
  const BitVector ones(n, true);
  const RleBitmap rle_zeros = RleBitmap::Compress(zeros);
  const RleBitmap rle_ones = RleBitmap::Compress(ones);

  EXPECT_EQ(RleBitmap::And(rle_zeros, rle_ones).Decompress(), zeros);
  EXPECT_EQ(RleBitmap::Or(rle_zeros, rle_ones).Decompress(), ones);
  EXPECT_EQ(rle_ones.Not().Decompress(), zeros);
}

// --- Size-contract enforcement -------------------------------------------

TEST(BitmapKernelEdgeTest, CheckedVariantsRejectMismatchedSizes) {
  const BitVector a_bits(100);
  const BitVector b_bits(101);
  const RleBitmap ra = RleBitmap::Compress(a_bits);
  const RleBitmap rb = RleBitmap::Compress(b_bits);
  EXPECT_EQ(RleBitmap::AndChecked(ra, rb).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RleBitmap::OrChecked(ra, rb).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(RleBitmap::AndChecked(ra, ra).ok());
}

// --- Tail-masking invariants ---------------------------------------------

TEST(BitmapKernelEdgeTest, ResizeShrinkMasksTailBeforeFlipAndCount) {
  BitVector v(128, true);
  v.Resize(70);
  EXPECT_EQ(v.Count(), 70u);
  // FlipAll after the shrink: the 58 dropped tail positions must stay
  // zero, so the flipped vector has no set bits at all.
  v.FlipAll();
  EXPECT_EQ(v.Count(), 0u);
  EXPECT_TRUE(v.IsZero());
  v.FlipAll();
  EXPECT_EQ(v.Count(), 70u);
  EXPECT_EQ(v, BitVector(70, true));
}

TEST(BitmapKernelEdgeTest, ResizeShrinkWithinLastWord) {
  BitVector v(64, true);
  v.Resize(10);
  EXPECT_EQ(v.Count(), 10u);
  v.FlipAll();
  EXPECT_TRUE(v.IsZero());
  // Growing back exposes zero bits, not stale ones.
  v.Resize(64);
  EXPECT_EQ(v.Count(), 0u);
}

TEST(BitmapKernelEdgeTest, CompressedTailsStayClearAfterNot) {
  for (size_t n : std::vector<size_t>{1, 63, 65, 100, 130}) {
    const BitVector zeros(n);
    EXPECT_EQ(RleBitmap::Compress(zeros).Not().Count(), n) << n;
  }
}

// --- Randomized equivalence: compressed kernels vs the plain oracle ------

TEST(BitmapKernelEdgeTest, RandomizedEquivalenceAgainstPlainOracle) {
  // 250 iterations x (And, Or, Not) over RLE, with sizes crossing word boundaries and densities spanning sparse to
  // dense. Seeded, so failures reproduce.
  Rng rng(20260805);
  for (int trial = 0; trial < 250; ++trial) {
    const size_t n = 1 + rng.UniformInt(2500);
    const double da = rng.UniformDouble();
    const double db = rng.UniformDouble();
    const BitVector a = RandomBits(n, da * da, &rng);  // skew sparse
    const BitVector b = RandomBits(n, db, &rng);

    const RleBitmap ra = RleBitmap::Compress(a);
    const RleBitmap rb = RleBitmap::Compress(b);
    ASSERT_EQ(ra.Decompress(), a) << "trial " << trial;
    ASSERT_EQ(RleBitmap::And(ra, rb).Decompress(), And(a, b))
        << "trial " << trial;
    ASSERT_EQ(RleBitmap::Or(ra, rb).Decompress(), Or(a, b))
        << "trial " << trial;
    ASSERT_EQ(ra.Not().Decompress(), Not(a)) << "trial " << trial;
    ASSERT_EQ(ra.Count(), a.Count()) << "trial " << trial;
  }
}

TEST(BitmapKernelEdgeTest, RandomizedRunHeavyEquivalence) {
  // Run-heavy inputs (long homogeneous stretches) exercise the run
  // kernels on long runs rather than on alternating single bits.
  Rng rng(97);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t n = 200 + rng.UniformInt(3000);
    BitVector a(n);
    BitVector b(n);
    for (size_t i = 0; i < n;) {
      const size_t len = 1 + rng.UniformInt(400);
      const bool va = rng.Bernoulli(0.5);
      const bool vb = rng.Bernoulli(0.5);
      for (size_t j = i; j < std::min(n, i + len); ++j) {
        a.Assign(j, va);
        b.Assign(j, vb);
      }
      i += len;
    }
    ASSERT_EQ(RleBitmap::Or(RleBitmap::Compress(a), RleBitmap::Compress(b))
                  .Decompress(),
              Or(a, b))
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace ebi
