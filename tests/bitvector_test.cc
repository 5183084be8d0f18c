#include "util/bitvector.h"

#include <gtest/gtest.h>

#include "util/random.h"

namespace ebi {
namespace {

TEST(BitVectorTest, DefaultIsEmpty) {
  BitVector v;
  EXPECT_EQ(v.size(), 0u);
  EXPECT_TRUE(v.empty());
  EXPECT_TRUE(v.IsZero());
  EXPECT_EQ(v.Count(), 0u);
}

TEST(BitVectorTest, ConstructAllZero) {
  BitVector v(100);
  EXPECT_EQ(v.size(), 100u);
  EXPECT_EQ(v.Count(), 0u);
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_FALSE(v.Get(i));
  }
}

TEST(BitVectorTest, ConstructAllOne) {
  BitVector v(70, true);
  EXPECT_EQ(v.Count(), 70u);
  EXPECT_TRUE(v.Get(0));
  EXPECT_TRUE(v.Get(69));
}

TEST(BitVectorTest, AllOnesTailIsMasked) {
  // 70 bits use two words; the 58 spare bits of word 1 must stay zero so
  // Count() is exact.
  BitVector v(70, true);
  EXPECT_EQ(v.words().size(), 2u);
  EXPECT_EQ(v.words()[1], (uint64_t{1} << 6) - 1);
}

TEST(BitVectorTest, SetResetGet) {
  BitVector v(130);
  v.Set(0);
  v.Set(64);
  v.Set(129);
  EXPECT_TRUE(v.Get(0));
  EXPECT_TRUE(v.Get(64));
  EXPECT_TRUE(v.Get(129));
  EXPECT_EQ(v.Count(), 3u);
  v.Reset(64);
  EXPECT_FALSE(v.Get(64));
  EXPECT_EQ(v.Count(), 2u);
}

TEST(BitVectorTest, AssignSelectsSetOrReset) {
  BitVector v(10);
  v.Assign(3, true);
  EXPECT_TRUE(v.Get(3));
  v.Assign(3, false);
  EXPECT_FALSE(v.Get(3));
}

TEST(BitVectorTest, FromStringAndToStringRoundTrip) {
  const std::string s = "0101100111010";
  BitVector v = BitVector::FromString(s);
  EXPECT_EQ(v.size(), s.size());
  EXPECT_EQ(v.ToString(), s);
}

TEST(BitVectorTest, FromStringRejectsGarbage) {
  EXPECT_TRUE(BitVector::FromString("01x1").empty());
}

TEST(BitVectorTest, PushBackGrowsAcrossWords) {
  BitVector v;
  for (int i = 0; i < 200; ++i) {
    v.PushBack(i % 3 == 0);
  }
  EXPECT_EQ(v.size(), 200u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(v.Get(i), i % 3 == 0) << i;
  }
}

TEST(BitVectorTest, ResizeGrowZeroFills) {
  BitVector v(5, true);
  v.Resize(100);
  EXPECT_EQ(v.Count(), 5u);
  EXPECT_FALSE(v.Get(50));
}

TEST(BitVectorTest, ResizeShrinkDropsTail) {
  BitVector v(100, true);
  v.Resize(10);
  EXPECT_EQ(v.size(), 10u);
  EXPECT_EQ(v.Count(), 10u);
  // Growing again must not resurrect old bits.
  v.Resize(100);
  EXPECT_EQ(v.Count(), 10u);
}

TEST(BitVectorTest, ClearAndSetAll) {
  BitVector v(77);
  v.SetAll();
  EXPECT_EQ(v.Count(), 77u);
  v.Clear();
  EXPECT_TRUE(v.IsZero());
  EXPECT_EQ(v.size(), 77u);
}

TEST(BitVectorTest, LogicalOps) {
  const BitVector a = BitVector::FromString("110010");
  const BitVector b = BitVector::FromString("011011");
  EXPECT_EQ(And(a, b).ToString(), "010010");
  EXPECT_EQ(Or(a, b).ToString(), "111011");
  EXPECT_EQ(Xor(a, b).ToString(), "101001");
  EXPECT_EQ(Not(a).ToString(), "001101");
}

TEST(BitVectorTest, NotKeepsTailZero) {
  BitVector v(70);
  const BitVector inverted = Not(v);
  EXPECT_EQ(inverted.Count(), 70u);
}

TEST(BitVectorTest, AndNotWith) {
  BitVector a = BitVector::FromString("1111");
  const BitVector b = BitVector::FromString("0101");
  a.AndNotWith(b);
  EXPECT_EQ(a.ToString(), "1010");
}

TEST(BitVectorTest, FlipAllTwiceIsIdentity) {
  BitVector v = BitVector::FromString("10110");
  const BitVector original = v;
  v.FlipAll();
  v.FlipAll();
  EXPECT_EQ(v, original);
}

TEST(BitVectorTest, ForEachSetBitVisitsAscending) {
  BitVector v(300);
  v.Set(1);
  v.Set(63);
  v.Set(64);
  v.Set(299);
  std::vector<size_t> seen;
  v.ForEachSetBit([&seen](size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<size_t>{1, 63, 64, 299}));
}

TEST(BitVectorTest, ToPositions) {
  BitVector v = BitVector::FromString("0100101");
  EXPECT_EQ(v.ToPositions(), (std::vector<uint32_t>{1, 4, 6}));
}

TEST(BitVectorTest, SparsityOfEmptyVectorIsZero) {
  EXPECT_DOUBLE_EQ(BitVector().Sparsity(), 0.0);
}

TEST(BitVectorTest, Sparsity) {
  BitVector v(10);
  v.Set(0);
  EXPECT_DOUBLE_EQ(v.Sparsity(), 0.9);
}

TEST(BitVectorTest, EqualityIncludesSize) {
  EXPECT_NE(BitVector(10), BitVector(11));
  EXPECT_EQ(BitVector(10), BitVector(10));
}

TEST(BitVectorTest, SizeBytesIsWordGranular) {
  EXPECT_EQ(BitVector(1).SizeBytes(), 8u);
  EXPECT_EQ(BitVector(64).SizeBytes(), 8u);
  EXPECT_EQ(BitVector(65).SizeBytes(), 16u);
}

// Property sweep: logical ops agree with bit-by-bit evaluation across many
// sizes, including word-boundary sizes.
// --- Tail-word hygiene regressions -------------------------------------
// Count()/IsZero()/ForEachSetBit assume every padding bit above size() is
// zero. These pin the cases that used to leak set padding bits.

TEST(BitVectorTailTest, EveryMutatingOpLeavesTailClean) {
  Rng rng(71);
  for (size_t n : {size_t{1}, size_t{63}, size_t{65}, size_t{127}}) {
    BitVector a(n);
    BitVector b(n);
    for (size_t i = 0; i < n; ++i) {
      if (rng.Bernoulli(0.5)) {
        a.Set(i);
      }
      if (rng.Bernoulli(0.5)) {
        b.Set(i);
      }
    }
    BitVector v = a;
    EXPECT_TRUE(v.OrWith(b).TailIsClean()) << "or n=" << n;
    v = a;
    EXPECT_TRUE(v.XorWith(b).TailIsClean()) << "xor n=" << n;
    v = a;
    EXPECT_TRUE(v.AndWith(b).TailIsClean()) << "and n=" << n;
    v = a;
    EXPECT_TRUE(v.AndNotWith(b).TailIsClean()) << "andnot n=" << n;
    v = a;
    EXPECT_TRUE(v.FlipAll().TailIsClean()) << "not n=" << n;
    v = a;
    v.SetAll();
    EXPECT_TRUE(v.TailIsClean()) << "setall n=" << n;
    v = a;
    EXPECT_TRUE(v.OrWithMany({&b}).TailIsClean()) << "or_many n=" << n;
    v = a;
    EXPECT_TRUE(v.AndWithMany({&b}).TailIsClean()) << "and_many n=" << n;
  }
}

TEST(BitVectorTailTest, OrWithLongerOperandDoesNotPollutePadding) {
  // The historical bug: OR/XOR against a (documented zero-extension
  // semantics) longer operand copied that operand's valid bits into this
  // vector's padding range, inflating Count() from then on. The size
  // contract is two-sided — mismatches assert in debug builds and fall
  // back to zero-extension in release — so each build type checks its
  // half.
  BitVector longer(128, true);
#ifdef NDEBUG
  BitVector shorter(70);
  shorter.Set(0);
  shorter.OrWith(longer);
  EXPECT_EQ(shorter.size(), 70u);
  EXPECT_EQ(shorter.Count(), 70u);
  EXPECT_TRUE(shorter.TailIsClean());

  BitVector x(70);
  x.XorWith(longer);
  EXPECT_EQ(x.Count(), 70u);
  EXPECT_TRUE(x.TailIsClean());
#else
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  BitVector shorter(70);
  EXPECT_DEATH(shorter.OrWith(longer), "OrWith operand size mismatch");
  BitVector x(70);
  EXPECT_DEATH(x.XorWith(longer), "XorWith operand size mismatch");
#endif
}

TEST(BitVectorTailTest, FusedManyOpsMatchChainedBinaryOps) {
  Rng rng(72);
  for (size_t n : {size_t{64}, size_t{100}, size_t{4097}}) {
    std::vector<BitVector> operands(5, BitVector(n));
    for (BitVector& v : operands) {
      for (size_t i = 0; i < n; ++i) {
        if (rng.Bernoulli(0.3)) {
          v.Set(i);
        }
      }
    }
    std::vector<const BitVector*> ptrs;
    for (const BitVector& v : operands) {
      ptrs.push_back(&v);
    }
    BitVector fused_or(n);
    fused_or.OrWithMany(ptrs);
    BitVector chained_or(n);
    for (const BitVector& v : operands) {
      chained_or.OrWith(v);
    }
    EXPECT_EQ(fused_or, chained_or) << "n=" << n;

    BitVector fused_and(n, true);
    fused_and.AndWithMany(ptrs);
    BitVector chained_and(n, true);
    for (const BitVector& v : operands) {
      chained_and.AndWith(v);
    }
    EXPECT_EQ(fused_and, chained_and) << "n=" << n;
  }
}

TEST(BitVectorTailTest, ManyOpsWithEmptyOperandListAreIdentity) {
  BitVector v = BitVector::FromString("1011");
  const BitVector before = v;
  v.OrWithMany({});
  EXPECT_EQ(v, before);
  v.AndWithMany({});
  EXPECT_EQ(v, before);
}

class BitVectorPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BitVectorPropertyTest, OpsMatchBitwiseReference) {
  const size_t n = GetParam();
  Rng rng(n * 977 + 13);
  BitVector a(n);
  BitVector b(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.4)) {
      a.Set(i);
    }
    if (rng.Bernoulli(0.6)) {
      b.Set(i);
    }
  }
  const BitVector and_v = And(a, b);
  const BitVector or_v = Or(a, b);
  const BitVector xor_v = Xor(a, b);
  const BitVector not_a = Not(a);
  size_t expected_count = 0;
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(and_v.Get(i), a.Get(i) && b.Get(i));
    EXPECT_EQ(or_v.Get(i), a.Get(i) || b.Get(i));
    EXPECT_EQ(xor_v.Get(i), a.Get(i) != b.Get(i));
    EXPECT_EQ(not_a.Get(i), !a.Get(i));
    expected_count += a.Get(i) ? 1 : 0;
  }
  EXPECT_EQ(a.Count(), expected_count);
}

TEST_P(BitVectorPropertyTest, DeMorgan) {
  const size_t n = GetParam();
  Rng rng(n * 31 + 7);
  BitVector a(n);
  BitVector b(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.5)) {
      a.Set(i);
    }
    if (rng.Bernoulli(0.5)) {
      b.Set(i);
    }
  }
  EXPECT_EQ(Not(And(a, b)), Or(Not(a), Not(b)));
  EXPECT_EQ(Not(Or(a, b)), And(Not(a), Not(b)));
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitVectorPropertyTest,
                         ::testing::Values(1, 7, 63, 64, 65, 127, 128, 129,
                                           1000, 4096));

}  // namespace
}  // namespace ebi
