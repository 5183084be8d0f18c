#include "boolean/cover.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/kernels/kernels.h"
#include "util/random.h"

namespace ebi {
namespace {

Cover FigureOneInList() {
  // Section 2.2: f_a + f_b = B1'B0' + B1'B0 (before reduction).
  return {Cube::MinTerm(0b00, 2), Cube::MinTerm(0b01, 2)};
}

TEST(CoverTest, VariablesOfUnionsMasks) {
  const Cover cover = {Cube(0b00, 0b01), Cube(0b10, 0b10)};
  EXPECT_EQ(VariablesOf(cover), 0b11u);
  EXPECT_EQ(DistinctVariables(cover), 2);
}

TEST(CoverTest, DistinctVariablesCountsOnce) {
  const Cover cover = FigureOneInList();
  EXPECT_EQ(DistinctVariables(cover), 2);
  const Cover reduced = {Cube(0b00, 0b10)};  // B1'.
  EXPECT_EQ(DistinctVariables(reduced), 1);
}

TEST(CoverTest, TotalLiterals) {
  EXPECT_EQ(TotalLiterals(FigureOneInList()), 4);
  EXPECT_EQ(TotalLiterals({}), 0);
}

TEST(CoverTest, CoverCovers) {
  const Cover cover = FigureOneInList();
  EXPECT_TRUE(CoverCovers(cover, 0b00));
  EXPECT_TRUE(CoverCovers(cover, 0b01));
  EXPECT_FALSE(CoverCovers(cover, 0b10));
  EXPECT_FALSE(CoverCovers(cover, 0b11));
}

TEST(CoverTest, EmptyCoverIsFalse) {
  EXPECT_FALSE(CoverCovers({}, 0));
  EXPECT_EQ(CoverToString({}, 2), "0");
}

TEST(CoverTest, ToStringJoinsWithPlus) {
  EXPECT_EQ(CoverToString(FigureOneInList(), 2), "B1'B0' + B1'B0");
}

TEST(CoverTest, EvaluateFigureOneExample) {
  // Figure 1: column A over {a,b,c} encoded a=00, b=01, c=10; rows:
  // a c b NULL? -> use a c b a b with B1/B0 slices.
  // Rows:        a    c    b    a    b
  const BitVector b1 = BitVector::FromString("01000");
  const BitVector b0 = BitVector::FromString("00101");
  const std::vector<BitVector> slices = {b0, b1};  // slices[i] = B_i.

  // f_a = B1'B0' selects rows 0 and 3.
  const Cover fa = {Cube::MinTerm(0b00, 2)};
  EXPECT_EQ(EvaluateCover(fa, slices, 5).ToString(), "10010");

  // f_a + f_b reduces to B1'; selects rows 0, 2, 3, 4.
  const Cover fb_or_fa_reduced = {Cube(0b00, 0b10)};
  EXPECT_EQ(EvaluateCover(fb_or_fa_reduced, slices, 5).ToString(), "10111");

  // Unreduced f_a + f_b must select the same rows.
  EXPECT_EQ(EvaluateCover(FigureOneInList(), slices, 5).ToString(), "10111");
}

TEST(CoverTest, EvaluateEmptyCoverIsAllZero) {
  const std::vector<BitVector> slices = {BitVector(4), BitVector(4)};
  EXPECT_TRUE(EvaluateCover({}, slices, 4).IsZero());
}

TEST(CoverTest, EvaluateTautologyCube) {
  const std::vector<BitVector> slices = {BitVector(6), BitVector(6)};
  const Cover cover = {Cube(0, 0)};
  EXPECT_EQ(EvaluateCover(cover, slices, 6).Count(), 6u);
}

TEST(CoverTest, EvaluateMatchesCoverCoversOnAllCodes) {
  // Build slices that enumerate every 3-bit code once.
  const int k = 3;
  const size_t n = 8;
  std::vector<BitVector> slices(k, BitVector(n));
  for (size_t row = 0; row < n; ++row) {
    for (int i = 0; i < k; ++i) {
      if ((row >> i) & 1) {
        slices[i].Set(row);
      }
    }
  }
  const Cover cover = {Cube(0b010, 0b110), Cube::MinTerm(0b101, 3)};
  const BitVector result = EvaluateCover(cover, slices, n);
  for (size_t row = 0; row < n; ++row) {
    EXPECT_EQ(result.Get(row), CoverCovers(cover, row)) << row;
  }
}

TEST(CoverTest, UnreferencedSlicesMayBeEmpty) {
  // Only B1 is referenced; B0 and B2 are never read and may be empty.
  const std::vector<BitVector> slices = {
      BitVector(), BitVector::FromString("0110100"), BitVector()};
  const Cover cover = {Cube(0b000, 0b010)};  // B1'.
  EXPECT_EQ(EvaluateCover(cover, slices, 7).ToString(), "1001011");
}

TEST(CoverDeathTest, ReferencedSliceSizeMismatchAsserts) {
  const std::vector<BitVector> slices = {BitVector(70), BitVector(64)};
#ifdef NDEBUG
  // Release builds do not check the precondition; a mis-sized referenced
  // slice is a caller bug, so only the correctly sized call is exercised.
  EXPECT_TRUE(EvaluateCover({Cube(0b01, 0b01)}, slices, 70).IsZero());
#else
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Cover short_b1 = {Cube(0b01, 0b11)};  // B1'B0; B1 has 64 bits.
  EXPECT_DEATH(EvaluateCover(short_b1, slices, 70),
               "EvaluateCover referenced slice size mismatch");
  // A literal on a variable with no slice at all is the same bug.
  EXPECT_DEATH(EvaluateCover({Cube(0b100, 0b100)}, slices, 70),
               "EvaluateCover referenced slice size mismatch");
#endif
}

// A random cover over k variables mixing the shapes the blocked pass
// special-cases: single positive literals, negated lead literals,
// duplicate cubes and (rarely) the constant-true cube.
Cover RandomCover(int k, Rng* rng) {
  const uint64_t all = (uint64_t{1} << k) - 1;
  Cover cover;
  const size_t cubes = rng->UniformInt(21);
  for (size_t c = 0; c < cubes; ++c) {
    const uint64_t shape = rng->UniformInt(10);
    if (shape == 0 && !cover.empty()) {
      cover.push_back(cover[rng->UniformInt(cover.size())]);  // Duplicate.
    } else if (shape == 1) {
      const uint64_t bit = uint64_t{1} << rng->UniformInt(k);
      cover.push_back(Cube(bit, bit));  // Single positive literal.
    } else if (shape == 2) {
      const uint64_t bit = uint64_t{1} << rng->UniformInt(k);
      cover.push_back(Cube(0, bit));  // Single negative literal.
    } else if (shape == 3 && rng->Bernoulli(0.05)) {
      cover.push_back(Cube(0, 0));  // Tautology.
    } else {
      uint64_t mask = rng->Next() & all;
      if (mask == 0) {
        mask = all;
      }
      cover.push_back(Cube(rng->Next(), mask));
    }
  }
  return cover;
}

TEST(CoverTest, BlockedEvaluationMatchesRowOracle) {
  // Word counts around the 256-word block edge and the 64-bit word edge.
  const size_t kBlockBits = 256 * 64;
  const size_t sizes[] = {0,         1,         63,
                          64,        65,        kBlockBits - 1,
                          kBlockBits, kBlockBits + 1, 3 * kBlockBits + 17};
  Rng rng(20261017);
  for (const size_t n : sizes) {
    for (int k = 1; k <= 12; ++k) {
      std::vector<BitVector> slices(k, BitVector(n));
      const double density = rng.UniformDouble();
      for (BitVector& slice : slices) {
        for (size_t row = 0; row < n; ++row) {
          slice.Assign(row, rng.Bernoulli(density));
        }
      }
      std::vector<uint64_t> code_of_row(n, 0);
      for (size_t row = 0; row < n; ++row) {
        for (int i = 0; i < k; ++i) {
          code_of_row[row] |= uint64_t{slices[i].Get(row)} << i;
        }
      }
      for (int trial = 0; trial < 6; ++trial) {
        const Cover cover = trial == 0 ? Cover{} : RandomCover(k, &rng);
        BitVector expected(n);
        for (size_t row = 0; row < n; ++row) {
          expected.Assign(row, CoverCovers(cover, code_of_row[row]));
        }
        const BitVector active = EvaluateCover(cover, slices, n);
        EXPECT_TRUE(active.TailIsClean());
        EXPECT_EQ(active, expected)
            << "n=" << n << " k=" << k << " " << CoverToString(cover, k);
        for (const kernels::BitmapKernels* backend : kernels::Supported()) {
          const BitVector result =
              EvaluateCoverWith(*backend, cover, slices, n);
          EXPECT_TRUE(result.TailIsClean()) << backend->name;
          EXPECT_EQ(result, expected)
              << backend->name << " n=" << n << " k=" << k << " "
              << CoverToString(cover, k);
        }
      }
    }
  }
}

TEST(CoverTest, CoversEquivalentDetectsEquality) {
  const Cover raw = FigureOneInList();
  const Cover reduced = {Cube(0b00, 0b10)};
  EXPECT_TRUE(CoversEquivalent(raw, reduced, 2));
  const Cover different = {Cube(0b10, 0b10)};
  EXPECT_FALSE(CoversEquivalent(raw, different, 2));
}

}  // namespace
}  // namespace ebi
