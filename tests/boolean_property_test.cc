// Exhaustive and randomized property tests for the Boolean minimization
// stack — the correctness core the whole index library leans on.

#include <gtest/gtest.h>

#include "boolean/quine_mccluskey.h"
#include "boolean/reduction.h"
#include "util/random.h"

namespace ebi {
namespace {

/// Truth table of a cover over k variables, as a bitmask of 2^k outputs.
uint64_t TruthTable(const Cover& cover, int k) {
  uint64_t table = 0;
  for (uint64_t m = 0; m < (uint64_t{1} << k); ++m) {
    if (CoverCovers(cover, m)) {
      table |= uint64_t{1} << m;
    }
  }
  return table;
}

TEST(BooleanExhaustiveTest, AllThreeVariableFunctionsMinimizeCorrectly) {
  // Every one of the 256 functions of 3 variables: QM must return an
  // equivalent, irredundant cover.
  const int k = 3;
  for (uint32_t function = 0; function < 256; ++function) {
    std::vector<uint64_t> onset;
    for (uint64_t m = 0; m < 8; ++m) {
      if ((function >> m) & 1) {
        onset.push_back(m);
      }
    }
    const Cover cover = MinimizeQm(onset, {}, k);
    uint64_t expected = function;
    ASSERT_EQ(TruthTable(cover, k), expected) << "function " << function;
    // Irredundant: every cube covers some onset minterm no other covers...
    // at minimum, no cube is droppable.
    for (size_t drop = 0; drop < cover.size(); ++drop) {
      Cover without;
      for (size_t i = 0; i < cover.size(); ++i) {
        if (i != drop) {
          without.push_back(cover[i]);
        }
      }
      ASSERT_NE(TruthTable(without, k), expected)
          << "function " << function << " cube " << drop << " redundant";
    }
  }
}

TEST(BooleanExhaustiveTest, AllThreeVariableFunctionsWithDontCares) {
  // For every (onset, dc) split of a few fixed dc patterns, the cover
  // must agree with the onset outside the dc set.
  const int k = 3;
  const std::vector<uint64_t> dc = {0b010, 0b101};
  const uint64_t dc_mask =
      (uint64_t{1} << 0b010) | (uint64_t{1} << 0b101);
  for (uint32_t function = 0; function < 256; ++function) {
    std::vector<uint64_t> onset;
    for (uint64_t m = 0; m < 8; ++m) {
      if (((function >> m) & 1) && !((dc_mask >> m) & 1)) {
        onset.push_back(m);
      }
    }
    const Cover cover = MinimizeQm(onset, dc, k);
    const uint64_t table = TruthTable(cover, k);
    for (uint64_t m = 0; m < 8; ++m) {
      if ((dc_mask >> m) & 1) {
        continue;  // Unconstrained.
      }
      const bool want = std::find(onset.begin(), onset.end(), m) !=
                        onset.end();
      ASSERT_EQ(((table >> m) & 1) != 0, want)
          << "function " << function << " minterm " << m;
    }
  }
}

TEST(BooleanExhaustiveTest, LargeWidthReductionScales) {
  // k = 20 (a million-codeword space): the reduction must handle a
  // 512-value consecutive selection quickly and still collapse it to the
  // enclosing subcube structure.
  const int k = 20;
  std::vector<uint64_t> onset;
  for (uint64_t m = 0; m < 512; ++m) {
    onset.push_back(m);
  }
  const Cover cover = ReduceRetrievalFunction(onset, {}, k);
  // [0, 512) is a 9-subcube: one cube with k-9 = 11 literals.
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0].NumLiterals(), 11);
}

TEST(BooleanExhaustiveTest, ReductionCostNeverExceedsWidth) {
  Rng rng(999);
  for (int trial = 0; trial < 40; ++trial) {
    const int k = 2 + static_cast<int>(rng.UniformInt(9));  // 2..10.
    const size_t count = 1 + rng.UniformInt(50);
    std::vector<uint64_t> onset;
    for (size_t i = 0; i < count; ++i) {
      onset.push_back(rng.UniformInt(uint64_t{1} << k));
    }
    const Cover cover = ReduceRetrievalFunction(onset, {}, k);
    EXPECT_LE(DistinctVariables(cover), k);
    for (uint64_t m : onset) {
      EXPECT_TRUE(CoverCovers(cover, m));
    }
  }
}

}  // namespace
}  // namespace ebi
