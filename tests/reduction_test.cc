#include "boolean/reduction.h"

#include <gtest/gtest.h>

#include "boolean/quine_mccluskey.h"

namespace ebi {
namespace {

TEST(ReductionTest, DisabledReductionReturnsRawMinTerms) {
  ReductionOptions options;
  options.enable_reduction = false;
  const Cover cover = ReduceRetrievalFunction({0b00, 0b01}, {}, 2, options);
  EXPECT_EQ(cover.size(), 2u);
  EXPECT_EQ(DistinctVariables(cover), 2);
}

TEST(ReductionTest, EnabledReductionMatchesQm) {
  const Cover cover = ReduceRetrievalFunction({0b00, 0b01}, {}, 2);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0], Cube(0b00, 0b10));
}

TEST(ReductionTest, EmptyOnsetStaysEmpty) {
  EXPECT_TRUE(ReduceRetrievalFunction({}, {0, 1}, 2).empty());
}

TEST(ReductionTest, LargeDontCareSetReducesExactly) {
  // A sequential mapping of 9,000 values at k = 14 leaves 7,384 free
  // codewords; with a 2,000-code BETWEEN that is 9,384 terms, above the
  // point where reduction once left the exact minimizer. The result must
  // be MinimizeQm's cover, and a correct one.
  const int k = 14;
  const uint64_t used = 9000;
  std::vector<uint64_t> dontcare;
  for (uint64_t code = used; code < (uint64_t{1} << k); ++code) {
    dontcare.push_back(code);
  }
  std::vector<uint64_t> onset;
  for (uint64_t code = 3000; code < 5000; ++code) {
    onset.push_back(code);
  }
  const Cover cover = ReduceRetrievalFunction(onset, dontcare, k);
  EXPECT_EQ(cover, MinimizeQm(onset, dontcare, k));
  for (uint64_t code = 0; code < used; ++code) {
    EXPECT_EQ(CoverCovers(cover, code), code >= 3000 && code < 5000)
        << code;
  }
}

}  // namespace
}  // namespace ebi
