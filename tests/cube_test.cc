#include "boolean/cube.h"

#include <gtest/gtest.h>

namespace ebi {
namespace {

TEST(CubeTest, MinTermSpecifiesAllVariables) {
  const Cube c = Cube::MinTerm(0b101, 3);
  EXPECT_EQ(c.mask, 0b111u);
  EXPECT_EQ(c.values, 0b101u);
  EXPECT_EQ(c.NumLiterals(), 3);
}

TEST(CubeTest, ConstructorMasksValues) {
  // Bits of `values` outside the mask must be dropped.
  const Cube c(0b111, 0b010);
  EXPECT_EQ(c.values, 0b010u);
}

TEST(CubeTest, CoversMatchingAssignment) {
  const Cube c(0b10, 0b11);  // B1 B0'
  EXPECT_TRUE(c.Covers(0b10));
  EXPECT_FALSE(c.Covers(0b11));
  EXPECT_FALSE(c.Covers(0b00));
}

TEST(CubeTest, PartialCubeCoversFreeVariables) {
  const Cube c(0b00, 0b10);  // B1'
  EXPECT_TRUE(c.Covers(0b00));
  EXPECT_TRUE(c.Covers(0b01));
  EXPECT_FALSE(c.Covers(0b10));
  EXPECT_FALSE(c.Covers(0b11));
}

TEST(CubeTest, EmptyMaskCoversEverything) {
  const Cube c(0, 0);
  EXPECT_TRUE(c.Covers(0));
  EXPECT_TRUE(c.Covers(0b1111));
  EXPECT_EQ(c.NumLiterals(), 0);
}

TEST(CubeTest, ContainsAbsorption) {
  const Cube big(0b00, 0b10);    // B1'
  const Cube small(0b01, 0b11);  // B1'B0
  EXPECT_TRUE(big.Contains(small));
  EXPECT_FALSE(small.Contains(big));
  EXPECT_TRUE(big.Contains(big));
}

TEST(CubeTest, ToStringPaperNotation) {
  // f_a = B1'B0' from Figure 1's example.
  EXPECT_EQ(Cube::MinTerm(0b00, 2).ToString(2), "B1'B0'");
  EXPECT_EQ(Cube::MinTerm(0b01, 2).ToString(2), "B1'B0");
  EXPECT_EQ(Cube::MinTerm(0b10, 2).ToString(2), "B1B0'");
  EXPECT_EQ(Cube(0b00, 0b10).ToString(2), "B1'");
  EXPECT_EQ(Cube(0, 0).ToString(2), "1");
}

TEST(CubeTest, OrderingIsDeterministic) {
  const Cube a(0b0, 0b01);
  const Cube b(0b1, 0b01);
  const Cube c(0b0, 0b10);
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(b < c);
}

TEST(CubeTest, MergedCubeCoversBothParents) {
  const Cube x = Cube::MinTerm(0b0110, 4);
  const Cube y = Cube::MinTerm(0b0100, 4);
  const Cube merged(0b0100, 0b1101);  // B3'B2B0': x and y without B1.
  EXPECT_TRUE(merged.Contains(x));
  EXPECT_TRUE(merged.Contains(y));
}

}  // namespace
}  // namespace ebi
