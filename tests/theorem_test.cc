// Property tests for the paper's theorems as checkable invariants over
// random encodings — not just the worked examples.

#include <gtest/gtest.h>

#include <algorithm>

#include "encoding/chain.h"
#include "encoding/encoders.h"
#include "encoding/optimizer.h"
#include "encoding/well_defined.h"
#include "util/bit_util.h"
#include "util/random.h"

namespace ebi {
namespace {

/// Random bijective mapping of m values onto the full k-bit space.
MappingTable RandomFullMapping(size_t m, uint64_t seed) {
  Rng rng(seed);
  auto mapping = MakeRandomMapping(m, &rng);
  EXPECT_TRUE(mapping.ok());
  return std::move(mapping).value();
}

/// Random subdomain of the given size.
std::vector<ValueId> RandomSubdomain(size_t m, size_t n, Rng* rng) {
  std::vector<ValueId> all(m);
  for (ValueId v = 0; v < m; ++v) {
    all[v] = v;
  }
  rng->Shuffle(&all);
  all.resize(n);
  return all;
}

TEST(Theorem22Test, PowerOfTwoWellDefinedIffSubcubeCost) {
  // For |s| = 2^p on a full k-bit code space (no don't-cares), the
  // well-defined property (a prime chain) holds exactly when the selection
  // reduces to k-p vectors: a prime chain of 2^p codewords is a p-subcube.
  ReductionOptions no_dc;
  const size_t m = 8;  // k = 3, full space.
  const int k = 3;
  int well_defined_seen = 0;
  int improper_seen = 0;
  Rng rng(1234);
  for (uint64_t trial = 0; trial < 150; ++trial) {
    const MappingTable mapping = RandomFullMapping(m, trial);
    for (size_t n : {size_t{2}, size_t{4}}) {
      const int p = Log2Floor(n);
      const std::vector<ValueId> s = RandomSubdomain(m, n, &rng);
      const auto wd = IsWellDefined(mapping, s, m);
      ASSERT_TRUE(wd.ok());
      const auto cost = AccessCost(mapping, s, no_dc);
      ASSERT_TRUE(cost.ok());
      if (*wd) {
        ++well_defined_seen;
        EXPECT_EQ(*cost, k - p)
            << "trial " << trial << " n=" << n
            << ": well-defined must reduce to a " << p << "-subcube";
      } else {
        ++improper_seen;
        EXPECT_GT(*cost, k - p)
            << "trial " << trial << " n=" << n
            << ": improper encodings cannot reach the minimum";
      }
    }
  }
  // The property test must actually have exercised both sides.
  EXPECT_GT(well_defined_seen, 10);
  EXPECT_GT(improper_seen, 10);
}

TEST(Theorem22Test, GrayPrefixSelectionsAreWellDefined) {
  // Consecutive Gray codewords of length 2^p always form a prime chain
  // (they span a subcube when aligned); check alignment at 0.
  const auto mapping = MakeGrayMapping(16);
  ASSERT_TRUE(mapping.ok());
  for (size_t n : {size_t{2}, size_t{4}, size_t{8}}) {
    std::vector<ValueId> s;
    for (ValueId v = 0; v < n; ++v) {
      s.push_back(v);
    }
    const auto wd = IsWellDefined(*mapping, s, 16);
    ASSERT_TRUE(wd.ok());
    EXPECT_TRUE(*wd) << n;
  }
}

TEST(Theorem23Test, TotalCostIsSumOfPerPredicateCosts) {
  Rng rng(55);
  const MappingTable mapping = RandomFullMapping(16, 9);
  PredicateSet predicates;
  int expected = 0;
  for (int i = 0; i < 6; ++i) {
    predicates.push_back(RandomSubdomain(16, 2 + rng.UniformInt(6), &rng));
    const auto one = AccessCost(mapping, predicates.back());
    ASSERT_TRUE(one.ok());
    expected += *one;
  }
  const auto total = TotalAccessCost(mapping, predicates);
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(*total, expected);
}

TEST(Theorem21Test, VoidZeroSelectionsNeverCoverVoid) {
  // With code 0 reserved for void tuples, the reduced retrieval
  // expression of ANY selection over existing values must evaluate to 0
  // on the void codeword — that is why the existence conjunct can be
  // dropped.
  Rng rng(77);
  for (uint64_t trial = 0; trial < 60; ++trial) {
    EncoderOptions eo;
    eo.reserve_void_zero = true;
    Rng mrng(trial);
    const auto mapping = MakeRandomMapping(10, &mrng, eo);
    ASSERT_TRUE(mapping.ok());
    const size_t n = 1 + rng.UniformInt(9);
    const std::vector<ValueId> s = RandomSubdomain(10, n, &rng);
    std::vector<uint64_t> onset;
    for (ValueId v : s) {
      onset.push_back(*mapping->CodeOf(v));
    }
    const std::vector<uint64_t> dc = mapping->UnusedCodes(1024);
    const Cover cover =
        ReduceRetrievalFunction(onset, dc, mapping->width());
    EXPECT_FALSE(CoverCovers(cover, 0)) << "trial " << trial;
    for (uint64_t code : onset) {
      EXPECT_TRUE(CoverCovers(cover, code));
    }
  }
}

TEST(Theorem21Test, WithoutVoidReservationSelectionsMayCoverZero) {
  // The contrast: if 0 is a live codeword, selections containing that
  // value do cover 0 — so deleted rows would leak without the existence
  // AND. (This is the behaviour Theorem 2.1's reservation removes.)
  const auto mapping = MakeSequentialMapping(4);  // Value 0 -> code 0.
  ASSERT_TRUE(mapping.ok());
  const Cover cover = ReduceRetrievalFunction({0b00, 0b01}, {}, 2);
  EXPECT_TRUE(CoverCovers(cover, 0));
}

TEST(PrimeChainTheoryTest, PrimeChainsAreExactlySubcubes) {
  // Supporting lemma for Theorem 2.2: a set of 2^p codewords with
  // pairwise distance <= p admitting a chain is precisely an affine
  // subcube. Verify over all 4-subsets of a 4-bit space (exhaustive).
  std::vector<uint64_t> codes;
  for (uint64_t a = 0; a < 16; ++a) {
    for (uint64_t b = a + 1; b < 16; ++b) {
      for (uint64_t c = b + 1; c < 16; ++c) {
        for (uint64_t d = c + 1; d < 16; ++d) {
          codes = {a, b, c, d};
          const bool prime = FindPrimeChain(codes).has_value();
          // Subcube test: the XOR-differences span a <= 2-dimensional
          // space and all codes share the complement mask.
          const uint64_t base = a;
          uint64_t varying = 0;
          for (uint64_t x : codes) {
            varying |= x ^ base;
          }
          bool subcube = PopCount(varying) == 2;
          if (subcube) {
            // All four combinations of the two varying bits must occur.
            std::vector<uint64_t> expected;
            const uint64_t bit1 = varying & (varying - 1);
            const uint64_t bit0 = varying ^ bit1;
            for (int i = 0; i < 4; ++i) {
              expected.push_back((base & ~varying) | (i & 1 ? bit0 : 0) |
                                 (i & 2 ? bit1 : 0));
            }
            std::sort(expected.begin(), expected.end());
            subcube = expected == codes;
          }
          ASSERT_EQ(prime, subcube)
              << a << "," << b << "," << c << "," << d;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ebi
