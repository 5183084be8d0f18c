#include "boolean/quine_mccluskey.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "util/random.h"

namespace ebi {
namespace {

bool CoverMatches(const Cover& cover, const std::vector<uint64_t>& onset,
                  const std::vector<uint64_t>& dontcare, int k) {
  std::vector<bool> in_onset(uint64_t{1} << k, false);
  std::vector<bool> in_dc(uint64_t{1} << k, false);
  for (uint64_t m : onset) {
    in_onset[m] = true;
  }
  for (uint64_t m : dontcare) {
    in_dc[m] = true;
  }
  for (uint64_t m = 0; m < (uint64_t{1} << k); ++m) {
    const bool covered = CoverCovers(cover, m);
    if (in_onset[m] && !covered) {
      return false;  // Must cover every onset minterm.
    }
    if (!in_onset[m] && !in_dc[m] && covered) {
      return false;  // Must not cover offset minterms.
    }
  }
  return true;
}

TEST(QuineMcCluskeyTest, EmptyOnsetGivesEmptyCover) {
  EXPECT_TRUE(MinimizeQm({}, {}, 3).empty());
}

TEST(QuineMcCluskeyTest, SingleMinterm) {
  const Cover cover = MinimizeQm({0b101}, {}, 3);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0], Cube::MinTerm(0b101, 3));
}

TEST(QuineMcCluskeyTest, FigureOneReduction) {
  // Section 2.2: f_a + f_b = B1'B0' + B1'B0 reduces to B1'.
  const Cover cover = MinimizeQm({0b00, 0b01}, {}, 2);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0], Cube(0b00, 0b10));
  EXPECT_EQ(DistinctVariables(cover), 1);
}

TEST(QuineMcCluskeyTest, FullCubeIsTautology) {
  const Cover cover = MinimizeQm({0, 1, 2, 3, 4, 5, 6, 7}, {}, 3);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0].mask, 0u);
}

TEST(QuineMcCluskeyTest, Figure3WellDefinedMapping) {
  // Figure 3(a): a=000, b=100, c=001, d=101, e=011, f=111, g=010, h=110.
  // "A IN {a,b,c,d}" -> codes {000,100,001,101} reduces to B1'.
  const Cover abcd = MinimizeQm({0b000, 0b100, 0b001, 0b101}, {}, 3);
  EXPECT_EQ(DistinctVariables(abcd), 1);
  ASSERT_EQ(abcd.size(), 1u);
  EXPECT_EQ(abcd[0], Cube(0b000, 0b010));  // B1'.

  // "A IN {c,d,e,f}" -> codes {001,101,011,111} reduces to B0.
  const Cover cdef = MinimizeQm({0b001, 0b101, 0b011, 0b111}, {}, 3);
  EXPECT_EQ(DistinctVariables(cdef), 1);
  ASSERT_EQ(cdef.size(), 1u);
  EXPECT_EQ(cdef[0], Cube(0b001, 0b001));  // B0.
}

TEST(QuineMcCluskeyTest, Figure3ImproperMappingNeedsThreeVectors) {
  // Figure 3(b): a=000, c=001, g=010, b=011, e=100, d=101, h=110, f=111.
  // "A IN {a,b,c,d}" -> {000,011,001,101}: the paper gives the irreducible
  // B2'B1' + B2'B0 + B1'B0 — three bitmap vectors.
  const std::vector<uint64_t> abcd = {0b000, 0b011, 0b001, 0b101};
  const Cover cover_abcd = MinimizeQm(abcd, {}, 3);
  EXPECT_EQ(DistinctVariables(cover_abcd), 3);
  EXPECT_EQ(cover_abcd.size(), 3u);
  EXPECT_EQ(TotalLiterals(cover_abcd), 6);  // Three 2-literal cubes.

  // "A IN {c,d,e,f}" -> {001,101,100,111}: also three vectors.
  const std::vector<uint64_t> cdef = {0b001, 0b101, 0b100, 0b111};
  const Cover cover_cdef = MinimizeQm(cdef, {}, 3);
  EXPECT_EQ(DistinctVariables(cover_cdef), 3);
}

TEST(QuineMcCluskeyTest, DontCaresEnableBetterCovers) {
  // Onset {00}, dc {01}: the minimizer may (and should) use B1' instead of
  // the 2-literal min-term.
  const Cover cover = MinimizeQm({0b00}, {0b01}, 2);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0], Cube(0b00, 0b10));
}

TEST(QuineMcCluskeyTest, DontCaresNotCoveredUnlessUseful) {
  // dc minterms may be covered but the cover must hit all of the onset and
  // none of the offset.
  const std::vector<uint64_t> onset = {0, 2, 5, 7};
  const std::vector<uint64_t> dc = {1, 6};
  const Cover cover = MinimizeQm(onset, dc, 3);
  EXPECT_TRUE(CoverMatches(cover, onset, dc, 3));
}

TEST(QuineMcCluskeyTest, XorFunctionNeedsAllMinterms) {
  // XOR has no adjacent minterms; cover stays at two 2-literal cubes.
  const Cover cover = MinimizeQm({0b01, 0b10}, {}, 2);
  EXPECT_EQ(cover.size(), 2u);
  EXPECT_EQ(TotalLiterals(cover), 4);
}

TEST(QuineMcCluskeyTest, PrimeImplicantsOfFullSquare) {
  const std::vector<Cube> primes = PrimeImplicants({0, 1, 2, 3}, {}, 2);
  ASSERT_EQ(primes.size(), 1u);
  EXPECT_EQ(primes[0].mask, 0u);
}

TEST(QuineMcCluskeyTest, PrimeImplicantsClassic) {
  // Classic example: f(x2,x1,x0) with onset {0,1,2,5,6,7}: primes are
  // x2'x1', x1'x0, x2'x0', x1x0', x2x0, x2x1.
  const std::vector<Cube> primes = PrimeImplicants({0, 1, 2, 5, 6, 7}, {}, 3);
  EXPECT_EQ(primes.size(), 6u);
  for (const Cube& p : primes) {
    EXPECT_EQ(p.NumLiterals(), 2);
  }
}

TEST(QuineMcCluskeyTest, ClassicMinimalCoverSize) {
  // The onset above has two minimal covers of size 3.
  const Cover cover = MinimizeQm({0, 1, 2, 5, 6, 7}, {}, 3);
  EXPECT_EQ(cover.size(), 3u);
  EXPECT_TRUE(CoverMatches(cover, {0, 1, 2, 5, 6, 7}, {}, 3));
}

TEST(QuineMcCluskeyTest, PrefixSelectionsReduceLikePaperSection31) {
  // Consecutive codes [0, 2^j) over k bits must reduce to k-j variables.
  const int k = 6;
  for (int j = 0; j <= k; ++j) {
    std::vector<uint64_t> onset;
    for (uint64_t c = 0; c < (uint64_t{1} << j); ++c) {
      onset.push_back(c);
    }
    const Cover cover = MinimizeQm(onset, {}, k);
    EXPECT_EQ(DistinctVariables(cover), k - j) << "j=" << j;
  }
}

/// The cover as paper-notation strings, in selection order.
std::vector<std::string> CubeStrings(const Cover& cover, int k) {
  std::vector<std::string> out;
  for (const Cube& cube : cover) {
    out.push_back(cube.ToString(k));
  }
  return out;
}

TEST(QuineMcCluskeyTest, GreedyAndRedundancyPassSelectionOrderIsPinned) {
  // Each chart has more than 24 candidate primes after the essentials, so
  // the cover is completed greedily, and the reverse redundancy pass then
  // drops one or two of the picks. The expected lists pin the order of the
  // passes, the direction of the redundancy pass and the greedy
  // tie-breaks (fewer new variables, then fewer literals, then the lower
  // prime): a change to any of them fails here.
  struct Golden {
    int k;
    std::vector<uint64_t> onset;
    std::vector<uint64_t> dontcare;
    std::vector<std::string> cover;
  };
  const std::vector<Golden> goldens = {
      {5,
       {2, 3, 7, 9, 12, 15, 17, 18, 19, 20, 23, 24, 25, 26, 28},
       {0, 4, 5, 6, 8, 10, 11, 21, 29, 30, 31},
       {"B3'B1B0", "B2'B1B0'", "B3B2'B1'", "B2B1'B0'", "B2B1B0",
        "B4B1'B0"}},
      {5,
       {1, 4, 6, 7, 9, 14, 15, 16, 17, 18, 19, 20, 23, 25, 29, 30, 31},
       {0, 3, 5, 8, 10, 11, 12, 26, 28},
       {"B2'B1'B0", "B2B1B0", "B3'B1'B0'", "B4B3'B2'", "B4'B2B0'",
        "B4B3B2"}},
      {6,
       {1, 2, 5, 13, 15, 16, 18, 20, 29, 31, 34, 35, 41, 44, 46, 47, 49, 57},
       {0, 3, 9, 12, 21, 22, 24, 25, 26, 27, 33, 39, 48, 50, 52, 60, 63},
       {"B5B2'B1'B0", "B4'B3'B2'B0", "B5B4'B3B2B0'", "B3'B2'B1B0'",
        "B3B2B1B0", "B4B3'B1'B0'", "B5'B2B1'B0"}},
      // Here a forward redundancy pass would keep a different prime.
      {6,
       {1, 4, 6, 10, 11, 12, 14, 15, 16, 17, 18, 19, 21, 22, 23, 24,
        26, 31, 33, 34, 35, 37, 38, 40, 42, 43, 45, 47, 50, 56, 60},
       {0, 2, 3, 5, 7, 8, 13, 27, 39, 41, 44, 53, 54, 58, 59, 61, 62},
       {"B5'B1B0", "B2'B1B0'", "B5B4'B0", "B5'B4'B0'", "B5'B3'B0",
        "B3'B1B0'", "B5'B2'B0'", "B5B3B1'B0'"}},
  };
  for (const Golden& g : goldens) {
    const Cover cover = MinimizeQm(g.onset, g.dontcare, g.k);
    EXPECT_EQ(CubeStrings(cover, g.k), g.cover);
    EXPECT_TRUE(CoverMatches(cover, g.onset, g.dontcare, g.k));
  }
}

class QmRandomPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(QmRandomPropertyTest, CoverIsEquivalentAndIrredundant) {
  const int seed = GetParam();
  Rng rng(seed);
  const int k = 2 + static_cast<int>(rng.UniformInt(4));  // 2..5 vars.
  const uint64_t space = uint64_t{1} << k;
  std::vector<uint64_t> onset;
  std::vector<uint64_t> dc;
  for (uint64_t m = 0; m < space; ++m) {
    const double roll = rng.UniformDouble();
    if (roll < 0.4) {
      onset.push_back(m);
    } else if (roll < 0.5) {
      dc.push_back(m);
    }
  }
  const Cover cover = MinimizeQm(onset, dc, k);
  EXPECT_TRUE(CoverMatches(cover, onset, dc, k)) << "seed=" << seed;

  // Irredundancy: dropping any cube must break coverage of the onset.
  for (size_t drop = 0; drop < cover.size(); ++drop) {
    Cover without;
    for (size_t i = 0; i < cover.size(); ++i) {
      if (i != drop) {
        without.push_back(cover[i]);
      }
    }
    bool all_covered = true;
    for (uint64_t m : onset) {
      if (!CoverCovers(without, m)) {
        all_covered = false;
        break;
      }
    }
    EXPECT_FALSE(all_covered && !onset.empty())
        << "cube " << drop << " redundant, seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QmRandomPropertyTest,
                         ::testing::Range(0, 25));

/// The ON ∪ DC set of a function over k <= 16 variables as a truth table.
class Implicants {
 public:
  Implicants(const std::vector<uint64_t>& onset,
             const std::vector<uint64_t>& dontcare, int k)
      : k_(k), in_f_(uint64_t{1} << k, false) {
    for (const std::vector<uint64_t>* part : {&onset, &dontcare}) {
      for (uint64_t code : *part) {
        in_f_[code & ((uint64_t{1} << k) - 1)] = true;
      }
    }
  }

  /// True iff every assignment the cube covers is in ON ∪ DC.
  bool IsImplicant(const Cube& cube) const {
    const uint64_t free = ((uint64_t{1} << k_) - 1) & ~cube.mask;
    for (uint64_t sub = free;; sub = (sub - 1) & free) {
      if (!in_f_[cube.values | sub]) {
        return false;
      }
      if (sub == 0) {
        return true;
      }
    }
  }

  /// True iff the cube is an implicant that stops being one when any of
  /// its literals is dropped.
  bool IsPrime(const Cube& cube) const {
    if (!IsImplicant(cube)) {
      return false;
    }
    for (uint64_t bits = cube.mask; bits != 0; bits &= bits - 1) {
      const uint64_t literal = bits & -bits;
      if (IsImplicant(Cube(cube.values, cube.mask & ~literal))) {
        return false;
      }
    }
    return true;
  }

  /// Brute-force oracle: every one of the 3^k cubes that is prime, sorted
  /// like PrimeImplicants' output.
  std::vector<Cube> AllPrimes() const {
    std::vector<Cube> primes;
    const uint64_t full = (uint64_t{1} << k_) - 1;
    for (uint64_t mask = 0; mask <= full; ++mask) {
      for (uint64_t values = mask;; values = (values - 1) & mask) {
        if (IsPrime(Cube(values, mask))) {
          primes.emplace_back(values, mask);
        }
        if (values == 0) {
          break;
        }
      }
    }
    std::sort(primes.begin(), primes.end());
    return primes;
  }

 private:
  int k_;
  std::vector<bool> in_f_;
};

/// Every returned cube is a prime implicant and every ON minterm is
/// covered by one.
void ExpectPrimeCover(const std::vector<uint64_t>& onset,
                      const std::vector<uint64_t>& dontcare, int k) {
  const std::vector<Cube> primes = PrimeImplicants(onset, dontcare, k);
  const Implicants f(onset, dontcare, k);
  for (const Cube& p : primes) {
    EXPECT_TRUE(f.IsPrime(p)) << p.ToString(k) << " k=" << k;
  }
  for (uint64_t m : onset) {
    EXPECT_TRUE(CoverCovers(primes, m)) << "minterm " << m << " k=" << k;
  }
}

TEST(PrimeImplicantsOracleTest, RandomSplitsMatchBruteForce) {
  for (uint64_t seed = 0; seed < 400; ++seed) {
    Rng rng(seed);
    const int k = static_cast<int>(seed % 9);  // 0..8 variables.
    const double on_share = rng.UniformDouble();
    const double dc_share = rng.UniformDouble() * (1.0 - on_share);
    std::vector<uint64_t> onset;
    std::vector<uint64_t> dc;
    for (uint64_t m = 0; m < (uint64_t{1} << k); ++m) {
      const double roll = rng.UniformDouble();
      if (roll < on_share) {
        onset.push_back(m);
      } else if (roll < on_share + dc_share) {
        dc.push_back(m);
      }
    }
    rng.Shuffle(&onset);
    EXPECT_EQ(PrimeImplicants(onset, dc, k),
              Implicants(onset, dc, k).AllPrimes())
        << "seed=" << seed << " k=" << k;
  }
}

TEST(PrimeImplicantsOracleTest, EmptyFunctionHasNoPrimes) {
  for (int k : {0, 1, 5, 64}) {
    EXPECT_TRUE(PrimeImplicants({}, {}, k).empty()) << "k=" << k;
  }
}

TEST(PrimeImplicantsOracleTest, FullFunctionIsTheConstantCube) {
  for (int k = 0; k <= 8; ++k) {
    std::vector<uint64_t> all;
    for (uint64_t m = 0; m < (uint64_t{1} << k); ++m) {
      all.push_back(m);
    }
    EXPECT_EQ(PrimeImplicants(all, {}, k), std::vector<Cube>{Cube()})
        << "all ON, k=" << k;
    EXPECT_EQ(PrimeImplicants({}, all, k), std::vector<Cube>{Cube()})
        << "all DC, k=" << k;
  }
}

TEST(PrimeImplicantsOracleTest, ZeroAndOneVariable) {
  EXPECT_EQ(PrimeImplicants({0}, {}, 0), std::vector<Cube>{Cube()});
  EXPECT_EQ(PrimeImplicants({1}, {}, 1),
            std::vector<Cube>{Cube::MinTerm(1, 1)});
  EXPECT_EQ(PrimeImplicants({0}, {}, 1),
            std::vector<Cube>{Cube::MinTerm(0, 1)});
  EXPECT_EQ(PrimeImplicants({0}, {1}, 1), std::vector<Cube>{Cube()});
}

TEST(PrimeImplicantsOracleTest, SingleMintermAtSixtyFourVariables) {
  const uint64_t code = 0x8000'0000'dead'beefULL;
  EXPECT_EQ(PrimeImplicants({code}, {}, 64),
            std::vector<Cube>{Cube::MinTerm(code, 64)});
  // Two codes one bit apart merge into one 63-literal prime.
  EXPECT_EQ(PrimeImplicants({code, code ^ 1}, {}, 64),
            std::vector<Cube>{Cube(code & ~uint64_t{1}, ~uint64_t{1})});
}

TEST(PrimeImplicantsOracleTest, CodesWiderThanKAreMasked) {
  // Bits at or above k are ignored, as in Cube::MinTerm: 0b1101 and
  // 0b0101 are both 0b101 over 3 variables.
  const std::vector<uint64_t> onset = {0b1101, 0b0101, 0b11100};
  const std::vector<uint64_t> dc = {0b1000, 0b110};
  const std::vector<uint64_t> masked_onset = {0b101, 0b100};
  const std::vector<uint64_t> masked_dc = {0b000, 0b110};
  EXPECT_EQ(PrimeImplicants(onset, dc, 3),
            PrimeImplicants(masked_onset, masked_dc, 3));
  EXPECT_EQ(PrimeImplicants(onset, dc, 3),
            Implicants(masked_onset, masked_dc, 3).AllPrimes());
}

/// A sequential mapping of `used` codes over k bits leaves [used, 2^k) as
/// don't-cares; the selection takes `delta` random used codes.
void ExpectServedShape(int k, uint64_t used, size_t delta, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> onset;
  for (size_t i = 0; i < delta; ++i) {
    onset.push_back(rng.UniformInt(used));
  }
  std::vector<uint64_t> dc;
  for (uint64_t code = used; code < (uint64_t{1} << k); ++code) {
    dc.push_back(code);
  }
  ExpectPrimeCover(onset, dc, k);
}

TEST(PrimeImplicantsOracleTest, SequentialMappingDontCareTails) {
  for (int k : {9, 10, 11}) {
    const uint64_t half = uint64_t{1} << (k - 1);
    for (uint64_t seed = 0; seed < 4; ++seed) {
      ExpectServedShape(k, half + 1 + seed * (half / 4), 32, seed);
    }
  }
}

TEST(PrimeImplicantsOracleTest, SixteenVariablesWithLargeDontCareTail) {
  // About 25k unused codewords as don't-cares. Level-by-level merging
  // enumerates every sub-cube of that tail (seconds per call); cofactoring
  // does not (about a millisecond). Four calls keep a regression past the
  // ctest TIMEOUT on this binary, so it fails by name.
  for (uint64_t seed = 0; seed < 4; ++seed) {
    ExpectServedShape(16, 40536, 32, seed);
  }
}

}  // namespace
}  // namespace ebi
