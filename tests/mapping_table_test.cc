#include "encoding/mapping_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "util/random.h"

namespace ebi {
namespace {

/// The unused codewords of `table`, found by scanning its whole code space.
std::vector<uint64_t> ScanUnusedCodes(const MappingTable& table) {
  std::unordered_set<uint64_t> used(table.codes().begin(),
                                    table.codes().end());
  for (const std::optional<uint64_t>& reserved :
       {table.void_code(), table.null_code()}) {
    if (reserved.has_value()) {
      used.insert(*reserved);
    }
  }
  std::vector<uint64_t> unused;
  for (uint64_t code = 0; code < (uint64_t{1} << table.width()); ++code) {
    if (!used.contains(code)) {
      unused.push_back(code);
    }
  }
  return unused;
}

/// Checks FirstFreeCode and UnusedCodes (at several limits) against a scan.
void ExpectFreeCodesMatchScan(const MappingTable& table,
                              const std::string& context) {
  const std::vector<uint64_t> unused = ScanUnusedCodes(table);
  EXPECT_EQ(table.FirstFreeCode(),
            unused.empty() ? std::nullopt
                           : std::optional<uint64_t>(unused.front()))
      << context;
  EXPECT_EQ(table.UnusedCodes(unused.size() + 5), unused) << context;
  for (size_t limit : {size_t{0}, size_t{1}, unused.size() / 2}) {
    const std::vector<uint64_t> prefix(
        unused.begin(),
        unused.begin() +
            static_cast<std::ptrdiff_t>(std::min(limit, unused.size())));
    EXPECT_EQ(table.UnusedCodes(limit), prefix)
        << context << " limit=" << limit;
  }
}

TEST(MappingTableTest, CreateAndLookup) {
  const auto table = MappingTable::Create(2, {0b00, 0b01, 0b10});
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->width(), 2);
  EXPECT_EQ(table->NumValues(), 3u);
  EXPECT_EQ(table->NumCodes(), 3u);
  EXPECT_EQ(*table->CodeOf(0), 0b00u);
  EXPECT_EQ(*table->CodeOf(2), 0b10u);
  EXPECT_EQ(table->ValueOfCode(0b01), std::optional<ValueId>(1));
  EXPECT_EQ(table->ValueOfCode(0b11), std::nullopt);
}

TEST(MappingTableTest, RejectsDuplicateCodes) {
  EXPECT_FALSE(MappingTable::Create(2, {0b00, 0b00}).ok());
}

TEST(MappingTableTest, RejectsCodesExceedingWidth) {
  EXPECT_FALSE(MappingTable::Create(2, {0b100}).ok());
}

TEST(MappingTableTest, RejectsTooSmallWidth) {
  EXPECT_FALSE(MappingTable::Create(1, {0b0, 0b1, 0b1}).ok());
  // 3 distinct codes cannot fit 1 bit even without duplicates.
  EXPECT_FALSE(MappingTable::Create(2, {0, 1, 2, 3}, 0).ok());
}

TEST(MappingTableTest, ReservedCodesExcluded) {
  // void = 0, NULL = 1; values must avoid them.
  const auto bad = MappingTable::Create(2, {0b00, 0b10}, 0, 1);
  EXPECT_FALSE(bad.ok());
  const auto good = MappingTable::Create(2, {0b10, 0b11}, 0, 1);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->NumCodes(), 4u);
  EXPECT_EQ(good->void_code(), std::optional<uint64_t>(0));
  EXPECT_EQ(good->null_code(), std::optional<uint64_t>(1));
}

TEST(MappingTableTest, VoidAndNullMustDiffer) {
  EXPECT_FALSE(MappingTable::Create(2, {0b10}, 1, 1).ok());
}

TEST(MappingTableTest, RetrievalFunctionIsMinTerm) {
  const auto table = MappingTable::Create(3, {0b101});
  ASSERT_TRUE(table.ok());
  const auto f = table->RetrievalFunction(0);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->ToString(3), "B2B1'B0");
}

TEST(MappingTableTest, AddValueWithoutExpansion) {
  // Figure 2(a): domain {a,b,c} with codes 00,01,10 gains d -> 11.
  auto table = MappingTable::Create(2, {0b00, 0b01, 0b10});
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->FirstFreeCode(), std::optional<uint64_t>(0b11));
  EXPECT_TRUE(table->AddValue(3, 0b11).ok());
  EXPECT_EQ(*table->CodeOf(3), 0b11u);
  EXPECT_EQ(table->FirstFreeCode(), std::nullopt);
}

TEST(MappingTableTest, AddValueRejectsSparseIds) {
  auto table = MappingTable::Create(2, {0b00});
  ASSERT_TRUE(table.ok());
  EXPECT_FALSE(table->AddValue(5, 0b01).ok());
}

TEST(MappingTableTest, AddValueRejectsTakenOrReservedCodes) {
  auto table = MappingTable::Create(2, {0b01}, 0);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->AddValue(1, 0b01).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(table->AddValue(1, 0b00).code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(table->AddValue(1, 0b10).ok());
}

TEST(MappingTableTest, ExpandWidthKeepsCodes) {
  // Figure 2(b): after expansion old codewords are zero-extended.
  auto table = MappingTable::Create(2, {0b00, 0b01, 0b10, 0b11});
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->FirstFreeCode(), std::nullopt);
  EXPECT_TRUE(table->ExpandWidth(3).ok());
  EXPECT_EQ(table->width(), 3);
  EXPECT_EQ(*table->CodeOf(2), 0b10u);
  EXPECT_EQ(table->FirstFreeCode(), std::optional<uint64_t>(0b100));
  EXPECT_TRUE(table->AddValue(4, 0b100).ok());
}

TEST(MappingTableTest, ExpandWidthRejectsShrink) {
  auto table = MappingTable::Create(3, {0});
  ASSERT_TRUE(table.ok());
  EXPECT_FALSE(table->ExpandWidth(2).ok());
}

TEST(MappingTableTest, UnusedCodesAreComplement) {
  const auto table = MappingTable::Create(3, {0b001, 0b010}, 0);
  ASSERT_TRUE(table.ok());
  const std::vector<uint64_t> unused = table->UnusedCodes(100);
  // 8 codes - 2 values - void = 5 unused.
  EXPECT_EQ(unused.size(), 5u);
  for (uint64_t code : unused) {
    EXPECT_NE(code, 0u);
    EXPECT_NE(code, 0b001u);
    EXPECT_NE(code, 0b010u);
  }
}

TEST(MappingTableTest, UnusedCodesHonorsLimit) {
  const auto table = MappingTable::Create(4, {0});
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->UnusedCodes(3).size(), 3u);
}

TEST(MappingTableTest, DefaultTableHasCodeZeroFree) {
  MappingTable table;
  ExpectFreeCodesMatchScan(table, "default");
  EXPECT_TRUE(table.AddValue(0, 0).ok());
  ExpectFreeCodesMatchScan(table, "after add");
}

TEST(MappingTableTest, FreeCodesMatchScanUnderRandomUpdates) {
  // Random initial codes, then random AddValue (free, taken and reserved
  // codes) and ExpandWidth steps; the free-range bookkeeping must agree
  // with a scan of the code space after every step.
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed);
    const int width = 1 + static_cast<int>(rng.UniformInt(5));  // 1..5.
    const uint64_t space = uint64_t{1} << width;
    std::vector<uint64_t> all(space);
    for (uint64_t c = 0; c < space; ++c) {
      all[c] = c;
    }
    rng.Shuffle(&all);
    size_t next = 0;
    std::optional<uint64_t> void_code;
    std::optional<uint64_t> null_code;
    if (seed % 4 == 1 || seed % 4 == 3) {
      void_code = all[next++];
    }
    if ((seed % 4 == 2 || seed % 4 == 3) && next < space) {
      null_code = all[next++];
    }
    const size_t initial = rng.UniformInt(space - next + 1);
    std::vector<uint64_t> codes(all.begin() + static_cast<std::ptrdiff_t>(next),
                                all.begin() + static_cast<std::ptrdiff_t>(
                                                  next + initial));
    auto table = MappingTable::Create(width, codes, void_code, null_code);
    ASSERT_TRUE(table.ok()) << "seed=" << seed;
    const std::string base = "seed=" + std::to_string(seed);
    ExpectFreeCodesMatchScan(*table, base + " create");

    for (int step = 0; step < 40 && table->width() <= 9; ++step) {
      const std::string context = base + " step=" + std::to_string(step);
      const uint64_t roll = rng.UniformInt(10);
      if (roll == 0) {
        ASSERT_TRUE(
            table->ExpandWidth(table->width() + static_cast<int>(
                                                    rng.UniformInt(2)))
                .ok());
      } else {
        const uint64_t code =
            roll < 4 && table->FirstFreeCode().has_value()
                ? *table->FirstFreeCode()
                : rng.UniformInt(uint64_t{1} << table->width());
        const bool was_free = table->ValueOfCode(code) == std::nullopt &&
                              code != void_code && code != null_code;
        const ValueId id = static_cast<ValueId>(table->NumValues());
        EXPECT_EQ(table->AddValue(id, code).ok(), was_free) << context;
      }
      ExpectFreeCodesMatchScan(*table, context);
    }
  }
}

TEST(MappingTableTest, FullCodeSpaceHasNoFreeCodes) {
  auto table = MappingTable::Create(2, {0b01, 0b11}, 0b00, 0b10);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->FirstFreeCode(), std::nullopt);
  EXPECT_TRUE(table->UnusedCodes(10).empty());
  EXPECT_TRUE(table->ExpandWidth(3).ok());
  ExpectFreeCodesMatchScan(*table, "expanded");
}

TEST(MappingTableTest, WidestCodeSpaceFreeTail) {
  auto table = MappingTable::Create(64, {0, 2, ~uint64_t{0}});
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->FirstFreeCode(), std::optional<uint64_t>(1));
  EXPECT_EQ(table->UnusedCodes(3), (std::vector<uint64_t>{1, 3, 4}));
  EXPECT_TRUE(table->AddValue(3, 1).ok());
  EXPECT_EQ(table->FirstFreeCode(), std::optional<uint64_t>(3));
}

TEST(MappingTableTest, CodeOfUnknownValueFails) {
  const auto table = MappingTable::Create(2, {0b00});
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->CodeOf(9).status().code(), StatusCode::kNotFound);
}

TEST(MappingTableTest, ReduceSelectionSelectsExactlyTheIds) {
  // 1,000 values in an 18-bit code space leave more free codewords than
  // kMaxDontCareTerms, so the don't-care set is the capped prefix.
  constexpr int kWidth = 18;
  std::vector<uint64_t> codes;
  for (uint64_t c = 2; c < 1002; ++c) {
    codes.push_back(c);
  }
  const auto table = MappingTable::Create(kWidth, codes, 0, 1);
  ASSERT_TRUE(table.ok());
  ASSERT_GT((uint64_t{1} << kWidth) - table->NumCodes(), kMaxDontCareTerms);

  std::vector<ValueId> ids = {3, 17, 500, 999};
  for (ValueId id = 100; id < 400; ++id) {
    ids.push_back(id);
  }
  const auto cover = ReduceSelection(*table, ids, ReductionOptions());
  ASSERT_TRUE(cover.ok());
  std::vector<uint64_t> onset;
  for (ValueId id : ids) {
    onset.push_back(*table->CodeOf(id));
  }
  EXPECT_EQ(*cover,
            ReduceRetrievalFunction(onset, table->UnusedCodes(kMaxDontCareTerms),
                                    kWidth));
  const std::unordered_set<ValueId> selected(ids.begin(), ids.end());
  for (ValueId id = 0; id < codes.size(); ++id) {
    EXPECT_EQ(CoverCovers(*cover, codes[id]), selected.contains(id))
        << "id=" << id;
  }
  EXPECT_FALSE(CoverCovers(*cover, 0));  // void
  EXPECT_FALSE(CoverCovers(*cover, 1));  // NULL

  EXPECT_EQ(ReduceSelection(*table, {ValueId{5000}}, ReductionOptions())
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(MappingTableTest, ToStringShowsBits) {
  const auto table = MappingTable::Create(2, {0b10});
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->ToString(), "v0 -> 10\n");
}

}  // namespace
}  // namespace ebi
