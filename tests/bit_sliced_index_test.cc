#include "index/bit_sliced_index.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "query/aggregates.h"
#include "test_util.h"

namespace ebi {
namespace {

using testing_util::IntTable;
using testing_util::RandomIntTable;
using testing_util::ScanEquals;
using testing_util::ScanRange;

class BitSlicedIndexTest : public ::testing::Test {
 protected:
  void Init(std::unique_ptr<Table> table) {
    table_ = std::move(table);
    index_ = std::make_unique<BitSlicedIndex>(&table_->column(0),
                                              &table_->existence(), &io_);
    ASSERT_TRUE(index_->Build().ok());
  }

  IoAccountant io_;
  std::unique_ptr<Table> table_;
  std::unique_ptr<BitSlicedIndex> index_;
};

TEST_F(BitSlicedIndexTest, SliceCountIsValueRangeBits) {
  Init(IntTable({0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(index_->NumVectors(), 3u);
  EXPECT_EQ(index_->bias(), 0);
}

TEST_F(BitSlicedIndexTest, BiasHandlesArbitraryRanges) {
  Init(IntTable({100, 101, 102, 103}));
  EXPECT_EQ(index_->bias(), 100);
  EXPECT_EQ(index_->NumVectors(), 2u);
}

TEST_F(BitSlicedIndexTest, NegativeValues) {
  Init(IntTable({-5, -3, 0, 4}));
  EXPECT_EQ(index_->bias(), -5);
  const auto result = index_->EvaluateRange(-4, 1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, ScanRange(*table_, table_->column(0), -4, 1));
}

TEST_F(BitSlicedIndexTest, EqualsMatchesScan) {
  Init(IntTable({9, 4, 6, 2, 8, 0, 3, 7, 5, 1, 4, 4}));
  for (int64_t v = -1; v <= 10; ++v) {
    const auto result = index_->EvaluateEquals(Value::Int(v));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(*result, ScanEquals(*table_, table_->column(0), v)) << v;
  }
}

TEST_F(BitSlicedIndexTest, RangeMatchesScanExhaustively) {
  Init(IntTable({9, 4, 6, 2, 8, 0, 3, 7, 5, 1}));
  for (int64_t lo = -2; lo <= 10; ++lo) {
    for (int64_t hi = lo; hi <= 11; ++hi) {
      const auto result = index_->EvaluateRange(lo, hi);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(*result, ScanRange(*table_, table_->column(0), lo, hi))
          << lo << ".." << hi;
    }
  }
}

TEST_F(BitSlicedIndexTest, EmptyRangeIsEmpty) {
  Init(IntTable({1, 2, 3}));
  const auto result = index_->EvaluateRange(5, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->IsZero());
}

TEST_F(BitSlicedIndexTest, RangeReadsAtMostAllSlicesTwice) {
  // The slice-arithmetic algorithm runs two LessOrEqual passes: cost is
  // bounded by 2k + 1 reads however wide the range — the "wide range
  // searches" strength of bit-sliced indexes.
  Init(IntTable({0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}));
  const size_t k = index_->NumVectors();
  io_.Reset();
  ASSERT_TRUE(index_->EvaluateRange(5, 95).ok());
  EXPECT_LE(io_.stats().vectors_read, 2 * k + 1);
}

TEST_F(BitSlicedIndexTest, DeletedRowsExcluded) {
  Init(IntTable({5, 5, 5}));
  ASSERT_TRUE(table_->DeleteRow(1).ok());
  const auto result = index_->EvaluateEquals(Value::Int(5));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ToString(), "101");
}

TEST_F(BitSlicedIndexTest, NullsExcluded) {
  Init(IntTable({3, INT64_MIN, 3}));
  const auto result = index_->EvaluateRange(0, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ToString(), "101");
}

TEST_F(BitSlicedIndexTest, NullsShareBiasPatternButAreMasked) {
  // A NULL cell's slices read as bias_+0; ensure value==bias rows are not
  // confused with NULL rows.
  Init(IntTable({7, INT64_MIN, 7, 9}));
  const auto result = index_->EvaluateEquals(Value::Int(7));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ToString(), "1010");
}

TEST_F(BitSlicedIndexTest, SumOnSlices) {
  Init(IntTable({1, 2, 3, 4, 5}));
  BitVector all(5, true);
  const auto sum = index_->Sum(all);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, 15);
  BitVector some(5);
  some.Set(1);
  some.Set(3);
  EXPECT_EQ(*index_->Sum(some), 6);
}

TEST_F(BitSlicedIndexTest, SumWithBias) {
  Init(IntTable({100, 200, 300}));
  BitVector all(3, true);
  EXPECT_EQ(*index_->Sum(all), 600);
}

TEST_F(BitSlicedIndexTest, SumSizeMismatchRejected) {
  Init(IntTable({1, 2}));
  EXPECT_EQ(index_->Sum(BitVector(5)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(BitSlicedIndexTest, MinMaxOnSlices) {
  Init(IntTable({42, 7, 99, 13, 56}));
  BitVector all(5, true);
  EXPECT_EQ(*index_->Min(all), 7);
  EXPECT_EQ(*index_->Max(all), 99);
  BitVector some(5);
  some.Set(0);
  some.Set(3);
  EXPECT_EQ(*index_->Min(some), 13);
  EXPECT_EQ(*index_->Max(some), 42);
}

TEST_F(BitSlicedIndexTest, MinMaxWithNegativeBias) {
  Init(IntTable({-10, 5, -3}));
  BitVector all(3, true);
  EXPECT_EQ(*index_->Min(all), -10);
  EXPECT_EQ(*index_->Max(all), 5);
}

TEST_F(BitSlicedIndexTest, MinMaxEmptySelectionRejected) {
  Init(IntTable({1, 2}));
  EXPECT_EQ(index_->Min(BitVector(2)).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(index_->Max(BitVector(2)).status().code(),
            StatusCode::kNotFound);
}

TEST_F(BitSlicedIndexTest, QuantileMatchesSortedRank) {
  Init(IntTable({10, 20, 30, 40, 50, 60, 70, 80, 90, 100}));
  BitVector all(10, true);
  EXPECT_EQ(*index_->Quantile(all, 0.5), 50);   // 5th smallest.
  EXPECT_EQ(*index_->Quantile(all, 0.1), 10);   // 1st.
  EXPECT_EQ(*index_->Quantile(all, 1.0), 100);  // 10th.
  EXPECT_EQ(*index_->Quantile(all, 0.25), 30);  // ceil(2.5) = 3rd.
}

TEST_F(BitSlicedIndexTest, QuantileWithDuplicates) {
  Init(IntTable({5, 5, 5, 9, 9}));
  BitVector all(5, true);
  EXPECT_EQ(*index_->Quantile(all, 0.5), 5);
  EXPECT_EQ(*index_->Quantile(all, 0.8), 9);
}

TEST_F(BitSlicedIndexTest, QuantileValidation) {
  Init(IntTable({1, 2, 3}));
  BitVector all(3, true);
  EXPECT_EQ(index_->Quantile(all, 0.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(index_->Quantile(all, 1.5).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(index_->Quantile(BitVector(3), 0.5).status().code(),
            StatusCode::kNotFound);
}

TEST_F(BitSlicedIndexTest, QuantileRandomizedAgainstSort) {
  for (uint64_t seed = 0; seed < 3; ++seed) {
    auto table = RandomIntTable(301, 500, seed);
    IoAccountant io;
    BitSlicedIndex index(&table->column(0), &table->existence(), &io);
    ASSERT_TRUE(index.Build().ok());
    std::vector<int64_t> sorted;
    for (size_t r = 0; r < table->NumRows(); ++r) {
      sorted.push_back(table->column(0).ValueAt(r).int_value);
    }
    std::sort(sorted.begin(), sorted.end());
    BitVector all(table->NumRows(), true);
    for (double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
      size_t rank = static_cast<size_t>(q * sorted.size());
      if (static_cast<double>(rank) < q * sorted.size()) {
        ++rank;
      }
      EXPECT_EQ(*index.Quantile(all, q), sorted[rank - 1])
          << "seed=" << seed << " q=" << q;
    }
  }
}

TEST_F(BitSlicedIndexTest, AppendWithinRange) {
  Init(IntTable({0, 5, 9}));
  ASSERT_TRUE(table_->AppendRow({Value::Int(7)}).ok());
  ASSERT_TRUE(index_->Append(3).ok());
  const auto result = index_->EvaluateEquals(Value::Int(7));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ToString(), "0001");
}

TEST_F(BitSlicedIndexTest, AppendGrowsSlicesUpward) {
  Init(IntTable({0, 1, 2, 3}));
  EXPECT_EQ(index_->NumVectors(), 2u);
  ASSERT_TRUE(table_->AppendRow({Value::Int(200)}).ok());
  ASSERT_TRUE(index_->Append(4).ok());
  EXPECT_EQ(index_->NumVectors(), 8u);
  const auto result = index_->EvaluateEquals(Value::Int(200));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ToString(), "00001");
  // Old values unchanged.
  const auto old = index_->EvaluateEquals(Value::Int(2));
  ASSERT_TRUE(old.ok());
  EXPECT_EQ(old->ToString(), "00100");
}

TEST_F(BitSlicedIndexTest, AppendBelowBiasRejected) {
  Init(IntTable({10, 20}));
  ASSERT_TRUE(table_->AppendRow({Value::Int(1)}).ok());
  EXPECT_EQ(index_->Append(2).code(), StatusCode::kUnimplemented);
}

TEST_F(BitSlicedIndexTest, StringColumnRejected) {
  auto table = std::make_unique<Table>("T");
  ASSERT_TRUE(table->AddColumn("s", Column::Type::kString).ok());
  ASSERT_TRUE(table->AppendRow({Value::Str("x")}).ok());
  IoAccountant io;
  BitSlicedIndex index(&table->column(0), &table->existence(), &io);
  EXPECT_EQ(index.Build().code(), StatusCode::kInvalidArgument);
}

TEST_F(BitSlicedIndexTest, RandomizedRangeAgreement) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    auto table = RandomIntTable(400, 1000, seed, 0.05);
    IoAccountant io;
    BitSlicedIndex index(&table->column(0), &table->existence(), &io);
    ASSERT_TRUE(index.Build().ok());
    Rng rng(seed + 55);
    for (int q = 0; q < 15; ++q) {
      const int64_t lo = static_cast<int64_t>(rng.UniformInt(1000)) - 10;
      const int64_t hi = lo + static_cast<int64_t>(rng.UniformInt(300));
      const auto result = index.EvaluateRange(lo, hi);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(*result, ScanRange(*table, table->column(0), lo, hi))
          << "seed=" << seed;
    }
  }
}

TEST_F(BitSlicedIndexTest, AppendBatchMatchesScan) {
  // One batch of 200 rows: values inside the range, values that need
  // more slices, repeats and NULLs.
  Init(IntTable({40, 47, 55}));
  Rng rng(31);
  for (int r = 0; r < 200; ++r) {
    const Value v =
        rng.Bernoulli(0.05)
            ? Value::Null()
            : Value::Int(40 + static_cast<int64_t>(rng.UniformInt(600)));
    ASSERT_TRUE(table_->AppendRow({v}).ok());
  }
  ASSERT_TRUE(index_->AppendBatch(3, 200).ok());
  EXPECT_EQ(index_->bias(), 40);
  EXPECT_EQ(index_->NumVectors(), 10u);  // Codes below 600: ten bits.
  const Column& col = table_->column(0);
  for (const auto& [lo, hi] : std::vector<std::pair<int64_t, int64_t>>{
           {40, 40}, {41, 300}, {0, 1000}, {500, 639}, {47, 47}}) {
    const auto range = index_->EvaluateRange(lo, hi);
    ASSERT_TRUE(range.ok());
    EXPECT_EQ(*range, ScanRange(*table_, col, lo, hi)) << lo << ".." << hi;
    const auto sum = index_->Sum(*range);
    ASSERT_TRUE(sum.ok());
    EXPECT_EQ(*sum, *SumByScan(col, *range)) << lo << ".." << hi;
  }
  for (int64_t v : {40, 47, 55, 300, 639}) {
    const auto point = index_->EvaluateEquals(Value::Int(v));
    ASSERT_TRUE(point.ok());
    EXPECT_EQ(*point, ScanEquals(*table_, col, v)) << v;
  }
}

TEST_F(BitSlicedIndexTest, MarkDeletedRowsLeaveEveryAnswer) {
  Init(IntTable({5, 6, 7, 6}));
  ASSERT_TRUE(table_->DeleteRow(1).ok());
  ASSERT_TRUE(index_->MarkDeleted(1).ok());
  const auto point = index_->EvaluateEquals(Value::Int(6));
  ASSERT_TRUE(point.ok());
  EXPECT_EQ(point->ToString(), "0001");
  const auto in = index_->EvaluateIn({Value::Int(5), Value::Int(6)});
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(in->ToString(), "1001");
  const auto range = index_->EvaluateRange(5, 7);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->ToString(), "1011");
  EXPECT_EQ(*index_->Sum(*range), 18);
  EXPECT_EQ(index_->MarkDeleted(4).code(), StatusCode::kOutOfRange);
}

TEST_F(BitSlicedIndexTest, CloneTakesNewValuesAtTheirOwnCode) {
  // Codes 0, 2 and 5 leave code 1 free: a clone that handed the new value
  // 13 the first free code would read it back as 11.
  Init(IntTable({10, 12, 15}));
  Table copy = table_->Clone();
  auto cloned = index_->CloneRebound(&copy.column(0), &copy.existence(), &io_);
  ASSERT_TRUE(cloned.ok());
  auto* clone = dynamic_cast<BitSlicedIndex*>(cloned->get());
  ASSERT_NE(clone, nullptr);
  EXPECT_EQ(clone->Name(), "bit-sliced");
  EXPECT_EQ(clone->bias(), 10);

  ASSERT_TRUE(copy.AppendRow({Value::Int(13)}).ok());
  ASSERT_TRUE(copy.AppendRow({Value::Int(40)}).ok());  // Needs a slice.
  ASSERT_TRUE(clone->AppendBatch(3, 2).ok());
  EXPECT_EQ(clone->NumVectors(), 5u);
  EXPECT_EQ(index_->NumVectors(), 3u);  // The source is untouched.

  const BitVector all(5, true);
  EXPECT_EQ(*clone->Sum(all), 10 + 12 + 15 + 13 + 40);
  for (const auto& [lo, hi] : std::vector<std::pair<int64_t, int64_t>>{
           {13, 14}, {11, 13}, {13, 40}, {0, 100}}) {
    const auto range = clone->EvaluateRange(lo, hi);
    ASSERT_TRUE(range.ok());
    EXPECT_EQ(*range, ScanRange(copy, copy.column(0), lo, hi))
        << lo << ".." << hi;
  }

  // Below the bias the clone refuses, as a built index does.
  ASSERT_TRUE(copy.AppendRow({Value::Int(9)}).ok());
  EXPECT_EQ(clone->AppendBatch(5, 1).code(), StatusCode::kUnimplemented);
}

TEST_F(BitSlicedIndexTest, KeepsItsValueBinaryMapping) {
  // Sum, Min, Max, Quantile and the range comparator read codes as
  // values, so the index takes no other mapping, before or after Build.
  Init(IntTable({3, 8, 5}));
  auto mapping = MappingTable::Create(2, {0, 1, 2});
  ASSERT_TRUE(mapping.ok());
  EXPECT_EQ(index_->Reencode(*mapping).code(),
            StatusCode::kFailedPrecondition);
  BitSlicedIndex unbuilt(&table_->column(0), &table_->existence(), &io_);
  EXPECT_EQ(unbuilt.SetMapping(*mapping).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(*index_->Sum(BitVector(3, true)), 16);
}

}  // namespace
}  // namespace ebi
