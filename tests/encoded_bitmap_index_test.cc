#include "index/encoded_bitmap_index.h"

#include <gtest/gtest.h>

#include "index/dynamic_bitmap_index.h"
#include "test_util.h"
#include "util/bit_util.h"

namespace ebi {
namespace {

using testing_util::IntTable;
using testing_util::RandomIntTable;
using testing_util::ScanEquals;
using testing_util::ScanRange;

class EncodedBitmapIndexTest : public ::testing::Test {
 protected:
  void Init(std::unique_ptr<Table> table,
            EncodedBitmapIndexOptions options = {}) {
    table_ = std::move(table);
    index_ = std::make_unique<EncodedBitmapIndex>(
        &table_->column(0), &table_->existence(), &io_, options);
    ASSERT_TRUE(index_->Build().ok());
  }

  IoAccountant io_;
  std::unique_ptr<Table> table_;
  std::unique_ptr<EncodedBitmapIndex> index_;
};

TEST_F(EncodedBitmapIndexTest, LogarithmicVectorCount) {
  // Section 2.2's headline: ceil(log2 m) vectors instead of m. With the
  // void codeword reserved, 3 values need ceil(log2 4) = 2 vectors.
  Init(IntTable({10, 20, 30, 10}));
  EXPECT_EQ(index_->NumVectors(), 2u);
  EXPECT_EQ(index_->Name(), "encoded-bitmap");
}

TEST_F(EncodedBitmapIndexTest, TwelveThousandProductsNeedFourteenVectors) {
  // The motivating example: 12000 products -> 14 bitmap vectors. (Scaled
  // here: the arithmetic is in the mapping width, not the data size.)
  EncodedBitmapIndexOptions options;
  options.reserve_void_zero = false;
  auto table = RandomIntTable(2000, 1500, 5);
  // Not all 1500 values necessarily occur; check against the actual
  // cardinality.
  table_ = std::move(table);
  index_ = std::make_unique<EncodedBitmapIndex>(
      &table_->column(0), &table_->existence(), &io_, options);
  ASSERT_TRUE(index_->Build().ok());
  EXPECT_EQ(index_->NumVectors(),
            static_cast<size_t>(Log2Ceil(table_->column(0).Cardinality())));
}

TEST_F(EncodedBitmapIndexTest, EqualsMatchesScan) {
  Init(IntTable({5, 7, 5, 9, 7, 5, 11}));
  for (int64_t v : {5, 7, 9, 11, 404}) {
    const auto result = index_->EvaluateEquals(Value::Int(v));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(*result, ScanEquals(*table_, table_->column(0), v)) << v;
  }
}

TEST_F(EncodedBitmapIndexTest, InListMatchesScan) {
  Init(IntTable({0, 1, 2, 3, 4, 5, 0, 2, 4}));
  const auto result = index_->EvaluateIn(
      {Value::Int(0), Value::Int(2), Value::Int(5)});
  ASSERT_TRUE(result.ok());
  BitVector expected = ScanEquals(*table_, table_->column(0), 0);
  expected.OrWith(ScanEquals(*table_, table_->column(0), 2));
  expected.OrWith(ScanEquals(*table_, table_->column(0), 5));
  EXPECT_EQ(*result, expected);
}

TEST_F(EncodedBitmapIndexTest, RangeMatchesScan) {
  Init(IntTable({9, 4, 6, 2, 8, 0, 3, 7, 5, 1}));
  for (const auto& [lo, hi] : std::vector<std::pair<int64_t, int64_t>>{
           {0, 9}, {2, 5}, {7, 7}, {8, 3}, {-5, 100}}) {
    const auto result = index_->EvaluateRange(lo, hi);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(*result, ScanRange(*table_, table_->column(0), lo, hi))
        << lo << ".." << hi;
  }
}

/// A column of `values` distinct values, each on two rows.
std::vector<int64_t> TwoRowsPerValue(int64_t values) {
  std::vector<int64_t> out;
  out.reserve(static_cast<size_t>(2 * values));
  for (int64_t row = 0; row < 2 * values; ++row) {
    out.push_back(row % values);
  }
  return out;
}

TEST_F(EncodedBitmapIndexTest, EqualsOnWideColumnWithManyFreeCodes) {
  // 16,385 values plus the void codeword need k = 15, which leaves 16,382
  // free codewords: every point query reduces against that don't-care set.
  Init(IntTable(TwoRowsPerValue(16385)));
  ASSERT_EQ(index_->NumVectors(), 15u);
  for (int64_t v : {0, 1, 8191, 16384}) {
    const auto result = index_->EvaluateEquals(Value::Int(v));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(*result, ScanEquals(*table_, table_->column(0), v)) << v;
  }
}

TEST_F(EncodedBitmapIndexTest, WideRangeOnTwelveThousandValues) {
  // The paper's 12,000-product column (k = 14, 4,383 free codewords) with a
  // range over 4,000 values.
  Init(IntTable(TwoRowsPerValue(12000)));
  ASSERT_EQ(index_->NumVectors(), 14u);
  const auto result = index_->EvaluateRange(3000, 6999);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, ScanRange(*table_, table_->column(0), 3000, 6999));
}

TEST_F(EncodedBitmapIndexTest, ReductionBoundsVectorReads) {
  // δ = m/2 on a sequential encoding reads at most ceil(log2 m) vectors —
  // the paper's step-function bound, vs δ for simple bitmaps.
  Init(IntTable({0, 1, 2, 3, 4, 5, 6, 7}));
  io_.Reset();
  const auto result = index_->EvaluateRange(0, 3);  // Codes 1..4 of 1..8.
  ASSERT_TRUE(result.ok());
  EXPECT_LE(io_.stats().vectors_read,
            static_cast<uint64_t>(index_->NumVectors()));
  EXPECT_EQ(result->Count(), 4u);
}

TEST_F(EncodedBitmapIndexTest, WholeDomainSelectionReadsNoSlices) {
  // All m = 3 values selected in a 2-bit space without void reservation:
  // the unused codeword is a don't-care, the expression is a tautology,
  // and no slice is read — only the existence bitmap.
  EncodedBitmapIndexOptions options;
  options.reserve_void_zero = false;
  Init(IntTable({1, 2, 3}), options);
  io_.Reset();
  const auto result =
      index_->EvaluateIn({Value::Int(1), Value::Int(2), Value::Int(3)});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(io_.stats().vectors_read, 1u);  // Existence only.
  EXPECT_EQ(result->Count(), 3u);
}

TEST_F(EncodedBitmapIndexTest, AblationRawMinTermsReadAllVectors) {
  EncodedBitmapIndexOptions options;
  options.reduction.enable_reduction = false;
  Init(IntTable({0, 1, 2, 3, 4, 5, 6, 7}), options);
  io_.Reset();
  const auto result = index_->EvaluateRange(0, 3);
  ASSERT_TRUE(result.ok());
  // Without reduction every min-term references every vector.
  EXPECT_EQ(io_.stats().vectors_read,
            static_cast<uint64_t>(index_->NumVectors()));
  EXPECT_EQ(result->Count(), 4u);
}

TEST_F(EncodedBitmapIndexTest, Theorem21NoExistenceReadWithVoidZero) {
  // With void = 0 reserved, selections need no existence AND: deleting a
  // row re-encodes it to 0, and no retrieval function covers 0.
  Init(IntTable({1, 2, 1, 2}));
  ASSERT_TRUE(table_->DeleteRow(0).ok());
  ASSERT_TRUE(index_->MarkDeleted(0).ok());
  io_.Reset();
  const auto result = index_->EvaluateEquals(Value::Int(1));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ToString(), "0010");
  // Exactly the cover's vectors were read; existence (not a slice) was not
  // charged: with 2 slices the cover for a single value reads 2 vectors.
  EXPECT_LE(io_.stats().vectors_read, 2u);
}

TEST_F(EncodedBitmapIndexTest, NoVoidCodeFallsBackToExistenceAnd) {
  EncodedBitmapIndexOptions options;
  options.reserve_void_zero = false;
  Init(IntTable({1, 2, 1, 2}), options);
  ASSERT_TRUE(table_->DeleteRow(0).ok());
  ASSERT_TRUE(index_->MarkDeleted(0).ok());  // No-op without void code.
  io_.Reset();
  const auto result = index_->EvaluateEquals(Value::Int(1));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ToString(), "0010");
  // One extra vector read: the existence bitmap (Theorem 2.1's point).
  EXPECT_GE(io_.stats().vectors_read, 2u);
}

TEST_F(EncodedBitmapIndexTest, NullsGetTheirOwnCodeword) {
  Init(IntTable({1, INT64_MIN, 2, INT64_MIN, 1}));
  ASSERT_TRUE(index_->mapping().null_code().has_value());
  const auto nulls = index_->EvaluateIsNull();
  ASSERT_TRUE(nulls.ok());
  EXPECT_EQ(nulls->ToString(), "01010");
  // NULL rows never satisfy value selections.
  const auto eq = index_->EvaluateEquals(Value::Int(1));
  ASSERT_TRUE(eq.ok());
  EXPECT_EQ(eq->ToString(), "10001");
}

TEST_F(EncodedBitmapIndexTest, IsNullWithoutNullCodeFails) {
  Init(IntTable({1, 2}));
  EXPECT_EQ(index_->EvaluateIsNull().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(EncodedBitmapIndexTest, AppendKnownValueSetsKBits) {
  // Figure 2 intro: appending b writes its codeword, nothing else changes.
  Init(IntTable({1, 2, 3}));
  const size_t vectors_before = index_->NumVectors();
  ASSERT_TRUE(table_->AppendRow({Value::Int(2)}).ok());
  ASSERT_TRUE(index_->Append(3).ok());
  EXPECT_EQ(index_->NumVectors(), vectors_before);
  const auto result = index_->EvaluateEquals(Value::Int(2));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ToString(), "0101");
}

TEST_F(EncodedBitmapIndexTest, DomainExpansionWithoutNewVector) {
  // Figure 2(a): domain {a,b,c} (+void) in 2 bits is full; use 3 values
  // without void so a free codeword remains.
  EncodedBitmapIndexOptions options;
  options.reserve_void_zero = false;
  Init(IntTable({10, 20, 30}), options);
  EXPECT_EQ(index_->NumVectors(), 2u);
  ASSERT_TRUE(table_->AppendRow({Value::Int(40)}).ok());
  ASSERT_TRUE(index_->Append(3).ok());
  EXPECT_EQ(index_->NumVectors(), 2u);  // Equation (1) held.
  const auto result = index_->EvaluateEquals(Value::Int(40));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ToString(), "0001");
}

TEST_F(EncodedBitmapIndexTest, DomainExpansionAddsVector) {
  // Figure 2(b): the 5th value forces a new all-zero bitmap vector.
  EncodedBitmapIndexOptions options;
  options.reserve_void_zero = false;
  Init(IntTable({10, 20, 30, 40}), options);
  EXPECT_EQ(index_->NumVectors(), 2u);
  ASSERT_TRUE(table_->AppendRow({Value::Int(50)}).ok());
  ASSERT_TRUE(index_->Append(4).ok());
  EXPECT_EQ(index_->NumVectors(), 3u);
  // Old values must still be retrievable (functions revised by B2').
  for (int64_t v : {10, 20, 30, 40, 50}) {
    const auto result = index_->EvaluateEquals(Value::Int(v));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(*result, ScanEquals(*table_, table_->column(0), v)) << v;
  }
}

TEST_F(EncodedBitmapIndexTest, RepeatedExpansionStaysCorrect) {
  Init(IntTable({0}));
  for (int64_t v = 1; v < 40; ++v) {
    ASSERT_TRUE(table_->AppendRow({Value::Int(v)}).ok());
    ASSERT_TRUE(index_->Append(static_cast<size_t>(v)).ok());
  }
  EXPECT_EQ(index_->NumVectors(),
            static_cast<size_t>(Log2Ceil(41)));  // 40 values + void.
  for (int64_t v = 0; v < 40; v += 7) {
    const auto result = index_->EvaluateEquals(Value::Int(v));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(*result, ScanEquals(*table_, table_->column(0), v)) << v;
  }
}

TEST_F(EncodedBitmapIndexTest, CoverForInExposesReducedExpression) {
  Init(IntTable({0, 1, 2, 3, 4, 5, 6, 7}));
  const auto cover =
      index_->CoverForIn({Value::Int(0), Value::Int(1), Value::Int(2),
                          Value::Int(3)});
  ASSERT_TRUE(cover.ok());
  const auto cost = index_->AccessCostForIn(
      {Value::Int(0), Value::Int(1), Value::Int(2), Value::Int(3)});
  ASSERT_TRUE(cost.ok());
  EXPECT_EQ(DistinctVariables(*cover), *cost);
  EXPECT_LT(*cost, static_cast<int>(index_->NumVectors()) + 1);
}

TEST_F(EncodedBitmapIndexTest, CustomMappingIsUsed) {
  auto table = IntTable({7, 8, 9});
  auto mapping = MappingTable::Create(2, {0b01, 0b10, 0b11}, 0);
  ASSERT_TRUE(mapping.ok());
  table_ = std::move(table);
  index_ = std::make_unique<EncodedBitmapIndex>(
      &table_->column(0), &table_->existence(), &io_);
  ASSERT_TRUE(index_->SetMapping(std::move(mapping).value()).ok());
  ASSERT_TRUE(index_->Build().ok());
  EXPECT_EQ(*index_->mapping().CodeOf(0), 0b01u);
  const auto result = index_->EvaluateEquals(Value::Int(8));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ToString(), "010");
}

TEST_F(EncodedBitmapIndexTest, CustomMappingTooSmallRejected) {
  auto table = IntTable({7, 8, 9});
  auto mapping = MappingTable::Create(2, {0b01}, 0);
  ASSERT_TRUE(mapping.ok());
  table_ = std::move(table);
  index_ = std::make_unique<EncodedBitmapIndex>(
      &table_->column(0), &table_->existence(), &io_);
  ASSERT_TRUE(index_->SetMapping(std::move(mapping).value()).ok());
  EXPECT_EQ(index_->Build().code(), StatusCode::kFailedPrecondition);
}

TEST_F(EncodedBitmapIndexTest, SparsityIsAboutOneHalf) {
  // Section 3.1: encoded bitmap sparsity ~ 1/2, independent of m.
  auto table = RandomIntTable(4000, 200, 6);
  table_ = std::move(table);
  EncodedBitmapIndexOptions options;
  options.reserve_void_zero = false;
  index_ = std::make_unique<EncodedBitmapIndex>(
      &table_->column(0), &table_->existence(), &io_, options);
  ASSERT_TRUE(index_->Build().ok());
  double total_density = 0.0;
  for (const BitVector& slice : index_->slices()) {
    total_density += 1.0 - slice.Sparsity();
  }
  const double avg = total_density / index_->slices().size();
  EXPECT_GT(avg, 0.35);
  EXPECT_LT(avg, 0.65);
}

TEST_F(EncodedBitmapIndexTest, RandomizedAgreementWithScan) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    auto table = RandomIntTable(300, 37, seed, /*null_fraction=*/0.1);
    IoAccountant io;
    EncodedBitmapIndex index(&table->column(0), &table->existence(), &io);
    ASSERT_TRUE(index.Build().ok());
    Rng rng(seed + 100);
    for (int q = 0; q < 10; ++q) {
      const int64_t lo = static_cast<int64_t>(rng.UniformInt(37));
      const int64_t hi = lo + static_cast<int64_t>(rng.UniformInt(10));
      const auto result = index.EvaluateRange(lo, hi);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(*result, ScanRange(*table, table->column(0), lo, hi))
          << "seed=" << seed << " range " << lo << ".." << hi;
    }
  }
}

TEST_F(EncodedBitmapIndexTest, GrayAndRandomStrategiesStayCorrect) {
  for (const EncodingStrategy strategy :
       {EncodingStrategy::kGray, EncodingStrategy::kRandom,
        EncodingStrategy::kSequential}) {
    EncodedBitmapIndexOptions options;
    options.strategy = strategy;
    auto table = RandomIntTable(200, 25, 11);
    IoAccountant io;
    EncodedBitmapIndex index(&table->column(0), &table->existence(), &io,
                             options);
    ASSERT_TRUE(index.Build().ok());
    for (int64_t v = 0; v < 25; v += 3) {
      const auto result = index.EvaluateEquals(Value::Int(v));
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(*result, ScanEquals(*table, table->column(0), v));
    }
  }
}

TEST_F(EncodedBitmapIndexTest, TrainedEncodingReducesPredicateCost) {
  // Train on the Figure 3 selections and verify they cost one vector.
  EncodedBitmapIndexOptions options;
  options.strategy = EncodingStrategy::kAnnealed;
  options.reserve_void_zero = false;
  options.training_predicates = {{0, 1, 2, 3}, {2, 3, 4, 5}};
  options.optimizer.iterations = 2500;
  Init(IntTable({0, 1, 2, 3, 4, 5, 6, 7}), options);
  const auto cost = index_->AccessCostForIn(
      {Value::Int(0), Value::Int(1), Value::Int(2), Value::Int(3)});
  ASSERT_TRUE(cost.ok());
  EXPECT_EQ(*cost, 1);
}

TEST_F(EncodedBitmapIndexTest, AppendExpandDeleteSequenceStaysCorrect) {
  Init(IntTable({1, 2, 3, 1}));
  // Append of a known value, then a domain expansion, then a delete.
  ASSERT_TRUE(table_->AppendRow({Value::Int(2)}).ok());
  ASSERT_TRUE(index_->Append(4).ok());
  ASSERT_TRUE(table_->AppendRow({Value::Int(9)}).ok());
  ASSERT_TRUE(index_->Append(5).ok());
  ASSERT_TRUE(table_->DeleteRow(0).ok());
  ASSERT_TRUE(index_->MarkDeleted(0).ok());
  const auto one = index_->EvaluateEquals(Value::Int(1));
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->ToString(), "000100");
  const auto two = index_->EvaluateEquals(Value::Int(2));
  ASSERT_TRUE(two.ok());
  EXPECT_EQ(two->ToString(), "010010");
  const auto nine = index_->EvaluateEquals(Value::Int(9));
  ASSERT_TRUE(nine.ok());
  EXPECT_EQ(nine->ToString(), "000001");
}

TEST_F(EncodedBitmapIndexTest, AppendBeforeBuildRejected) {
  auto table = IntTable({1});
  IoAccountant io;
  EncodedBitmapIndex index(&table->column(0), &table->existence(), &io);
  EXPECT_EQ(index.Append(0).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(index.EvaluateEquals(Value::Int(1)).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(EncodedBitmapIndexTest, LargeUnalignedBatchMatchesAFreshBuild) {
  // 1,000 rows end mid-word; one batch of 3,000 rows crosses several
  // 16-word chunks of the slice writer and brings values 40..69 in
  // ValueId order, growing the width from 6 to 7, so a fresh Build of
  // all 4,000 rows assigns the same codes.
  auto random = RandomIntTable(4000, 40, 5);
  std::vector<int64_t> values;
  for (size_t row = 0; row < 4000; ++row) {
    values.push_back(row >= 1000 && row < 1030
                         ? static_cast<int64_t>(40 + row - 1000)
                         : random->column(0).ValueAt(row).int_value);
  }
  Init(IntTable(std::vector<int64_t>(values.begin(), values.begin() + 1000)));
  ASSERT_EQ(index_->NumVectors(), 6u);
  for (size_t row = 1000; row < values.size(); ++row) {
    ASSERT_TRUE(table_->AppendRow({Value::Int(values[row])}).ok());
  }
  ASSERT_TRUE(index_->AppendBatch(1000, 3000).ok());
  ASSERT_EQ(index_->NumVectors(), 7u);
  auto rebuilt_table = IntTable(values);
  IoAccountant io;
  EncodedBitmapIndex rebuilt(&rebuilt_table->column(0),
                             &rebuilt_table->existence(), &io);
  ASSERT_TRUE(rebuilt.Build().ok());
  EXPECT_EQ(index_->mapping().ToString(), rebuilt.mapping().ToString());
  EXPECT_EQ(index_->slices(), rebuilt.slices());
}

TEST(DynamicBitmapCloneTest, CloneReboundKeepsThePresetAndAppends) {
  auto table = IntTable({1, 2, 3, 1});
  IoAccountant io;
  DynamicBitmapIndex index(&table->column(0), &table->existence(), &io);
  ASSERT_TRUE(index.Build().ok());
  IoAccountant clone_io;
  auto clone = index.CloneRebound(&table->column(0), &table->existence(),
                                  &clone_io);
  ASSERT_TRUE(clone.ok()) << clone.status().ToString();
  EXPECT_EQ((*clone)->Name(), "dynamic-bitmap");
  EXPECT_EQ((*clone)->NumVectors(), index.NumVectors());
  // Values 1, 2, 3 hold codes 0..2 of width 2: 7 takes code 3, and 8
  // grows the clone (only) to width 3.
  for (const int64_t v : {7, 8, 2}) {
    ASSERT_TRUE(table->AppendRow({Value::Int(v)}).ok());
  }
  ASSERT_TRUE((*clone)->AppendBatch(4, 3).ok());
  EXPECT_EQ((*clone)->NumVectors(), index.NumVectors() + 1);
  ASSERT_TRUE(table->DeleteRow(1).ok());
  // No void codeword: the existence AND drops the deleted row.
  for (const int64_t v : {1, 2, 3, 7, 8}) {
    const auto result = (*clone)->EvaluateEquals(Value::Int(v));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(*result, ScanEquals(*table, table->column(0), v)) << v;
  }
}

}  // namespace
}  // namespace ebi
