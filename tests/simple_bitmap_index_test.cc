#include "index/simple_bitmap_index.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace ebi {
namespace {

using testing_util::IntTable;
using testing_util::RandomIntTable;
using testing_util::ScanEquals;
using testing_util::ScanRange;

class SimpleBitmapIndexTest : public ::testing::Test {
 protected:
  void Init(std::unique_ptr<Table> table) {
    table_ = std::move(table);
    index_ = std::make_unique<SimpleBitmapIndex>(
        &table_->column(0), &table_->existence(), &io_);
    ASSERT_TRUE(index_->Build().ok());
  }

  IoAccountant io_;
  std::unique_ptr<Table> table_;
  std::unique_ptr<SimpleBitmapIndex> index_;
};

TEST_F(SimpleBitmapIndexTest, OneVectorPerDistinctValue) {
  Init(IntTable({1, 2, 3, 1, 2, 1}));
  EXPECT_EQ(index_->NumVectors(), 3u);
  EXPECT_EQ(index_->Name(), "simple-bitmap");
}

TEST_F(SimpleBitmapIndexTest, EqualsMatchesScan) {
  Init(IntTable({5, 7, 5, 9, 7, 5}));
  const auto result = index_->EvaluateEquals(Value::Int(5));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, ScanEquals(*table_, table_->column(0), 5));
}

TEST_F(SimpleBitmapIndexTest, EqualsOnUnknownValueIsEmpty) {
  Init(IntTable({1, 2}));
  const auto result = index_->EvaluateEquals(Value::Int(42));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->IsZero());
}

TEST_F(SimpleBitmapIndexTest, InReadsOneVectorPerValuePlusExistence) {
  Init(IntTable({0, 1, 2, 3, 4, 5, 6, 7}));
  io_.Reset();
  const auto result = index_->EvaluateIn(
      {Value::Int(1), Value::Int(3), Value::Int(5)});
  ASSERT_TRUE(result.ok());
  // c_s = δ = 3, plus the mandatory existence AND (Section 3.1 /
  // Theorem 2.1 contrast).
  EXPECT_EQ(io_.stats().vectors_read, 4u);
  EXPECT_EQ(result->Count(), 3u);
}

TEST_F(SimpleBitmapIndexTest, RangeReadsDeltaVectors) {
  Init(IntTable({0, 1, 2, 3, 4, 5, 6, 7, 2, 3}));
  io_.Reset();
  const auto result = index_->EvaluateRange(2, 5);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(io_.stats().vectors_read, 5u);  // δ=4 + existence.
  EXPECT_EQ(*result, ScanRange(*table_, table_->column(0), 2, 5));
}

TEST_F(SimpleBitmapIndexTest, DeletedRowsAreMaskedOut) {
  Init(IntTable({1, 1, 1}));
  ASSERT_TRUE(table_->DeleteRow(1).ok());
  const auto result = index_->EvaluateEquals(Value::Int(1));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ToString(), "101");
}

TEST_F(SimpleBitmapIndexTest, NullVectorAnswersIsNull) {
  Init(IntTable({1, INT64_MIN, 2, INT64_MIN}));
  const auto nulls = index_->EvaluateIsNull();
  ASSERT_TRUE(nulls.ok());
  EXPECT_EQ(nulls->ToString(), "0101");
  // NULLs never match equality.
  const auto eq = index_->EvaluateEquals(Value::Int(1));
  ASSERT_TRUE(eq.ok());
  EXPECT_EQ(eq->ToString(), "1000");
}

TEST_F(SimpleBitmapIndexTest, AppendExistingValue) {
  Init(IntTable({1, 2}));
  ASSERT_TRUE(table_->AppendRow({Value::Int(2)}).ok());
  ASSERT_TRUE(index_->Append(2).ok());
  const auto result = index_->EvaluateEquals(Value::Int(2));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ToString(), "011");
}

TEST_F(SimpleBitmapIndexTest, AppendNewValueGrowsVectors) {
  Init(IntTable({1, 2}));
  ASSERT_TRUE(table_->AppendRow({Value::Int(99)}).ok());
  ASSERT_TRUE(index_->Append(2).ok());
  EXPECT_EQ(index_->NumVectors(), 3u);
  const auto result = index_->EvaluateEquals(Value::Int(99));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ToString(), "001");
}

TEST_F(SimpleBitmapIndexTest, AppendOutOfOrderRejected) {
  Init(IntTable({1}));
  EXPECT_EQ(index_->Append(5).code(), StatusCode::kInvalidArgument);
}

TEST_F(SimpleBitmapIndexTest, SparsityApproachesTheory) {
  // (m-1)/m sparsity on a balanced column (Section 2.1).
  Init(IntTable({0, 1, 2, 3, 0, 1, 2, 3}));
  EXPECT_DOUBLE_EQ(index_->AverageSparsity(), 0.75);
}

TEST_F(SimpleBitmapIndexTest, SizeGrowsLinearlyWithCardinality) {
  auto small = RandomIntTable(512, 4, 1);
  auto big = RandomIntTable(512, 64, 2);
  IoAccountant io;
  SimpleBitmapIndex small_idx(&small->column(0), &small->existence(), &io);
  SimpleBitmapIndex big_idx(&big->column(0), &big->existence(), &io);
  ASSERT_TRUE(small_idx.Build().ok());
  ASSERT_TRUE(big_idx.Build().ok());
  // 16x the cardinality => ~16x the bits.
  EXPECT_GT(big_idx.SizeBytes(), 10 * small_idx.SizeBytes());
}

TEST_F(SimpleBitmapIndexTest, RangeOnStringColumnRejected) {
  auto table = std::make_unique<Table>("T");
  ASSERT_TRUE(table->AddColumn("s", Column::Type::kString).ok());
  ASSERT_TRUE(table->AppendRow({Value::Str("x")}).ok());
  table_ = std::move(table);
  index_ = std::make_unique<SimpleBitmapIndex>(
      &table_->column(0), &table_->existence(), &io_);
  ASSERT_TRUE(index_->Build().ok());
  EXPECT_EQ(index_->EvaluateRange(0, 1).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ebi
