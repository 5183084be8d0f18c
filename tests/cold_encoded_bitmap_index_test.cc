#include "index/cold_encoded_bitmap_index.h"

#include <gtest/gtest.h>

#include "index/encoded_bitmap_index.h"
#include "test_util.h"

namespace ebi {
namespace {

using testing_util::IntTable;
using testing_util::RandomIntTable;
using testing_util::ScanEquals;
using testing_util::ScanRange;

ColdEncodedBitmapIndexOptions TestOptions(size_t pool = 4) {
  ColdEncodedBitmapIndexOptions options;
  options.pool_pages = pool;
  options.directory = ::testing::TempDir();
  return options;
}

class ColdEncodedBitmapIndexTest : public ::testing::Test {
 protected:
  void Init(std::unique_ptr<Table> table, size_t pool = 4) {
    table_ = std::move(table);
    index_ = std::make_unique<ColdEncodedBitmapIndex>(
        &table_->column(0), &table_->existence(), &io_, TestOptions(pool));
    ASSERT_TRUE(index_->Build().ok());
  }

  IoAccountant io_;
  std::unique_ptr<Table> table_;
  std::unique_ptr<ColdEncodedBitmapIndex> index_;
};

TEST_F(ColdEncodedBitmapIndexTest, AnswersMatchScan) {
  Init(IntTable({5, 7, 5, 9, 7, 5, 11}));
  for (int64_t v : {5, 7, 9, 11, 404}) {
    const auto result = index_->EvaluateEquals(Value::Int(v));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(*result, ScanEquals(*table_, table_->column(0), v)) << v;
  }
}

TEST_F(ColdEncodedBitmapIndexTest, MatchesHotIndexOnRandomData) {
  auto table = RandomIntTable(400, 60, 31, 0.05);
  IoAccountant hot_io;
  IoAccountant cold_io;
  EncodedBitmapIndex hot(&table->column(0), &table->existence(), &hot_io);
  ColdEncodedBitmapIndex cold(&table->column(0), &table->existence(),
                              &cold_io, TestOptions());
  ASSERT_TRUE(hot.Build().ok());
  ASSERT_TRUE(cold.Build().ok());
  Rng rng(77);
  for (int q = 0; q < 15; ++q) {
    const int64_t lo = static_cast<int64_t>(rng.UniformInt(60));
    const int64_t hi = lo + static_cast<int64_t>(rng.UniformInt(20));
    const auto a = hot.EvaluateRange(lo, hi);
    const auto b = cold.EvaluateRange(lo, hi);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b) << lo << ".." << hi;
  }
}

TEST_F(ColdEncodedBitmapIndexTest, OnlyReferencedSlicesAreFaulted) {
  // Build-time Put()s warm the pool; drain it with a tiny pool so every
  // query read is observable.
  Init(IntTable({0, 1, 2, 3, 4, 5, 6, 7}), /*pool=*/1);
  index_->ResetStoreStats();
  io_.Reset();
  // {0..3} reduces to one variable (+dc) under the sequential mapping
  // shifted by void... measure simply: vector reads < total slices.
  const auto result = index_->EvaluateIn(
      {Value::Int(0), Value::Int(1), Value::Int(2), Value::Int(3)});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->Count(), 4u);
  EXPECT_LT(io_.stats().vectors_read,
            static_cast<uint64_t>(index_->NumVectors()));
}

TEST_F(ColdEncodedBitmapIndexTest, RepeatedQueriesHitThePool) {
  Init(RandomIntTable(300, 20, 41), /*pool=*/8);
  ASSERT_TRUE(index_->EvaluateEquals(Value::Int(3)).ok());
  index_->ResetStoreStats();
  io_.Reset();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(index_->EvaluateEquals(Value::Int(3)).ok());
  }
  // All slices stayed resident: no file reads charged.
  EXPECT_EQ(io_.stats().vectors_read, 0u);
  EXPECT_GT(index_->store_stats().hits, 0u);
  EXPECT_EQ(index_->store_stats().misses, 0u);
}

TEST_F(ColdEncodedBitmapIndexTest, TinyPoolForcesFaults) {
  Init(RandomIntTable(300, 200, 43), /*pool=*/1);
  ASSERT_TRUE(index_->EvaluateRange(0, 150).ok());
  index_->ResetStoreStats();
  io_.Reset();
  ASSERT_TRUE(index_->EvaluateRange(0, 150).ok());
  // More referenced slices than pool slots: some must fault and charge.
  EXPECT_GT(io_.stats().vectors_read, 0u);
  EXPECT_GT(index_->store_stats().misses, 0u);
}

TEST_F(ColdEncodedBitmapIndexTest, AppendsAndDeletes) {
  Init(IntTable({1, 2, 3}));
  ASSERT_TRUE(table_->AppendRow({Value::Int(2)}).ok());
  ASSERT_TRUE(index_->Append(3).ok());
  ASSERT_TRUE(table_->AppendRow({Value::Int(99)}).ok());  // New value.
  ASSERT_TRUE(index_->Append(4).ok());
  ASSERT_TRUE(table_->DeleteRow(1).ok());
  ASSERT_TRUE(index_->MarkDeleted(1).ok());
  const auto two = index_->EvaluateEquals(Value::Int(2));
  ASSERT_TRUE(two.ok());
  EXPECT_EQ(two->ToString(), "00010");
  const auto nn = index_->EvaluateEquals(Value::Int(99));
  ASSERT_TRUE(nn.ok());
  EXPECT_EQ(nn->ToString(), "00001");
}

TEST_F(ColdEncodedBitmapIndexTest, WidthExpansionThroughStore) {
  ColdEncodedBitmapIndexOptions options = TestOptions();
  auto table = IntTable({0});
  table_ = std::move(table);
  index_ = std::make_unique<ColdEncodedBitmapIndex>(
      &table_->column(0), &table_->existence(), &io_, options);
  ASSERT_TRUE(index_->Build().ok());
  for (int64_t v = 1; v < 20; ++v) {
    ASSERT_TRUE(table_->AppendRow({Value::Int(v)}).ok());
    ASSERT_TRUE(index_->Append(static_cast<size_t>(v)).ok());
  }
  for (int64_t v = 0; v < 20; v += 5) {
    const auto result = index_->EvaluateEquals(Value::Int(v));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(*result, ScanEquals(*table_, table_->column(0), v)) << v;
  }
}

}  // namespace
}  // namespace ebi
