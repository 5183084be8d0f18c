#include "index/range_based_bitmap_index.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace ebi {
namespace {

using testing_util::IntTable;
using testing_util::RandomIntTable;
using testing_util::ScanEquals;
using testing_util::ScanRange;

class RangeBasedBitmapIndexTest : public ::testing::Test {
 protected:
  void Init(std::unique_ptr<Table> table,
            RangeBasedBitmapIndexOptions options = {}) {
    table_ = std::move(table);
    index_ = std::make_unique<RangeBasedBitmapIndex>(
        &table_->column(0), &table_->existence(), &io_, options);
    ASSERT_TRUE(index_->Build().ok());
  }

  IoAccountant io_;
  std::unique_ptr<Table> table_;
  std::unique_ptr<RangeBasedBitmapIndex> index_;
};

TEST_F(RangeBasedBitmapIndexTest, BucketBoundsAreIncreasing) {
  Init(RandomIntTable(1000, 500, 1));
  const auto& bounds = index_->bucket_lower_bounds();
  ASSERT_FALSE(bounds.empty());
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST_F(RangeBasedBitmapIndexTest, EqualPopulationUnderSkew) {
  // Zipf-like skew: bucket populations must stay within a reasonable
  // factor of each other (the [19] design goal).
  auto table = std::make_unique<Table>("T");
  ASSERT_TRUE(table->AddColumn("a", Column::Type::kInt64).ok());
  ZipfGenerator zipf(1000, 1.0, 9);
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(
        table->AppendRow({Value::Int(static_cast<int64_t>(zipf.Next()))})
            .ok());
  }
  RangeBasedBitmapIndexOptions options;
  options.num_buckets = 16;
  Init(std::move(table), options);
  // All rows land in some bucket.
  size_t total = 0;
  for (size_t b = 0; b < index_->NumVectors(); ++b) {
    const auto result =
        index_->EvaluateRange(index_->bucket_lower_bounds()[b],
                              b + 1 < index_->bucket_lower_bounds().size()
                                  ? index_->bucket_lower_bounds()[b + 1] - 1
                                  : 1000);
    ASSERT_TRUE(result.ok());
    total += result->Count();
  }
  EXPECT_EQ(total, 4000u);
}

TEST_F(RangeBasedBitmapIndexTest, RangeMatchesScan) {
  Init(RandomIntTable(800, 200, 2));
  for (const auto& [lo, hi] : std::vector<std::pair<int64_t, int64_t>>{
           {0, 199}, {13, 57}, {100, 100}, {150, 500}, {-10, 5}}) {
    const auto result = index_->EvaluateRange(lo, hi);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(*result, ScanRange(*table_, table_->column(0), lo, hi))
        << lo << ".." << hi;
  }
}

TEST_F(RangeBasedBitmapIndexTest, EqualsMatchesScan) {
  Init(RandomIntTable(400, 50, 3));
  for (int64_t v = 0; v < 50; v += 7) {
    const auto result = index_->EvaluateEquals(Value::Int(v));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(*result, ScanEquals(*table_, table_->column(0), v)) << v;
  }
}

TEST_F(RangeBasedBitmapIndexTest, BoundaryBucketsRequireCandidateChecks) {
  RangeBasedBitmapIndexOptions options;
  options.num_buckets = 4;
  Init(IntTable({0, 10, 20, 30, 40, 50, 60, 70}), options);
  // A range cutting through a bucket forces verification.
  const auto result = index_->EvaluateRange(15, 44);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(index_->last_candidates_checked(), 0u);
  EXPECT_EQ(*result, ScanRange(*table_, table_->column(0), 15, 44));
}

TEST_F(RangeBasedBitmapIndexTest, FullyCoveredBucketsSkipChecks) {
  RangeBasedBitmapIndexOptions options;
  options.num_buckets = 4;
  Init(IntTable({0, 1, 2, 3, 4, 5, 6, 7}), options);
  // Buckets are {0,1},{2,3},{4,5},{6,7}; [2,5] covers two whole buckets.
  const auto result = index_->EvaluateRange(2, 5);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(index_->last_candidates_checked(), 0u);
  EXPECT_EQ(result->Count(), 4u);
}

TEST_F(RangeBasedBitmapIndexTest, AppendKeepsBucketsCorrect) {
  Init(IntTable({0, 10, 20, 30}));
  ASSERT_TRUE(table_->AppendRow({Value::Int(15)}).ok());
  ASSERT_TRUE(index_->Append(4).ok());
  const auto result = index_->EvaluateRange(12, 22);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, ScanRange(*table_, table_->column(0), 12, 22));
}

TEST_F(RangeBasedBitmapIndexTest, DeletedRowsMasked) {
  Init(IntTable({5, 5, 5}));
  ASSERT_TRUE(table_->DeleteRow(1).ok());
  const auto result = index_->EvaluateEquals(Value::Int(5));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ToString(), "101");
}

TEST_F(RangeBasedBitmapIndexTest, StringColumnRejected) {
  auto table = std::make_unique<Table>("T");
  ASSERT_TRUE(table->AddColumn("s", Column::Type::kString).ok());
  ASSERT_TRUE(table->AppendRow({Value::Str("x")}).ok());
  IoAccountant io;
  RangeBasedBitmapIndex index(&table->column(0), &table->existence(), &io);
  EXPECT_EQ(index.Build().code(), StatusCode::kInvalidArgument);
}

TEST_F(RangeBasedBitmapIndexTest, NullsExcluded) {
  Init(IntTable({1, INT64_MIN, 3}));
  const auto result = index_->EvaluateRange(0, 5);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ToString(), "101");
}

TEST_F(RangeBasedBitmapIndexTest, MixedBucketRangesMatchScan) {
  auto table = RandomIntTable(1200, 300, 13);
  IoAccountant io;
  RangeBasedBitmapIndex index(&table->column(0), &table->existence(), &io);
  ASSERT_TRUE(index.Build().ok());
  // Ranges that mix fully covered and boundary buckets.
  for (const auto& [lo, hi] : std::vector<std::pair<int64_t, int64_t>>{
           {0, 299}, {10, 250}, {100, 101}, {290, 500}}) {
    const auto got = index.EvaluateRange(lo, hi);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, ScanRange(*table, table->column(0), lo, hi))
        << "[" << lo << "," << hi << "]";
  }
}

TEST_F(RangeBasedBitmapIndexTest, AppendIntoBoundaryBucketMatchesScan) {
  RangeBasedBitmapIndexOptions options;
  options.num_buckets = 4;
  Init(IntTable({10, 20, 30, 40, 50, 60, 70, 80}), options);
  ASSERT_TRUE(table_->AppendRow({Value::Int(35)}).ok());
  ASSERT_TRUE(index_->Append(8).ok());
  const auto result = index_->EvaluateRange(30, 45);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, ScanRange(*table_, table_->column(0), 30, 45));
}

}  // namespace
}  // namespace ebi
