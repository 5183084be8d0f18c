#include "query/maintenance.h"

#include <gtest/gtest.h>

#include "index/encoded_bitmap_index.h"
#include "index/simple_bitmap_index.h"
#include "test_util.h"

namespace ebi {
namespace {

using testing_util::IntTable;
using testing_util::ScanEquals;

class MaintenanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = IntTable({1, 2, 3});
    encoded_ = std::make_unique<EncodedBitmapIndex>(
        &table_->column(0), &table_->existence(), &io_);
    simple_ = std::make_unique<SimpleBitmapIndex>(
        &table_->column(0), &table_->existence(), &io_);
    ASSERT_TRUE(encoded_->Build().ok());
    ASSERT_TRUE(simple_->Build().ok());
    driver_ = std::make_unique<MaintenanceDriver>(table_.get());
    ASSERT_TRUE(driver_->AttachIndex(encoded_.get()).ok());
    ASSERT_TRUE(driver_->AttachIndex(simple_.get()).ok());
  }

  void ExpectAgreement(int64_t v) {
    const auto a = encoded_->EvaluateEquals(Value::Int(v));
    const auto b = simple_->EvaluateEquals(Value::Int(v));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b) << v;
    EXPECT_EQ(*a, ScanEquals(*table_, table_->column(0), v)) << v;
  }

  IoAccountant io_;
  std::unique_ptr<Table> table_;
  std::unique_ptr<EncodedBitmapIndex> encoded_;
  std::unique_ptr<SimpleBitmapIndex> simple_;
  std::unique_ptr<MaintenanceDriver> driver_;
};

TEST_F(MaintenanceTest, AppendPropagatesToAllIndexes) {
  ASSERT_TRUE(driver_->AppendRow({Value::Int(2)}).ok());
  EXPECT_EQ(table_->NumRows(), 4u);
  ExpectAgreement(2);
}

TEST_F(MaintenanceTest, AppendWithDomainExpansion) {
  ASSERT_TRUE(driver_->AppendRow({Value::Int(99)}).ok());
  ExpectAgreement(99);
  ExpectAgreement(1);
}

TEST_F(MaintenanceTest, ManyAppendsAcrossWidthBoundaries) {
  for (int64_t v = 4; v < 30; ++v) {
    ASSERT_TRUE(driver_->AppendRow({Value::Int(v % 11)}).ok());
  }
  for (int64_t v = 0; v <= 11; ++v) {
    ExpectAgreement(v);
  }
}

TEST_F(MaintenanceTest, DeletePropagates) {
  ASSERT_TRUE(driver_->DeleteRow(1).ok());
  EXPECT_FALSE(table_->RowExists(1));
  ExpectAgreement(2);  // Value of the deleted row no longer matches.
  const auto result = encoded_->EvaluateEquals(Value::Int(2));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->IsZero());
}

TEST_F(MaintenanceTest, DeleteThenAppendSameValue) {
  ASSERT_TRUE(driver_->DeleteRow(0).ok());
  ASSERT_TRUE(driver_->AppendRow({Value::Int(1)}).ok());
  const auto result = encoded_->EvaluateEquals(Value::Int(1));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ToString(), "0001");
}

TEST_F(MaintenanceTest, DeleteOutOfRangeRejected) {
  EXPECT_EQ(driver_->DeleteRow(99).code(), StatusCode::kOutOfRange);
}

TEST_F(MaintenanceTest, ArityErrorDoesNotCorruptIndexes) {
  EXPECT_FALSE(driver_->AppendRow({Value::Int(1), Value::Int(2)}).ok());
  EXPECT_EQ(table_->NumRows(), 3u);
  ExpectAgreement(1);
}

TEST_F(MaintenanceTest, NumIndexes) { EXPECT_EQ(driver_->NumIndexes(), 2u); }

TEST_F(MaintenanceTest, AttachNullIndexRejected) {
  EXPECT_EQ(driver_->AttachIndex(nullptr).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(driver_->NumIndexes(), 2u);
}

TEST_F(MaintenanceTest, AttachDuplicateIndexRejected) {
  EXPECT_EQ(driver_->AttachIndex(encoded_.get()).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(driver_->NumIndexes(), 2u);
  // The rejected duplicate must not double-append on the next row.
  ASSERT_TRUE(driver_->AppendRow({Value::Int(2)}).ok());
  ExpectAgreement(2);
}

TEST_F(MaintenanceTest, BatchedAppendMatchesPerRowResults) {
  std::vector<std::vector<Value>> batch;
  for (int64_t v = 4; v < 30; ++v) {
    batch.push_back({Value::Int(v % 11)});
  }
  ASSERT_TRUE(driver_->AppendRows(batch).ok());
  EXPECT_EQ(table_->NumRows(), 3u + batch.size());
  for (int64_t v = 0; v <= 11; ++v) {
    ExpectAgreement(v);
  }
}

TEST_F(MaintenanceTest, EmptyBatchIsANoOp) {
  ASSERT_TRUE(driver_->AppendRows({}).ok());
  EXPECT_EQ(table_->NumRows(), 3u);
  ExpectAgreement(1);
}

}  // namespace
}  // namespace ebi
