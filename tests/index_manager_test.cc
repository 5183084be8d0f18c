#include "query/index_manager.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace ebi {
namespace {

using testing_util::RandomIntTable;

class IndexManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = RandomIntTable(800, 60, 3);
    manager_ =
        std::make_unique<IndexManager>(table_.get(), &io_);
  }

  IoAccountant io_;
  std::unique_ptr<Table> table_;
  std::unique_ptr<IndexManager> manager_;
};

TEST_F(IndexManagerTest, KindNamesRoundTrip) {
  for (IndexKind kind :
       {IndexKind::kSimpleBitmap, IndexKind::kEncodedBitmap,
        IndexKind::kBitSliced, IndexKind::kBaseBitSliced,
        IndexKind::kProjection, IndexKind::kBTree, IndexKind::kValueList,
        IndexKind::kRangeBasedBitmap, IndexKind::kDynamicBitmap}) {
    const auto parsed = IndexKindFromName(IndexKindName(kind));
    ASSERT_TRUE(parsed.ok()) << IndexKindName(kind);
    EXPECT_EQ(*parsed, kind);
  }
  // "simple-ewah" named the retired compressed simple index.
  for (const char* unknown : {"nope", "simple-ewah"}) {
    EXPECT_EQ(IndexKindFromName(unknown).status().code(),
              StatusCode::kNotFound)
        << unknown;
  }
}

TEST_F(IndexManagerTest, CreateBuildsAndRegisters) {
  const auto index =
      manager_->CreateIndex("a", IndexKind::kEncodedBitmap);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(manager_->NumIndexes(), 1u);
  EXPECT_GT(manager_->TotalSizeBytes(), 0u);
  const auto result =
      manager_->Select({Predicate::Eq("a", Value::Int(5))});
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->count, 0u);
}

TEST_F(IndexManagerTest, DuplicateCreateRejected) {
  ASSERT_TRUE(manager_->CreateIndex("a", IndexKind::kBTree).ok());
  EXPECT_EQ(manager_->CreateIndex("a", IndexKind::kBTree).status().code(),
            StatusCode::kAlreadyExists);
  // A different kind on the same column is fine.
  EXPECT_TRUE(manager_->CreateIndex("a", IndexKind::kSimpleBitmap).ok());
}

TEST_F(IndexManagerTest, UnknownColumnRejected) {
  EXPECT_EQ(
      manager_->CreateIndex("zz", IndexKind::kSimpleBitmap).status().code(),
      StatusCode::kNotFound);
}

TEST_F(IndexManagerTest, PlannerPicksAmongManagedIndexes) {
  ASSERT_TRUE(manager_->CreateIndex("a", IndexKind::kSimpleBitmap).ok());
  ASSERT_TRUE(manager_->CreateIndex("a", IndexKind::kEncodedBitmap).ok());
  std::vector<AccessPath> paths;
  const auto point = manager_->Select(
      {Predicate::Eq("a", Value::Int(1))}, &paths);
  ASSERT_TRUE(point.ok());
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].index->Name(), "simple-bitmap");

  paths.clear();
  const auto range = manager_->Select(
      {Predicate::Between("a", 0, 50)}, &paths);
  ASSERT_TRUE(range.ok());
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].index->Name(), "encoded-bitmap");
}

TEST_F(IndexManagerTest, AppendsAndDeletesPropagate) {
  ASSERT_TRUE(manager_->CreateIndex("a", IndexKind::kEncodedBitmap).ok());
  ASSERT_TRUE(manager_->CreateIndex("a", IndexKind::kBTree).ok());
  ASSERT_TRUE(manager_->AppendRow({Value::Int(999)}).ok());  // New value.
  const auto result =
      manager_->Select({Predicate::Eq("a", Value::Int(999))});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 1u);
  ASSERT_TRUE(manager_->DeleteRow(table_->NumRows() - 1).ok());
  const auto after =
      manager_->Select({Predicate::Eq("a", Value::Int(999))});
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->count, 0u);
}

TEST_F(IndexManagerTest, DropUnregistersEverywhere) {
  ASSERT_TRUE(manager_->CreateIndex("a", IndexKind::kSimpleBitmap).ok());
  ASSERT_TRUE(manager_->CreateIndex("a", IndexKind::kEncodedBitmap).ok());
  ASSERT_TRUE(
      manager_->DropIndex("a", IndexKind::kSimpleBitmap).ok());
  EXPECT_EQ(manager_->NumIndexes(), 1u);
  EXPECT_EQ(manager_->IndexesOn("a").size(), 1u);
  // Point queries now route to the remaining encoded index.
  std::vector<AccessPath> paths;
  ASSERT_TRUE(
      manager_->Select({Predicate::Eq("a", Value::Int(1))}, &paths).ok());
  EXPECT_EQ(paths[0].index->Name(), "encoded-bitmap");
  // Appends still work after the rewire.
  EXPECT_TRUE(manager_->AppendRow({Value::Int(2)}).ok());
  EXPECT_EQ(manager_->DropIndex("a", IndexKind::kSimpleBitmap).code(),
            StatusCode::kNotFound);
}

TEST_F(IndexManagerTest, AllKindsBuildOnIntColumn) {
  for (IndexKind kind :
       {IndexKind::kSimpleBitmap, IndexKind::kEncodedBitmap,
        IndexKind::kBitSliced, IndexKind::kBaseBitSliced,
        IndexKind::kProjection, IndexKind::kBTree, IndexKind::kValueList,
        IndexKind::kRangeBasedBitmap, IndexKind::kDynamicBitmap}) {
    const auto index = manager_->CreateIndex("a", kind);
    ASSERT_TRUE(index.ok()) << IndexKindName(kind);
  }
  EXPECT_EQ(manager_->NumIndexes(), 9u);
  // All of them agree on a selection.
  const auto indexes = manager_->IndexesOn("a");
  const auto reference = indexes[0]->EvaluateEquals(Value::Int(7));
  ASSERT_TRUE(reference.ok());
  for (SecondaryIndex* index : indexes) {
    const auto result = index->EvaluateEquals(Value::Int(7));
    ASSERT_TRUE(result.ok()) << index->Name();
    EXPECT_EQ(*result, *reference) << index->Name();
  }
}

}  // namespace
}  // namespace ebi
