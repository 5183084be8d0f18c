#include "query/executor.h"

#include <gtest/gtest.h>

#include "index/bit_sliced_index.h"
#include "index/encoded_bitmap_index.h"
#include "index/simple_bitmap_index.h"
#include "test_util.h"
#include "workload/generator.h"

namespace ebi {
namespace {

using testing_util::RandomIntTable;

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = RandomIntTable(4000, 200, 13);
    const Column* col = &table_->column(0);
    const BitVector* ex = &table_->existence();
    simple_ = std::make_unique<SimpleBitmapIndex>(col, ex, &io_);
    encoded_ = std::make_unique<EncodedBitmapIndex>(col, ex, &io_);
    sliced_ = std::make_unique<BitSlicedIndex>(col, ex, &io_);
    ASSERT_TRUE(simple_->Build().ok());
    ASSERT_TRUE(encoded_->Build().ok());
    ASSERT_TRUE(sliced_->Build().ok());
    planner_ = std::make_unique<SelectionExecutor>(table_.get(), &io_);
    planner_->RegisterIndex("a", simple_.get());
    planner_->RegisterIndex("a", encoded_.get());
    planner_->RegisterIndex("a", sliced_.get());
  }

  IoAccountant io_;
  std::unique_ptr<Table> table_;
  std::unique_ptr<SimpleBitmapIndex> simple_;
  std::unique_ptr<EncodedBitmapIndex> encoded_;
  std::unique_ptr<BitSlicedIndex> sliced_;
  std::unique_ptr<SelectionExecutor> planner_;
};

TEST_F(PlannerTest, PointQueriesPreferSimpleBitmaps) {
  // Section 3.1: "for single value selection, simple bitmap indexing
  // performs better" — 2 vectors vs ceil(log2 m).
  const auto path = planner_->Choose(Predicate::Eq("a", Value::Int(5)));
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path->index, simple_.get());
  EXPECT_EQ(path->delta, 1u);
}

TEST_F(PlannerTest, WideInListsPreferEncodedBitmaps) {
  // δ = 40 >> log2(200): encoded wins.
  std::vector<Value> values;
  for (int64_t v = 0; v < 40; ++v) {
    values.push_back(Value::Int(v));
  }
  const auto path = planner_->Choose(Predicate::In("a", values));
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path->index, encoded_.get());
  EXPECT_EQ(path->delta, 40u);
}

TEST_F(PlannerTest, CrossoverNearLog2M) {
  // Sweep δ: below log2(m)+1 simple must win, far above encoded must win.
  const int k = 8;  // ceil(log2 201) with the void codeword.
  std::vector<Value> small_list = {Value::Int(0), Value::Int(1)};
  const auto small = planner_->Choose(Predicate::In("a", small_list));
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small->index, simple_.get());

  std::vector<Value> big_list;
  for (int64_t v = 0; v < 3 * k; ++v) {
    big_list.push_back(Value::Int(v));
  }
  const auto big = planner_->Choose(Predicate::In("a", big_list));
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(big->index, encoded_.get());
}

TEST_F(PlannerTest, RangeShapeComputesDelta) {
  const auto shape = planner_->ShapeOf(Predicate::Between("a", 10, 29));
  ASSERT_TRUE(shape.ok());
  EXPECT_EQ(shape->kind, SelectionShape::Kind::kRange);
  // Roughly 20 distinct values exist in [10, 29] on this dense column.
  EXPECT_GE(shape->delta, 15u);
  EXPECT_LE(shape->delta, 20u);
}

TEST_F(PlannerTest, SelectExecutesChosenPaths) {
  std::vector<AccessPath> paths;
  const auto result = planner_->Select(
      {Predicate::Eq("a", Value::Int(3)), Predicate::Between("a", 0, 99)},
      &paths);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0].index, simple_.get());
  // Result equals the scan reference.
  SelectionExecutor reference(table_.get(), &io_);
  const auto scanned = reference.SelectByScan(
      {Predicate::Eq("a", Value::Int(3)), Predicate::Between("a", 0, 99)});
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(result->rows, *scanned);
}

TEST_F(PlannerTest, PlannedBeatsSingleIndexOnMixedConjunction) {
  // A point predicate and a wide range: the planner mixes simple (point)
  // and encoded/sliced (range); measure that the planned I/O is no worse
  // than forcing everything through the simple index.
  const std::vector<Predicate> query = {
      Predicate::Eq("a", Value::Int(7)), Predicate::Between("a", 0, 150)};
  io_.Reset();
  const auto planned = planner_->Select(query);
  ASSERT_TRUE(planned.ok());
  const uint64_t planned_vectors = planned->io.vectors_read;

  SelectionExecutor simple_only(table_.get(), &io_);
  simple_only.RegisterIndex("a", simple_.get());
  io_.Reset();
  const auto forced = simple_only.Select(query);
  ASSERT_TRUE(forced.ok());
  EXPECT_EQ(planned->rows, forced->rows);
  EXPECT_LT(planned_vectors, forced->io.vectors_read);
}

TEST_F(PlannerTest, IsNullRoutesOnlyToCapableIndexes) {
  // A table with NULLs: the bit-sliced index cannot answer IS NULL, the
  // simple and encoded ones can; the planner must never pick the sliced
  // one for that predicate.
  auto table = RandomIntTable(500, 30, 99, /*null_fraction=*/0.2);
  IoAccountant io;
  BitSlicedIndex sliced(&table->column(0), &table->existence(), &io);
  SimpleBitmapIndex simple(&table->column(0), &table->existence(), &io);
  ASSERT_TRUE(sliced.Build().ok());
  ASSERT_TRUE(simple.Build().ok());
  SelectionExecutor planner(table.get(), &io);
  planner.RegisterIndex("a", &sliced);
  const auto unroutable = planner.Choose(Predicate::IsNull("a"));
  EXPECT_EQ(unroutable.status().code(), StatusCode::kNotFound);
  planner.RegisterIndex("a", &simple);
  const auto routed = planner.Choose(Predicate::IsNull("a"));
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed->index, &simple);
  const auto result = planner.Select({Predicate::IsNull("a")});
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->count, 0u);
}

TEST_F(PlannerTest, MissingColumnRejected) {
  EXPECT_EQ(planner_->Choose(Predicate::Eq("zz", Value::Int(1)))
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(PlannerTest, EmptyConjunctionSelectsExisting) {
  const auto result = planner_->Select({});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, table_->NumRows());
}

}  // namespace
}  // namespace ebi
