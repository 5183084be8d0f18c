// Negated predicates (!=, NOT IN) across the executor and the planner,
// with SQL NULL semantics: NULL rows satisfy neither side of a negation.

#include <gtest/gtest.h>

#include "ebi/ebi.h"
#include "index/btree_index.h"
#include "test_util.h"

namespace ebi {
namespace {

using testing_util::IntTable;
using testing_util::RandomIntTable;

class NegationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = IntTable({1, 2, INT64_MIN, 3, 2, 1});
    index_ = std::make_unique<EncodedBitmapIndex>(
        &table_->column(0), &table_->existence(), &io_);
    ASSERT_TRUE(index_->Build().ok());
    executor_ = std::make_unique<SelectionExecutor>(table_.get(), &io_);
    executor_->RegisterIndex("a", index_.get());
  }

  IoAccountant io_;
  std::unique_ptr<Table> table_;
  std::unique_ptr<EncodedBitmapIndex> index_;
  std::unique_ptr<SelectionExecutor> executor_;
};

TEST_F(NegationTest, NotEqualsExcludesNulls) {
  const auto result =
      executor_->Select({Predicate::NotEq("a", Value::Int(1))});
  ASSERT_TRUE(result.ok());
  // Rows: 1 2 NULL 3 2 1 — != 1 keeps {2,3,2}, never the NULL.
  EXPECT_EQ(result->rows.ToString(), "010110");
}

TEST_F(NegationTest, NotInExcludesNullsAndMatches) {
  const auto result = executor_->Select(
      {Predicate::NotIn("a", {Value::Int(1), Value::Int(3)})});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.ToString(), "010010");
}

TEST_F(NegationTest, NegationExcludesDeletedRows) {
  ASSERT_TRUE(table_->DeleteRow(1).ok());
  ASSERT_TRUE(index_->MarkDeleted(1).ok());
  const auto result =
      executor_->Select({Predicate::NotEq("a", Value::Int(1))});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.ToString(), "000110");
}

TEST_F(NegationTest, ScanAgreesWithIndex) {
  for (const Predicate& p :
       {Predicate::NotEq("a", Value::Int(2)),
        Predicate::NotIn("a", {Value::Int(1), Value::Int(2)}),
        Predicate::NotIn("a", {Value::Int(99)})}) {
    const auto indexed = executor_->Select({p});
    const auto scanned = executor_->SelectByScan({p});
    ASSERT_TRUE(indexed.ok()) << p.ToString();
    ASSERT_TRUE(scanned.ok()) << p.ToString();
    EXPECT_EQ(indexed->rows, *scanned) << p.ToString();
  }
}

TEST_F(NegationTest, ToStringAndPositive) {
  const Predicate ne = Predicate::NotEq("a", Value::Int(3));
  EXPECT_EQ(ne.ToString(), "a != 3");
  EXPECT_TRUE(ne.IsNegated());
  EXPECT_EQ(ne.Positive().kind, Predicate::Kind::kEquals);
  const Predicate ni = Predicate::NotIn("a", {Value::Int(1)});
  EXPECT_EQ(ni.ToString(), "a NOT IN {1}");
  EXPECT_EQ(ni.Positive().kind, Predicate::Kind::kIn);
  EXPECT_FALSE(Predicate::Eq("a", Value::Int(1)).IsNegated());
}

TEST_F(NegationTest, PlannerRoutesNegationsToo) {
  auto table = RandomIntTable(600, 40, 7, /*null_fraction=*/0.1);
  IoAccountant io;
  SimpleBitmapIndex simple(&table->column(0), &table->existence(), &io);
  EncodedBitmapIndex encoded(&table->column(0), &table->existence(), &io);
  ASSERT_TRUE(simple.Build().ok());
  ASSERT_TRUE(encoded.Build().ok());
  SelectionExecutor planner(table.get(), &io);
  planner.RegisterIndex("a", &simple);
  planner.RegisterIndex("a", &encoded);
  SelectionExecutor reference(table.get(), &io);

  for (const Predicate& p :
       {Predicate::NotEq("a", Value::Int(5)),
        Predicate::NotIn("a", {Value::Int(0), Value::Int(1),
                               Value::Int(2)})}) {
    const auto planned = planner.Select({p});
    const auto scanned = reference.SelectByScan({p});
    ASSERT_TRUE(planned.ok()) << p.ToString();
    ASSERT_TRUE(scanned.ok()) << p.ToString();
    EXPECT_EQ(planned->rows, *scanned) << p.ToString();
    EXPECT_GT(planned->count, 0u);
  }
}

TEST_F(NegationTest, ConjunctionWithNegation) {
  const auto result = executor_->Select(
      {Predicate::Between("a", 1, 3),
       Predicate::NotEq("a", Value::Int(2))});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.ToString(), "100101");
}

TEST_F(NegationTest, NullMaskFallbackForNullBlindIndexes) {
  // A B-tree has no NULL representation; negations through it must fall
  // back to the charged column scan and still honour SQL NULL semantics.
  auto table = IntTable({1, INT64_MIN, 2, 1});
  IoAccountant io;
  BTreeIndex btree(&table->column(0), &table->existence(), &io);
  ASSERT_TRUE(btree.Build().ok());
  SelectionExecutor executor(table.get(), &io);
  executor.RegisterIndex("a", &btree);
  io.Reset();
  const auto result =
      executor.Select({Predicate::NotEq("a", Value::Int(1))});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.ToString(), "0010");
  // The fallback scan was charged.
  EXPECT_GT(result->io.bytes_read, 0u);
}

TEST_F(NegationTest, NotInWithAllValuesIsEmptyExceptNothing) {
  const auto result = executor_->Select({Predicate::NotIn(
      "a", {Value::Int(1), Value::Int(2), Value::Int(3)})});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->rows.IsZero());
}

}  // namespace
}  // namespace ebi
