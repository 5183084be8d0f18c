#include "query/executor.h"

#include <gtest/gtest.h>

#include "index/encoded_bitmap_index.h"
#include "index/simple_bitmap_index.h"
#include "test_util.h"

namespace ebi {
namespace {

std::unique_ptr<Table> TwoColumnTable() {
  auto table = std::make_unique<Table>("SALES");
  EXPECT_TRUE(table->AddColumn("product", Column::Type::kInt64).ok());
  EXPECT_TRUE(table->AddColumn("region", Column::Type::kInt64).ok());
  const int64_t rows[][2] = {{1, 0}, {2, 1}, {1, 1}, {3, 0},
                             {2, 0}, {1, 2}, {3, 1}, {2, 2}};
  for (const auto& r : rows) {
    EXPECT_TRUE(table->AppendRow({Value::Int(r[0]), Value::Int(r[1])}).ok());
  }
  return table;
}

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = TwoColumnTable();
    product_index_ = std::make_unique<EncodedBitmapIndex>(
        &table_->column(0), &table_->existence(), &io_);
    region_index_ = std::make_unique<EncodedBitmapIndex>(
        &table_->column(1), &table_->existence(), &io_);
    ASSERT_TRUE(product_index_->Build().ok());
    ASSERT_TRUE(region_index_->Build().ok());
    executor_ = std::make_unique<SelectionExecutor>(table_.get(), &io_);
    executor_->RegisterIndex("product", product_index_.get());
    executor_->RegisterIndex("region", region_index_.get());
  }

  IoAccountant io_;
  std::unique_ptr<Table> table_;
  std::unique_ptr<EncodedBitmapIndex> product_index_;
  std::unique_ptr<EncodedBitmapIndex> region_index_;
  std::unique_ptr<SelectionExecutor> executor_;
};

TEST_F(ExecutorTest, SinglePredicate) {
  const auto result = executor_->Select({Predicate::Eq("product", Value::Int(1))});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.ToString(), "10100100");
  EXPECT_EQ(result->count, 3u);
}

TEST_F(ExecutorTest, ConjunctionAndsBitmaps) {
  // Section 2.1's cooperativity: product = 1 AND region = 1.
  const auto result =
      executor_->Select({Predicate::Eq("product", Value::Int(1)),
                         Predicate::Eq("region", Value::Int(1))});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.ToString(), "00100000");
  EXPECT_EQ(result->count, 1u);
}

TEST_F(ExecutorTest, ConjunctionMatchesScan) {
  const std::vector<Predicate> query = {
      Predicate::In("product", {Value::Int(1), Value::Int(2)}),
      Predicate::Between("region", 0, 1)};
  const auto indexed = executor_->Select(query);
  const auto scanned = executor_->SelectByScan(query);
  ASSERT_TRUE(indexed.ok());
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(indexed->rows, *scanned);
}

TEST_F(ExecutorTest, EmptyConjunctionSelectsAllExisting) {
  ASSERT_TRUE(table_->DeleteRow(3).ok());
  ASSERT_TRUE(product_index_->MarkDeleted(3).ok());
  ASSERT_TRUE(region_index_->MarkDeleted(3).ok());
  const auto result = executor_->Select({});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 7u);
}

TEST_F(ExecutorTest, MissingIndexRejected) {
  const auto result =
      executor_->Select({Predicate::Eq("nope", Value::Int(1))});
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(ExecutorTest, IoDeltaReported) {
  const auto result =
      executor_->Select({Predicate::Eq("product", Value::Int(1))});
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->io.vectors_read, 0u);
  const auto second =
      executor_->Select({Predicate::Eq("product", Value::Int(2))});
  ASSERT_TRUE(second.ok());
  // Each selection reports only its own delta.
  EXPECT_EQ(second->io.vectors_read, result->io.vectors_read);
}

TEST_F(ExecutorTest, IsNullPredicate) {
  ASSERT_TRUE(table_->AppendRow({Value::Null(), Value::Int(0)}).ok());
  // Rebuild the product index so the NULL codeword exists.
  product_index_ = std::make_unique<EncodedBitmapIndex>(
      &table_->column(0), &table_->existence(), &io_);
  ASSERT_TRUE(product_index_->Build().ok());
  region_index_ = std::make_unique<EncodedBitmapIndex>(
      &table_->column(1), &table_->existence(), &io_);
  ASSERT_TRUE(region_index_->Build().ok());
  executor_ = std::make_unique<SelectionExecutor>(table_.get(), &io_);
  executor_->RegisterIndex("product", product_index_.get());
  executor_->RegisterIndex("region", region_index_.get());

  const auto result = executor_->Select({Predicate::IsNull("product")});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 1u);
  EXPECT_TRUE(result->rows.Get(8));
}

TEST_F(ExecutorTest, DnfCrossColumnOr) {
  // product = 1 OR region = 0.
  const std::vector<std::vector<Predicate>> dnf = {
      {Predicate::Eq("product", Value::Int(1))},
      {Predicate::Eq("region", Value::Int(0))}};
  const auto result = executor_->SelectDnf(dnf);
  ASSERT_TRUE(result.ok());
  // product=1: rows 0,2,5; region=0: rows 0,3,4 -> union {0,2,3,4,5}.
  EXPECT_EQ(result->rows.ToString(), "10111100");
  const auto scanned = executor_->SelectDnfByScan(dnf);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(result->rows, *scanned);
}

TEST_F(ExecutorTest, DnfOfConjunctions) {
  // (product = 1 AND region = 1) OR (product = 2 AND region = 2).
  const std::vector<std::vector<Predicate>> dnf = {
      {Predicate::Eq("product", Value::Int(1)),
       Predicate::Eq("region", Value::Int(1))},
      {Predicate::Eq("product", Value::Int(2)),
       Predicate::Eq("region", Value::Int(2))}};
  const auto result = executor_->SelectDnf(dnf);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.ToString(), "00100001");
  EXPECT_EQ(result->count, 2u);
}

TEST_F(ExecutorTest, EmptyDnfIsFalse) {
  const auto result = executor_->SelectDnf({});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 0u);
}

TEST_F(ExecutorTest, DnfIoAccumulatesAcrossBranches) {
  const std::vector<std::vector<Predicate>> dnf = {
      {Predicate::Eq("product", Value::Int(1))},
      {Predicate::Eq("product", Value::Int(2))}};
  const auto result = executor_->SelectDnf(dnf);
  ASSERT_TRUE(result.ok());
  const auto single =
      executor_->Select({Predicate::Eq("product", Value::Int(1))});
  ASSERT_TRUE(single.ok());
  EXPECT_GE(result->io.vectors_read, 2 * single->io.vectors_read);
}

TEST_F(ExecutorTest, PredicateToString) {
  EXPECT_EQ(Predicate::Eq("a", Value::Int(3)).ToString(), "a = 3");
  EXPECT_EQ(Predicate::In("a", {Value::Int(1), Value::Int(2)}).ToString(),
            "a IN {1, 2}");
  EXPECT_EQ(Predicate::Between("a", 2, 5).ToString(), "2 <= a <= 5");
  EXPECT_EQ(Predicate::IsNull("a").ToString(), "a IS NULL");
}

TEST_F(ExecutorTest, PredicateWidth) {
  const Column& product = table_->column(0);
  EXPECT_EQ(Predicate::Eq("product", Value::Int(1)).Width(product), 1u);
  EXPECT_EQ(
      Predicate::In("product", {Value::Int(1), Value::Int(2)}).Width(product),
      2u);
  EXPECT_EQ(Predicate::Between("product", 1, 3).Width(product), 3u);
}

// ---------------------------------------------------------------------------
// Several candidates on one column: each predicate is answered by the index
// Choose prices cheapest; a lone candidate is used without pricing.

using testing_util::RandomIntTable;

/// A simple bitmap index that counts how often it is asked to price a
/// selection.
class CountingIndex : public SimpleBitmapIndex {
 public:
  using SimpleBitmapIndex::SimpleBitmapIndex;

  double EstimatePages(const SelectionShape& shape) const override {
    ++estimates;
    return SimpleBitmapIndex::EstimatePages(shape);
  }

  mutable size_t estimates = 0;
};

std::vector<Value> FirstValues(int64_t count) {
  std::vector<Value> values;
  for (int64_t v = 0; v < count; ++v) {
    values.push_back(Value::Int(v));
  }
  return values;
}

TEST(ExecutorPlanningTest, EachPredicateUsesItsCheapestCandidate) {
  auto table = RandomIntTable(4000, 200, 13);
  IoAccountant io;
  SimpleBitmapIndex simple(&table->column(0), &table->existence(), &io);
  EncodedBitmapIndex encoded(&table->column(0), &table->existence(), &io);
  ASSERT_TRUE(simple.Build().ok());
  ASSERT_TRUE(encoded.Build().ok());
  SelectionExecutor both(table.get(), &io);
  both.RegisterIndex("a", &simple);
  both.RegisterIndex("a", &encoded);
  SelectionExecutor simple_only(table.get(), &io);
  simple_only.RegisterIndex("a", &simple);
  SelectionExecutor encoded_only(table.get(), &io);
  encoded_only.RegisterIndex("a", &encoded);

  const Predicate point = Predicate::Eq("a", Value::Int(5));
  const Predicate wide = Predicate::In("a", FirstValues(40));
  const auto simple_point = simple_only.Select({point});
  const auto encoded_point = encoded_only.Select({point});
  const auto simple_wide = simple_only.Select({wide});
  const auto encoded_wide = encoded_only.Select({wide});
  ASSERT_TRUE(simple_point.ok() && encoded_point.ok());
  ASSERT_TRUE(simple_wide.ok() && encoded_wide.ok());
  // Section 3.1: simple bitmaps win the point, encoded ones the wide IN.
  ASSERT_LT(simple_point->io.vectors_read, encoded_point->io.vectors_read);
  ASSERT_LT(encoded_wide->io.vectors_read, simple_wide->io.vectors_read);

  const auto planned_point = both.Select({point});
  ASSERT_TRUE(planned_point.ok());
  EXPECT_EQ(planned_point->io.vectors_read, simple_point->io.vectors_read);
  const auto scanned_point = both.SelectByScan({point});
  ASSERT_TRUE(scanned_point.ok());
  EXPECT_EQ(planned_point->rows, *scanned_point);

  const auto planned_wide = both.Select({wide});
  ASSERT_TRUE(planned_wide.ok());
  EXPECT_EQ(planned_wide->io.vectors_read, encoded_wide->io.vectors_read);
  const auto scanned_wide = both.SelectByScan({wide});
  ASSERT_TRUE(scanned_wide.ok());
  EXPECT_EQ(planned_wide->rows, *scanned_wide);
}

TEST(ExecutorPlanningTest, OnlyColumnsWithSeveralCandidatesArePriced) {
  auto table = RandomIntTable(1000, 50, 7);
  IoAccountant io;
  CountingIndex counting(&table->column(0), &table->existence(), &io);
  EncodedBitmapIndex encoded(&table->column(0), &table->existence(), &io);
  ASSERT_TRUE(counting.Build().ok());
  ASSERT_TRUE(encoded.Build().ok());
  const std::vector<Predicate> queries = {
      Predicate::Eq("a", Value::Int(3)), Predicate::In("a", FirstValues(9)),
      Predicate::Between("a", 10, 30), Predicate::NotIn("a", FirstValues(4))};

  SelectionExecutor alone(table.get(), &io);
  alone.RegisterIndex("a", &counting);
  for (const Predicate& p : queries) {
    ASSERT_TRUE(alone.Select({p}).ok()) << p.ToString();
  }
  EXPECT_EQ(counting.estimates, 0u);

  SelectionExecutor both(table.get(), &io);
  both.RegisterIndex("a", &counting);
  both.RegisterIndex("a", &encoded);
  for (const Predicate& p : queries) {
    ASSERT_TRUE(both.Select({p}).ok()) << p.ToString();
  }
  EXPECT_GE(counting.estimates, 1u);
}

}  // namespace
}  // namespace ebi
