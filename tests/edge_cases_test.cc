// Edge-case sweep across modules: the error paths and odd shapes the
// mainline tests don't reach.

#include <gtest/gtest.h>

#include <sstream>

#include "ebi/ebi.h"
#include "test_util.h"

namespace ebi {
namespace {

using testing_util::IntTable;

TEST(EdgeCasesTest, PredicateWidthOnStringColumn) {
  Column c("s", Column::Type::kString);
  ASSERT_TRUE(c.AppendString("x").ok());
  // Ranges on string columns are meaningless: width 0.
  EXPECT_EQ(Predicate::Between("s", 0, 5).Width(c), 0u);
  EXPECT_EQ(Predicate::Eq("s", Value::Str("x")).Width(c), 1u);
}

TEST(EdgeCasesTest, ExecutorScanRejectsRangeOnStringColumn) {
  auto table = std::make_unique<Table>("T");
  ASSERT_TRUE(table->AddColumn("s", Column::Type::kString).ok());
  ASSERT_TRUE(table->AppendRow({Value::Str("a")}).ok());
  IoAccountant io;
  SelectionExecutor executor(table.get(), &io);
  EXPECT_FALSE(executor.SelectByScan({Predicate::Between("s", 0, 1)}).ok());
}

TEST(EdgeCasesTest, CsvCustomDelimiter) {
  std::stringstream in("a;b\n1;2\n");
  CsvOptions options;
  options.delimiter = ';';
  const auto table = LoadCsv(in, "T", options);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->column(1).ValueAt(0), Value::Int(2));
}

TEST(EdgeCasesTest, CsvCustomNullToken) {
  std::stringstream in("a\n1\n\\N\n");
  CsvOptions options;
  options.null_token = "\\N";
  const auto table = LoadCsv(in, "T", options);
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE((*table)->column(0).ValueAt(1).is_null());
}

TEST(EdgeCasesTest, RleFromRunsTrailingZeros) {
  const RleBitmap rle = RleBitmap::FromRuns({2, 1, 3});
  EXPECT_EQ(rle.size(), 6u);
  EXPECT_EQ(rle.Decompress().ToString(), "001000");
}

TEST(EdgeCasesTest, SingleRowIndexesAgree) {
  auto table = IntTable({42});
  IoAccountant io;
  SimpleBitmapIndex simple(&table->column(0), &table->existence(), &io);
  EncodedBitmapIndex encoded(&table->column(0), &table->existence(), &io);
  BTreeIndex btree(&table->column(0), &table->existence(), &io);
  ASSERT_TRUE(simple.Build().ok());
  ASSERT_TRUE(encoded.Build().ok());
  ASSERT_TRUE(btree.Build().ok());
  for (SecondaryIndex* index :
       std::vector<SecondaryIndex*>{&simple, &encoded, &btree}) {
    const auto hit = index->EvaluateEquals(Value::Int(42));
    ASSERT_TRUE(hit.ok()) << index->Name();
    EXPECT_EQ(hit->ToString(), "1") << index->Name();
    const auto miss = index->EvaluateEquals(Value::Int(41));
    ASSERT_TRUE(miss.ok()) << index->Name();
    EXPECT_TRUE(miss->IsZero()) << index->Name();
  }
}

TEST(EdgeCasesTest, AllRowsDeleted) {
  auto table = IntTable({1, 2, 3});
  IoAccountant io;
  EncodedBitmapIndex index(&table->column(0), &table->existence(), &io);
  ASSERT_TRUE(index.Build().ok());
  MaintenanceDriver driver(table.get());
  ASSERT_TRUE(driver.AttachIndex(&index).ok());
  for (size_t r = 0; r < 3; ++r) {
    ASSERT_TRUE(driver.DeleteRow(r).ok());
  }
  const auto result = index.EvaluateRange(0, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->IsZero());
  // Appending after total deletion still works.
  ASSERT_TRUE(driver.AppendRow({Value::Int(2)}).ok());
  const auto again = index.EvaluateEquals(Value::Int(2));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->ToString(), "0001");
}

TEST(EdgeCasesTest, EmptyInListIsEmptyResult) {
  auto table = IntTable({1, 2});
  IoAccountant io;
  EncodedBitmapIndex encoded(&table->column(0), &table->existence(), &io);
  SimpleBitmapIndex simple(&table->column(0), &table->existence(), &io);
  ASSERT_TRUE(encoded.Build().ok());
  ASSERT_TRUE(simple.Build().ok());
  const auto a = encoded.EvaluateIn({});
  const auto b = simple.EvaluateIn({});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->IsZero());
  EXPECT_TRUE(b->IsZero());
}

TEST(EdgeCasesTest, InListWithOnlyUnknownValues) {
  auto table = IntTable({1, 2});
  IoAccountant io;
  EncodedBitmapIndex index(&table->column(0), &table->existence(), &io);
  ASSERT_TRUE(index.Build().ok());
  const auto result =
      index.EvaluateIn({Value::Int(77), Value::Str("zz"), Value::Null()});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->IsZero());
}

TEST(EdgeCasesTest, ReencodeBeforeBuildRejected) {
  auto table = IntTable({1});
  IoAccountant io;
  EncodedBitmapIndex index(&table->column(0), &table->existence(), &io);
  auto mapping = MakeSequentialMapping(1);
  ASSERT_TRUE(mapping.ok());
  EXPECT_EQ(index.Reencode(std::move(mapping).value()).code(),
            StatusCode::kFailedPrecondition);
}

TEST(EdgeCasesTest, ColdIndexEmptyDomainRejected) {
  auto table = std::make_unique<Table>("T");
  ASSERT_TRUE(table->AddColumn("a", Column::Type::kInt64).ok());
  IoAccountant io;
  ColdEncodedBitmapIndexOptions options;
  options.directory = ::testing::TempDir();
  ColdEncodedBitmapIndex index(&table->column(0), &table->existence(), &io,
                               options);
  EXPECT_EQ(index.Build().code(), StatusCode::kFailedPrecondition);
}

TEST(EdgeCasesTest, GroupsetSingleColumnDegeneratesToPlainIndex) {
  auto table = IntTable({3, 1, 3, 2});
  IoAccountant io;
  GroupsetIndex index({&table->column(0)}, &table->existence(), &io);
  ASSERT_TRUE(index.Build().ok());
  const auto rows = index.GroupBitmap({Value::Int(3)});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->ToString(), "1010");
  EXPECT_EQ(*index.CountGroups(), 3u);
}

TEST(EdgeCasesTest, JoinIndexEmptyPredicateResult) {
  StarSchemaConfig config;
  config.fact_rows = 200;
  config.num_products = 20;
  auto schema = BuildStarSchema(config);
  ASSERT_TRUE(schema.ok());
  IoAccountant io;
  EncodedBitmapJoinIndex join(*(*schema)->sales->FindColumn("product"),
                              &(*schema)->sales->existence(),
                              (*schema)->products, "product_id", &io);
  ASSERT_TRUE(join.Build().ok());
  const auto rows =
      join.FactRowsWhere(Predicate::Eq("category", Value::Int(999)));
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->IsZero());
}

}  // namespace
}  // namespace ebi
