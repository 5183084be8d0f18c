#include "obs/explain.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "index/encoded_bitmap_index.h"
#include "index/simple_bitmap_index.h"
#include "obs/json.h"
#include "query/executor.h"
#include "storage/table.h"

namespace ebi {
namespace {

using obs::AttrValue;
using obs::ExplainJson;
using obs::ExplainOptions;
using obs::ExplainText;
using obs::JsonValue;
using obs::QueryTrace;
using obs::ScopedSpan;
using obs::TraceScope;

/// A hand-built deterministic trace mirroring the span vocabulary the
/// query layer emits.
void BuildSampleTrace(QueryTrace* trace) {
  const TraceScope install(trace);
  ScopedSpan select("executor.select");
  {
    ScopedSpan pred("predicate");
    pred.Attr("column", "product");
    pred.Attr("pred", "product IN (1, 2)");
    {
      ScopedSpan eval("index.eval");
      eval.Attr("index", "encoded-bitmap");
      eval.Attr("delta", uint64_t{2});
      {
        ScopedSpan reduce("boolean.reduce");
        reduce.Attr("terms_in", uint64_t{2});
        reduce.Attr("terms_out", uint64_t{1});
      }
    }
    pred.Attr("rows", uint64_t{120});
  }
  select.Attr("predicates", uint64_t{1});
  select.Attr("rows", uint64_t{120});
}

TEST(ExplainTest, GoldenText) {
  QueryTrace trace;
  BuildSampleTrace(&trace);
  // Timing is off by default, so this rendering is fully deterministic.
  EXPECT_EQ(ExplainText(trace),
            "query\n"
            "  executor.select predicates=1 rows=120\n"
            "    predicate column=product pred=\"product IN (1, 2)\" "
            "rows=120\n"
            "      index.eval index=encoded-bitmap delta=2\n"
            "        boolean.reduce terms_in=2 terms_out=1\n");
}

TEST(ExplainTest, TextIndentIsConfigurable) {
  QueryTrace trace;
  BuildSampleTrace(&trace);
  ExplainOptions options;
  options.indent = 4;
  const std::string text = ExplainText(trace, options);
  EXPECT_NE(text.find("\n    executor.select"), std::string::npos);
  EXPECT_NE(text.find("\n        predicate"), std::string::npos);
}

TEST(ExplainTest, TimingLinesAppearOnRequest) {
  QueryTrace trace;
  BuildSampleTrace(&trace);
  EXPECT_EQ(ExplainText(trace).find("elapsed_ms"), std::string::npos);
  ExplainOptions options;
  options.include_timing = true;
  EXPECT_NE(ExplainText(trace, options).find("elapsed_ms="),
            std::string::npos);
}

TEST(ExplainTest, JsonRoundTripsTheTree) {
  QueryTrace trace;
  BuildSampleTrace(&trace);
  const std::string json = ExplainJson(trace);
  const Result<JsonValue> parsed = obs::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << json;
  const JsonValue& doc = parsed.value();

  ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);
  ASSERT_NE(doc.Find("name"), nullptr);
  EXPECT_EQ(doc.Find("name")->text, "query");
  const JsonValue* children = doc.Find("children");
  ASSERT_NE(children, nullptr);
  ASSERT_EQ(children->array.size(), 1u);

  const JsonValue& select = children->array[0];
  EXPECT_EQ(select.Find("name")->text, "executor.select");
  const JsonValue* select_attrs = select.Find("attrs");
  ASSERT_NE(select_attrs, nullptr);
  EXPECT_EQ(select_attrs->Find("rows")->Uint64(), 120u);

  const JsonValue& pred = select.Find("children")->array[0];
  EXPECT_EQ(pred.Find("name")->text, "predicate");
  // The quoted string survives escaping and un-escaping.
  EXPECT_EQ(pred.Find("attrs")->Find("pred")->text, "product IN (1, 2)");

  const JsonValue& eval = pred.Find("children")->array[0];
  EXPECT_EQ(eval.Find("name")->text, "index.eval");
  const JsonValue& reduce = eval.Find("children")->array[0];
  EXPECT_EQ(reduce.Find("name")->text, "boolean.reduce");
  EXPECT_EQ(reduce.Find("attrs")->Find("terms_in")->Uint64(), 2u);
  EXPECT_EQ(reduce.Find("attrs")->Find("terms_out")->Uint64(), 1u);
}

// ---------------------------------------------------------------------------
// End-to-end: EXPLAIN of a real multi-value selection on an encoded index
// must report the paper's costs — minterms before/after Boolean reduction
// and the vectors actually read, equal to the IoAccountant's delta.

std::unique_ptr<Table> RoundRobinTable(size_t n, size_t m) {
  auto table = std::make_unique<Table>("T");
  EXPECT_TRUE(table->AddColumn("a", Column::Type::kInt64).ok());
  for (size_t r = 0; r < n; ++r) {
    EXPECT_TRUE(
        table->AppendRow({Value::Int(static_cast<int64_t>(r % m))}).ok());
  }
  return table;
}

TEST(ExplainTest, EncodedSelectionReportsReductionAndVectorsRead) {
  const size_t m = 20;
  auto table = RoundRobinTable(2000, m);
  IoAccountant io;
  EncodedBitmapIndex encoded(&table->column(0), &table->existence(), &io);
  SimpleBitmapIndex simple(&table->column(0), &table->existence(), &io);
  ASSERT_TRUE(encoded.Build().ok());
  ASSERT_TRUE(simple.Build().ok());
  // Two candidates on the column, so the predicate is planned and the
  // plan renders its plan.choose step.
  SelectionExecutor planner(table.get(), &io);
  planner.RegisterIndex("a", &encoded);
  planner.RegisterIndex("a", &simple);

  // Consecutive IN-list of width 8 > log2(20): the encoded-bitmap sweet
  // spot, and wide enough that reduction must collapse minterms.
  std::vector<Value> values;
  for (int64_t v = 0; v < 8; ++v) {
    values.push_back(Value::Int(v));
  }

  QueryTrace trace;
  const IoScope scope(&io);
  const auto sel = planner.ExplainSelect({Predicate::In("a", values)}, &trace);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->count, 800u);  // 8 of 20 values, round-robin over 2000.
  const IoStats delta = scope.Delta();

  // Minterms before and after Boolean reduction.
  const obs::TraceSpan* reduce = trace.Find("boolean.reduce");
  ASSERT_NE(reduce, nullptr);
  EXPECT_EQ(reduce->AttrUint("terms_in"), 8u);
  const uint64_t terms_out = reduce->AttrUint("terms_out", 999);
  EXPECT_GE(terms_out, 1u);
  EXPECT_LT(terms_out, 8u);
  // The cover is drawn from the prime chart.
  EXPECT_GE(reduce->AttrUint("primes"), terms_out);

  // Vectors actually read by cover evaluation == the accountant's delta.
  const obs::TraceSpan* cover = trace.Find("cover.eval");
  ASSERT_NE(cover, nullptr);
  const uint64_t vectors_read = cover->AttrUint("vectors_read", 999);
  EXPECT_EQ(vectors_read, delta.vectors_read);
  EXPECT_EQ(vectors_read, sel->io.vectors_read);
  // Theorem 2.1: the reserved void codeword removes the existence AND.
  const AttrValue* existence = cover->FindAttr("existence_and");
  ASSERT_NE(existence, nullptr);
  EXPECT_FALSE(existence->bool_value());
  // And the encoded cost stays within the paper's ceiling ceil(log2 m).
  EXPECT_LE(vectors_read, 5u);

  // The whole story renders: every cost above appears in the text plan.
  const std::string text = ExplainText(trace);
  EXPECT_NE(text.find("executor.select"), std::string::npos);
  EXPECT_NE(text.find("plan.choose"), std::string::npos);
  EXPECT_NE(text.find("boolean.reduce"), std::string::npos);
  EXPECT_NE(text.find("terms_in=8"), std::string::npos);
  EXPECT_NE(text.find("vectors_read="), std::string::npos);
}

TEST(ExplainTest, ExplainSelectMatchesPlainSelectCosts) {
  // EXPLAIN ANALYZE must not perturb the measurement: the same query with
  // and without a trace sink charges identical I/O.
  auto table = RoundRobinTable(2000, 20);
  IoAccountant io;
  EncodedBitmapIndex encoded(&table->column(0), &table->existence(), &io);
  ASSERT_TRUE(encoded.Build().ok());
  SelectionExecutor planner(table.get(), &io);
  planner.RegisterIndex("a", &encoded);
  std::vector<Value> values;
  for (int64_t v = 3; v < 9; ++v) {
    values.push_back(Value::Int(v));
  }
  const std::vector<Predicate> query = {Predicate::In("a", values)};

  const auto plain = planner.Select(query);
  ASSERT_TRUE(plain.ok());
  QueryTrace trace;
  const auto traced = planner.ExplainSelect(query, &trace);
  ASSERT_TRUE(traced.ok());
  EXPECT_EQ(plain->count, traced->count);
  EXPECT_EQ(plain->io, traced->io);
}

}  // namespace
}  // namespace ebi
