#include "obs/explain.h"

#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "index/encoded_bitmap_index.h"
#include "index/simple_bitmap_index.h"
#include "query/planner.h"
#include "storage/table.h"

namespace ebi {
namespace {

using obs::AttrValue;
using obs::ExplainJson;
using obs::ExplainOptions;
using obs::ExplainText;
using obs::QueryTrace;
using obs::ScopedSpan;
using obs::TraceScope;

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON reader, just enough to round-trip the
// documents ExplainJson emits (objects, arrays, strings, numbers, bools).

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool b = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Get(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) {
        return &v;
      }
    }
    return nullptr;
  }
};

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    return ParseValue(out) && (SkipSpace(), pos_ == text_.size());
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) {
      return false;
    }
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              return false;
            }
            c = static_cast<char>(
                std::stoi(text_.substr(pos_, 4), nullptr, 16));
            pos_ += 4;
            break;
          }
          default: c = esc; break;
        }
      }
      *out += c;
    }
    return pos_ < text_.size() && text_[pos_++] == '"';
  }

  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) {
      return false;
    }
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->type = JsonValue::Type::kObject;
      if (Consume('}')) {
        return true;
      }
      do {
        std::string key;
        JsonValue value;
        if (!ParseString(&key) || !Consume(':') || !ParseValue(&value)) {
          return false;
        }
        out->object.emplace_back(std::move(key), std::move(value));
      } while (Consume(','));
      return Consume('}');
    }
    if (c == '[') {
      ++pos_;
      out->type = JsonValue::Type::kArray;
      if (Consume(']')) {
        return true;
      }
      do {
        JsonValue value;
        if (!ParseValue(&value)) {
          return false;
        }
        out->array.push_back(std::move(value));
      } while (Consume(','));
      return Consume(']');
    }
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return ParseString(&out->str);
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      out->type = JsonValue::Type::kBool;
      out->b = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out->type = JsonValue::Type::kBool;
      pos_ += 5;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return true;
    }
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      return false;
    }
    out->type = JsonValue::Type::kNumber;
    out->number = std::stod(text_.substr(start, pos_ - start));
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------

/// A hand-built deterministic trace mirroring the span vocabulary the
/// query layer emits.
void BuildSampleTrace(QueryTrace* trace) {
  const TraceScope install(trace);
  ScopedSpan select("planner.select");
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
            "  planner.select predicates=1 rows=120\n"
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
  EXPECT_NE(text.find("\n    planner.select"), std::string::npos);
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
  JsonValue doc;
  ASSERT_TRUE(JsonReader(json).Parse(&doc)) << json;

  ASSERT_EQ(doc.type, JsonValue::Type::kObject);
  ASSERT_NE(doc.Get("name"), nullptr);
  EXPECT_EQ(doc.Get("name")->str, "query");
  const JsonValue* children = doc.Get("children");
  ASSERT_NE(children, nullptr);
  ASSERT_EQ(children->array.size(), 1u);

  const JsonValue& select = children->array[0];
  EXPECT_EQ(select.Get("name")->str, "planner.select");
  const JsonValue* select_attrs = select.Get("attrs");
  ASSERT_NE(select_attrs, nullptr);
  EXPECT_EQ(select_attrs->Get("rows")->number, 120.0);

  const JsonValue& pred = select.Get("children")->array[0];
  EXPECT_EQ(pred.Get("name")->str, "predicate");
  // The quoted string survives escaping and un-escaping.
  EXPECT_EQ(pred.Get("attrs")->Get("pred")->str, "product IN (1, 2)");

  const JsonValue& eval = pred.Get("children")->array[0];
  EXPECT_EQ(eval.Get("name")->str, "index.eval");
  const JsonValue& reduce = eval.Get("children")->array[0];
  EXPECT_EQ(reduce.Get("name")->str, "boolean.reduce");
  EXPECT_EQ(reduce.Get("attrs")->Get("terms_in")->number, 2.0);
  EXPECT_EQ(reduce.Get("attrs")->Get("terms_out")->number, 1.0);
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
  ASSERT_TRUE(encoded.Build().ok());
  AccessPathPlanner planner(table.get(), &io);
  planner.RegisterIndex("a", &encoded);

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
  EXPECT_NE(text.find("planner.select"), std::string::npos);
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
  AccessPathPlanner planner(table.get(), &io);
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
