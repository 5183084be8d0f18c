// EXPLAIN demo: runs one multi-value selection through the selection
// executor's cost-based choice with a trace sink installed, then renders
// the plan tree — every cost the paper's analysis talks about (candidate
// estimates, the chosen access path, minterms before/after Boolean
// reduction, vectors actually read) measured from the real execution.
//
// Usage: explain [--json] [--timing]

#include <cstdio>
#include <cstring>

#include "ebi/ebi.h"
#include "query/executor.h"

int main(int argc, char** argv) {
  using ebi::Value;

  bool as_json = false;
  ebi::obs::ExplainOptions options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      as_json = true;
    } else if (std::strcmp(argv[i], "--timing") == 0) {
      options.include_timing = true;
    } else {
      std::printf("usage: explain [--json] [--timing]\n");
      return 1;
    }
  }

  // A SALES-like table: 60000 rows, product in [0, 500), day in [0, 365).
  ebi::Table table("SALES");
  if (!table.AddColumn("product", ebi::Column::Type::kInt64).ok() ||
      !table.AddColumn("day", ebi::Column::Type::kInt64).ok()) {
    return 1;
  }
  ebi::Rng rng(99);
  for (int i = 0; i < 60000; ++i) {
    if (!table
             .AppendRow({Value::Int(static_cast<int64_t>(
                             rng.UniformInt(500))),
                         Value::Int(static_cast<int64_t>(
                             rng.UniformInt(365)))})
             .ok()) {
      return 1;
    }
  }

  // Competing access paths per column, exactly as Choose sees them.
  ebi::IoAccountant io;
  const ebi::Column* product = *table.FindColumn("product");
  const ebi::Column* day = *table.FindColumn("day");
  ebi::SimpleBitmapIndex product_simple(product, &table.existence(), &io);
  ebi::EncodedBitmapIndex product_encoded(product, &table.existence(), &io);
  ebi::BitSlicedIndex day_sliced(day, &table.existence(), &io);
  ebi::EncodedBitmapIndex day_encoded(day, &table.existence(), &io);
  if (!product_simple.Build().ok() || !product_encoded.Build().ok() ||
      !day_sliced.Build().ok() || !day_encoded.Build().ok()) {
    return 1;
  }
  ebi::SelectionExecutor executor(&table, &io);
  executor.RegisterIndex("product", &product_simple);
  executor.RegisterIndex("product", &product_encoded);
  executor.RegisterIndex("day", &day_sliced);
  executor.RegisterIndex("day", &day_encoded);

  // The Figure 2 shape: a wide IN-list (encoded-bitmap territory) ANDed
  // with a range (bit-sliced territory).
  std::vector<Value> products;
  for (int64_t p = 100; p < 132; ++p) {
    products.push_back(Value::Int(p));
  }
  const std::vector<ebi::Predicate> query = {
      ebi::Predicate::In("product", products),
      ebi::Predicate::Between("day", 30, 120)};

  ebi::obs::QueryTrace trace;
  const auto sel = executor.ExplainSelect(query, &trace);
  if (!sel.ok()) {
    std::printf("query failed: %s\n", sel.status().ToString().c_str());
    return 1;
  }

  if (as_json) {
    std::printf("%s\n", ebi::obs::ExplainJson(trace, options).c_str());
  } else {
    std::printf("EXPLAIN ANALYZE (%zu rows, %s)\n\n%s", sel->count,
                sel->io.ToString().c_str(),
                ebi::obs::ExplainText(trace, options).c_str());
    std::printf("\nprocess-wide metrics so far:\n%s",
                ebi::obs::MetricsRegistry::Global().ToString().c_str());
  }
  return 0;
}
