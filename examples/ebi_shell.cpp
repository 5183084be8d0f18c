// ebi_shell: a tiny interactive shell over the library — load a CSV (or a
// generated demo table), build indexes on columns, and run conjunctive
// selections with a cost-based access path per predicate, watching how many
// bitmap vectors each query touches.
//
// Commands (one per line; also scriptable via stdin):
//   demo                          generate a demo sales table
//   load <path> <name>            load a CSV file
//   index <column> <kind>         kind: simple|encoded|bitsliced|btree
//   select <pred> [and <pred>]*   pred: col = v | col in v1,v2,..
//                                       | col between lo hi | col null
//   count                         row count of the loaded table
//   indexes                       list built indexes
//   help | quit

#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ebi/ebi.h"

namespace {

struct ShellState {
  std::unique_ptr<ebi::Table> table;
  ebi::IoAccountant io;
  std::unique_ptr<ebi::IndexManager> manager;
};

std::vector<std::string> Tokenize(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> tokens;
  std::string token;
  while (in >> token) {
    tokens.push_back(token);
  }
  return tokens;
}

ebi::Value ParseValue(const ebi::Column& column, const std::string& text) {
  if (column.type() == ebi::Column::Type::kInt64) {
    return ebi::Value::Int(std::stoll(text));
  }
  return ebi::Value::Str(text);
}

void CmdDemo(ShellState* state) {
  auto table_or = ebi::GenerateTable(
      "demo_sales", 50000,
      {{"product", 500, ebi::Distribution::kZipf, 0.8},
       {"region", 12, ebi::Distribution::kUniform},
       {"quantity", 100, ebi::Distribution::kUniform}},
      2026);
  if (!table_or.ok()) {
    std::printf("error: %s\n", table_or.status().ToString().c_str());
    return;
  }
  state->table = std::move(table_or).value();
  state->manager = std::make_unique<ebi::IndexManager>(state->table.get(),
                                                       &state->io);
  std::printf("demo table: %zu rows, columns product(500 zipf), "
              "region(12), quantity(100)\n",
              state->table->NumRows());
}

void CmdLoad(ShellState* state, const std::vector<std::string>& args) {
  if (args.size() < 3) {
    std::printf("usage: load <path> <name>\n");
    return;
  }
  auto table_or = ebi::LoadCsvFile(args[1], args[2]);
  if (!table_or.ok()) {
    std::printf("error: %s\n", table_or.status().ToString().c_str());
    return;
  }
  state->table = std::move(table_or).value();
  state->manager = std::make_unique<ebi::IndexManager>(state->table.get(),
                                                       &state->io);
  std::printf("loaded %zu rows x %zu columns\n", state->table->NumRows(),
              state->table->NumColumns());
}

void CmdIndex(ShellState* state, const std::vector<std::string>& args) {
  if (state->table == nullptr) {
    std::printf("no table loaded; try 'demo'\n");
    return;
  }
  if (args.size() < 3) {
    std::printf(
        "usage: index <column> simple|encoded|bitsliced|bitsliced-base10|"
        "projection|btree|valuelist|rangebased|dynamic\n");
    return;
  }
  const auto kind = ebi::IndexKindFromName(args[2]);
  if (!kind.ok()) {
    std::printf("error: %s\n", kind.status().ToString().c_str());
    return;
  }
  const auto index = state->manager->CreateIndex(args[1], *kind);
  if (!index.ok()) {
    std::printf("error: %s\n", index.status().ToString().c_str());
    return;
  }
  std::printf("built %s on %s: %zu vectors, %zu bytes\n",
              (*index)->Name().c_str(), args[1].c_str(),
              (*index)->NumVectors(), (*index)->SizeBytes());
}

void CmdDrop(ShellState* state, const std::vector<std::string>& args) {
  if (state->table == nullptr || args.size() < 3) {
    std::printf("usage: drop <column> <kind>\n");
    return;
  }
  const auto kind = ebi::IndexKindFromName(args[2]);
  if (!kind.ok()) {
    std::printf("error: %s\n", kind.status().ToString().c_str());
    return;
  }
  const ebi::Status status = state->manager->DropIndex(args[1], *kind);
  std::printf("%s\n", status.ok() ? "dropped" : status.ToString().c_str());
}

/// Parses "col = v | col in a,b,c | col between lo hi | col null" starting
/// at args[i]; advances i past the predicate.
bool ParsePredicate(const ShellState& state,
                    const std::vector<std::string>& args, size_t* i,
                    ebi::Predicate* out) {
  if (*i + 1 >= args.size()) {
    return false;
  }
  const std::string column = args[*i];
  const std::string op = args[*i + 1];
  const auto column_or = state.table->FindColumn(column);
  if (!column_or.ok()) {
    std::printf("unknown column '%s'\n", column.c_str());
    return false;
  }
  const ebi::Column& col = **column_or;
  if (op == "=" && *i + 2 < args.size()) {
    *out = ebi::Predicate::Eq(column, ParseValue(col, args[*i + 2]));
    *i += 3;
    return true;
  }
  if (op == "!=" && *i + 2 < args.size()) {
    *out = ebi::Predicate::NotEq(column, ParseValue(col, args[*i + 2]));
    *i += 3;
    return true;
  }
  if (op == "notin" && *i + 2 < args.size()) {
    std::vector<ebi::Value> values;
    for (const std::string& part :
         ebi::SplitCsvLine(args[*i + 2], ',')) {
      values.push_back(ParseValue(col, part));
    }
    *out = ebi::Predicate::NotIn(column, std::move(values));
    *i += 3;
    return true;
  }
  if (op == "in" && *i + 2 < args.size()) {
    std::vector<ebi::Value> values;
    const auto parts = ebi::SplitCsvLine(args[*i + 2], ',');
    for (const std::string& part : parts) {
      values.push_back(ParseValue(col, part));
    }
    *out = ebi::Predicate::In(column, std::move(values));
    *i += 3;
    return true;
  }
  if (op == "between" && *i + 3 < args.size()) {
    *out = ebi::Predicate::Between(column, std::stoll(args[*i + 2]),
                                   std::stoll(args[*i + 3]));
    *i += 4;
    return true;
  }
  if (op == "null") {
    *out = ebi::Predicate::IsNull(column);
    *i += 2;
    return true;
  }
  std::printf("cannot parse predicate near '%s'\n", op.c_str());
  return false;
}

void CmdSelect(ShellState* state, const std::vector<std::string>& args) {
  if (state->table == nullptr) {
    std::printf("no table loaded; try 'demo'\n");
    return;
  }
  std::vector<ebi::Predicate> predicates;
  size_t i = 1;
  while (i < args.size()) {
    if (args[i] == "and") {
      ++i;
      continue;
    }
    ebi::Predicate p;
    if (!ParsePredicate(*state, args, &i, &p)) {
      return;
    }
    predicates.push_back(std::move(p));
  }
  std::vector<ebi::AccessPath> paths;
  const auto result = state->manager->Select(predicates, &paths);
  if (!result.ok()) {
    std::printf("error: %s\n", result.status().ToString().c_str());
    return;
  }
  std::printf("%zu rows\n", result->count);
  for (size_t p = 0; p < predicates.size(); ++p) {
    std::printf("  %-30s via %-16s (delta=%zu, est. %.1f pages)\n",
                predicates[p].ToString().c_str(),
                paths[p].index->Name().c_str(), paths[p].delta,
                paths[p].estimated_pages);
  }
  std::printf("  io: %s\n", result->io.ToString().c_str());
}

void CmdIndexes(const ShellState& state) {
  if (state.table == nullptr) {
    return;
  }
  for (size_t c = 0; c < state.table->NumColumns(); ++c) {
    const std::string& column = state.table->column(c).name();
    for (const ebi::SecondaryIndex* index :
         state.manager->IndexesOn(column)) {
      std::printf("  %-20s on %-12s %8zu vectors %12zu bytes\n",
                  index->Name().c_str(), column.c_str(),
                  index->NumVectors(), index->SizeBytes());
    }
  }
}

void PrintHelp() {
  std::printf(
      "commands:\n"
      "  demo                         generate a demo sales table\n"
      "  load <path> <name>           load a CSV file\n"
      "  index <column> <kind>        simple|encoded|bitsliced|\n"
      "                               bitsliced-base10|projection|btree|\n"
      "                               valuelist|rangebased|dynamic\n"
      "  drop <column> <kind>         drop an index\n"
      "  select <pred> [and <pred>]*  col = v | col != v | col in a,b,c |\n"
      "                               col notin a,b,c |\n"
      "                               col between lo hi | col null\n"
      "  count | indexes | help | quit\n");
}

}  // namespace

int main() {
  ShellState state;
  std::printf("ebi shell — encoded bitmap indexing playground. 'help' for "
              "commands.\n");
  std::string line;
  while (std::printf("ebi> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    const std::vector<std::string> args = Tokenize(line);
    if (args.empty()) {
      continue;
    }
    const std::string& cmd = args[0];
    if (cmd == "quit" || cmd == "exit") {
      break;
    } else if (cmd == "help") {
      PrintHelp();
    } else if (cmd == "demo") {
      CmdDemo(&state);
    } else if (cmd == "load") {
      CmdLoad(&state, args);
    } else if (cmd == "index") {
      CmdIndex(&state, args);
    } else if (cmd == "drop") {
      CmdDrop(&state, args);
    } else if (cmd == "select") {
      CmdSelect(&state, args);
    } else if (cmd == "count") {
      std::printf("%zu rows\n",
                  state.table ? state.table->NumRows() : 0);
    } else if (cmd == "indexes") {
      CmdIndexes(state);
    } else {
      std::printf("unknown command '%s'; try 'help'\n", cmd.c_str());
    }
  }
  return 0;
}
