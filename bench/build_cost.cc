// Reproduces the Section 2.1/3.1 build-cost comparison: wall time and size
// of building every index family, swept over cardinality — O(n*m) for
// simple bitmaps vs O(n*log m) for encoded ones, with the B-tree and the
// other Section 4 structures alongside.

#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "ebi/ebi.h"

namespace ebi {
namespace {

struct Row {
  const char* name;
  double build_ms;
  size_t bytes;
  size_t vectors;
};

void Run() {
  const size_t n = 100000;
  std::printf("=== Build cost sweep (n = %zu rows) ===\n", n);
  for (size_t m : std::vector<size_t>{16, 256, 4096}) {
    auto table = bench::RoundRobinTable(n, m);
    IoAccountant io;
    const Column* col = &table->column(0);
    const BitVector* ex = &table->existence();

    std::vector<std::unique_ptr<SecondaryIndex>> indexes;
    indexes.push_back(std::make_unique<SimpleBitmapIndex>(col, ex, &io));
    indexes.push_back(std::make_unique<EncodedBitmapIndex>(col, ex, &io));
    indexes.push_back(std::make_unique<BitSlicedIndex>(col, ex, &io));
    indexes.push_back(std::make_unique<BaseBitSlicedIndex>(col, ex, &io));
    indexes.push_back(std::make_unique<ProjectionIndex>(col, ex, &io));
    indexes.push_back(std::make_unique<BTreeIndex>(col, ex, &io));
    indexes.push_back(std::make_unique<ValueListIndex>(col, ex, &io));
    indexes.push_back(
        std::make_unique<RangeBasedBitmapIndex>(col, ex, &io));
    indexes.push_back(std::make_unique<DynamicBitmapIndex>(col, ex, &io));

    std::printf("\nm = %zu\n", m);
    std::printf("%-22s %12s %14s %10s\n", "index", "build_ms", "bytes",
                "vectors");
    for (auto& index : indexes) {
      bench::Timer timer;
      const Status status = index->Build();
      const double ms = timer.ElapsedMs();
      if (!status.ok()) {
        std::printf("%-22s build failed: %s\n", index->Name().c_str(),
                    status.ToString().c_str());
        continue;
      }
      std::printf("%-22s %12.2f %14zu %10zu\n", index->Name().c_str(), ms,
                  index->SizeBytes(), index->NumVectors());
    }
  }
  std::printf(
      "\n(Simple bitmap build time/size scale linearly with m; encoded\n"
      " scale with ceil(log2 m) — Section 3.1's h = |A| vs ceil(log2|A|).)\n");
}

}  // namespace
}  // namespace ebi

int main() {
  ebi::Run();
  return 0;
}
