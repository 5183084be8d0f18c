// Tiered storage engine: cold vs warm scan latency, buffer-pool hit
// rate as the pool shrinks below the working set, and WAL append
// throughput. The headline gate: with the pool at or above the working
// set, a warm scan through the engine must stay close to the in-memory
// path (BENCH_storage_engine.json carries the ratio; the design target
// is 1.25x, checked leniently in CI by scripts/check_bench_json.sh).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "storage/engine/storage_engine.h"
#include "storage/engine/wal.h"
#include "util/random.h"

namespace ebi {
namespace {

std::string TempPath(const char* name) {
  const char* tmp = std::getenv("TMPDIR");
  return std::string(tmp != nullptr && tmp[0] != '\0' ? tmp : "/tmp") + "/" +
         name;
}

BitVector RandomBits(size_t n, uint64_t seed) {
  Rng rng(seed);
  BitVector v(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.35)) {
      v.Set(i);
    }
  }
  return v;
}

/// One "scan": obtain each slice from the store as an owned BitVector
/// (what an in-memory store hands out — a copy) and OR it into an
/// accumulator. The engine path below does the identical per-slice
/// work through GetSlice, so the latency ratio isolates the engine's
/// overhead: page lookups plus one payload assembly + decode in place
/// of the in-memory copy.
double MemoryScanMs(const std::vector<BitVector>& store, size_t bits,
                    int repeats) {
  bench::Timer timer;
  size_t guard = 0;
  for (int r = 0; r < repeats; ++r) {
    BitVector acc(bits);
    for (const BitVector& s : store) {
      const BitVector got = s;  // The in-memory store hands out copies.
      acc.OrWith(got);
    }
    guard += acc.Count();
  }
  if (guard == 0) {
    std::printf("(empty accumulator?)\n");
  }
  return timer.ElapsedMs() / repeats;
}

double EngineScanMs(engine::StorageEngine& eng, size_t num_slices,
                    size_t bits, int repeats) {
  bench::Timer timer;
  size_t guard = 0;
  for (int r = 0; r < repeats; ++r) {
    BitVector acc(bits);
    for (size_t i = 0; i < num_slices; ++i) {
      auto slice = eng.GetSlice(static_cast<uint32_t>(i));
      bench::CheckOk(slice.status());
      acc.OrWith(*slice);
    }
    guard += acc.Count();
  }
  if (guard == 0) {
    std::printf("(empty accumulator?)\n");
  }
  return timer.ElapsedMs() / repeats;
}

void Run() {
  constexpr size_t kSlices = 32;
  constexpr size_t kBits = 1 << 17;  // 16 KB plain payload, 5 pages/slice.
  constexpr int kScanRepeats = 20;
  constexpr int kRounds = 7;
  const std::string path = TempPath("ebi_bench_engine.bin");

  std::vector<BitVector> slices;
  slices.reserve(kSlices);
  for (size_t i = 0; i < kSlices; ++i) {
    slices.push_back(RandomBits(kBits, i + 1));
  }

  bench::BenchReport report("storage_engine");
  std::printf("=== Tiered storage engine ===\n");
  std::printf("%zu slices x %zu bits (plain), best of %d rounds of "
              "%d-scan averages\n\n",
              kSlices, kBits, kRounds, kScanRepeats);

  // Working set in pages, measured from a throwaway engine.
  size_t working_set = 0;
  {
    engine::StorageEngineOptions options;
    options.pool_pages = 4 * kSlices;
    options.remove_on_close = false;
    auto eng = engine::StorageEngine::Open(path, options);
    bench::CheckOk(eng.status());
    for (const BitVector& s : slices) {
      bench::CheckOk((*eng)->PutSlice(s).status());
    }
    bench::CheckOk((*eng)->Sync());
    for (size_t i = 0; i < kSlices; ++i) {
      const auto pages = (*eng)->SlicePages(static_cast<uint32_t>(i));
      bench::CheckOk(pages.status());
      working_set += *pages;
    }
  }
  std::printf("working set: %zu pages\n\n", working_set);

  // Cold + warm scan with the pool sized to the working set. Both sides
  // of the warm/memory ratio are tens-of-microsecond scans, so each is
  // the best of kRounds rounds, interleaved so drift and frequency
  // scaling bias both sides alike.
  {
    engine::StorageEngineOptions options;
    options.pool_pages = working_set + 8;
    options.recover = true;
    auto eng = engine::StorageEngine::Open(path, options);
    bench::CheckOk(eng.status());
    const double cold_ms = EngineScanMs(**eng, kSlices, kBits, 1);
    double memory_ms = 0.0;
    double warm_ms = 0.0;
    for (int round = 0; round < kRounds; ++round) {
      const double memory = MemoryScanMs(slices, kBits, kScanRepeats);
      const double warm = EngineScanMs(**eng, kSlices, kBits, kScanRepeats);
      memory_ms = round == 0 ? memory : std::min(memory_ms, memory);
      warm_ms = round == 0 ? warm : std::min(warm_ms, warm);
    }
    const double ratio = warm_ms / memory_ms;
    std::printf("%-22s %10.3f ms/scan\n", "in-memory baseline", memory_ms);
    std::printf("%-22s %10.3f ms/scan\n", "engine cold scan", cold_ms);
    std::printf("%-22s %10.3f ms/scan  (%.2fx in-memory)\n",
                "engine warm scan", warm_ms, ratio);
    report.BeginRun("scan_latency");
    report.Metric("memory_ms", memory_ms);
    report.Metric("cold_ms", cold_ms);
    report.Metric("warm_ms", warm_ms);
    report.Metric("warm_vs_memory", ratio);
    report.Metric("working_set_pages", working_set);
  }

  // Hit rate vs pool size: a query mix that touches slices with a skewed
  // (hot-subset) distribution, pools from 1/8 to 2x the working set.
  std::printf("\n%-14s %-10s %-10s %-10s %-10s\n", "pool_pages", "hits",
              "misses", "hit_rate", "evictions");
  for (const double fraction : {0.125, 0.25, 0.5, 1.0, 2.0}) {
    const size_t pool_pages =
        static_cast<size_t>(working_set * fraction) + 1;
    engine::StorageEngineOptions options;
    options.pool_pages = pool_pages;
    options.recover = true;
    auto eng = engine::StorageEngine::Open(path, options);
    bench::CheckOk(eng.status());
    Rng rng(99);
    uint64_t page_hits = 0;
    uint64_t page_misses = 0;
    for (int q = 0; q < 600; ++q) {
      // 80% of queries touch the 25% hottest slices.
      const size_t slice = rng.Bernoulli(0.8)
                               ? rng.UniformInt(kSlices / 4)
                               : rng.UniformInt(kSlices);
      size_t faulted = 0;
      const auto stored =
          (*eng)->GetSlice(static_cast<uint32_t>(slice), &faulted);
      bench::CheckOk(stored.status());
      const auto pages = (*eng)->SlicePages(static_cast<uint32_t>(slice));
      bench::CheckOk(pages.status());
      page_misses += faulted;
      page_hits += *pages - faulted;
    }
    const double hit_rate =
        static_cast<double>(page_hits) /
        static_cast<double>(page_hits + page_misses);
    const engine::BufferPoolStats stats = (*eng)->pool_stats();
    std::printf("%-14zu %-10llu %-10llu %-10.3f %-10llu\n", pool_pages,
                static_cast<unsigned long long>(page_hits),
                static_cast<unsigned long long>(page_misses), hit_rate,
                static_cast<unsigned long long>(stats.evictions));
    report.BeginRun("pool_" + std::to_string(pool_pages));
    report.Metric("pool_pages", pool_pages);
    report.Metric("hit_rate", hit_rate);
    report.Metric("page_hits", page_hits);
    report.Metric("page_misses", page_misses);
    report.Metric("evictions", stats.evictions);
  }

  // WAL append throughput, grouped vs per-append fsync.
  std::printf("\n%-22s %-14s %-12s\n", "wal_mode", "appends/s", "MB/s");
  for (const bool sync_each : {false, true}) {
    const std::string wal_path = TempPath("ebi_bench_engine.wal");
    std::remove(wal_path.c_str());
    engine::WalOptions options;
    options.sync_on_append = sync_each;
    auto wal = engine::Wal::Open(wal_path, options);
    bench::CheckOk(wal.status());
    const int appends = sync_each ? 200 : 20000;
    const std::vector<uint8_t> payload(512, 0xAB);
    bench::Timer timer;
    for (int i = 0; i < appends; ++i) {
      bench::CheckOk(
          (*wal)->Append(engine::kWalRecordRowBatch, payload).status());
    }
    bench::CheckOk((*wal)->Sync());
    const double seconds = timer.ElapsedMs() / 1000.0;
    const double per_second = appends / seconds;
    const double mb_per_second =
        per_second * static_cast<double>(payload.size()) / (1024.0 * 1024.0);
    const char* label = sync_each ? "fsync_per_append" : "group_commit";
    std::printf("%-22s %-14.0f %-12.2f\n", label, per_second, mb_per_second);
    report.BeginRun(std::string("wal_") + label);
    report.Metric("appends_per_s", per_second);
    report.Metric("mb_per_s", mb_per_second);
    report.Metric("payload_bytes", payload.size());
    std::remove(wal_path.c_str());
  }

  std::remove(path.c_str());
  std::remove((path + ".map").c_str());
  std::printf(
      "\n(The warm scan pays deserialization but no I/O once the pool\n"
      " holds the working set; shrinking the pool degrades hit rate\n"
      " smoothly, and group-commit WAL appends amortize the fsync.)\n");
}

}  // namespace
}  // namespace ebi

int main() {
  ebi::Run();
  return 0;
}
