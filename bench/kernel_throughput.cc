// Throughput grid for the runtime-dispatched bitmap kernels (DESIGN.md
// §10): every backend the running CPU supports x every kernel op x a
// sweep of bit densities, reported as GB/s of words processed and as
// speedup over the scalar oracle on the same op/density cell. The
// differential harness (tests/kernel_differential_test.cc) proves the
// backends bit-identical before these numbers mean anything.
//
// Density does not change the work these word-parallel ops do; the sweep
// is kept anyway to show exactly that (and to catch a backend that
// accidentally branches on data).
//
// A second section times EvaluateCover, the blocked cover pass built
// from these primitives, on every backend: 1M rows, 10 slices, covers of
// 4/10/20 cubes x 6 literals. Its GB/s counts referenced-slice bytes
// (c_e x n/8), the bytes the paper's cost model charges per evaluation.
//
// A third section times the crc32 entry on every backend over 4,072-byte
// payloads, the checksummed unit of a 4 KB storage-engine page: 299 of
// them are what one cold_scan query verifies.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "boolean/cover.h"
#include "util/kernels/kernels.h"
#include "util/random.h"

namespace ebi {
namespace {

std::vector<uint64_t> RandomWords(size_t n, double density, Rng* rng) {
  std::vector<uint64_t> words(n);
  for (uint64_t& w : words) {
    if (density <= 0.0) {
      w = 0;
    } else if (density >= 1.0) {
      w = ~uint64_t{0};
    } else if (density < 0.5) {
      w = rng->Bernoulli(density * 2) ? rng->Next() : 0;
    } else {
      w = rng->Bernoulli((1.0 - density) * 2) ? rng->Next() : ~uint64_t{0};
    }
  }
  return words;
}

/// Times `body` (one full pass over the spans) and returns GB/s given the
/// bytes one pass touches.
double MeasureGbps(const std::function<void()>& body, double bytes_per_pass,
                   int passes) {
  body();  // Warm the cache and the branch predictors.
  const bench::Timer timer;
  for (int i = 0; i < passes; ++i) {
    body();
  }
  const double seconds = timer.ElapsedMs() / 1000.0;
  if (seconds <= 0.0) {
    return 0.0;
  }
  return bytes_per_pass * passes / seconds / 1e9;
}

// Sink for popcount and cover results so the measured loop cannot be
// elided.
volatile size_t g_popcount_sink = 0;

void RunGrid(bench::BenchReport* report) {
  const size_t n = size_t{1} << 18;  // 2 MiB spans: larger than L1/L2.
  const int passes = 24;
  const double word_bytes = static_cast<double>(n) * 8.0;
  Rng rng(20260808);

  const std::vector<const kernels::BitmapKernels*>& backends =
      kernels::Supported();
  std::printf("kernel throughput: %zu-word spans, %d passes, backends:",
              n, passes);
  for (const kernels::BitmapKernels* backend : backends) {
    std::printf(" %s", backend->name);
  }
  std::printf(" (active: %s)\n\n", kernels::Active().name);
  std::printf("%-8s %-10s %-9s %12s %10s\n", "backend", "op", "density",
              "GB/s", "vs scalar");

  for (double density : {0.02, 0.5, 0.98}) {
    std::vector<uint64_t> dst = RandomWords(n, density, &rng);
    const std::vector<uint64_t> src = RandomWords(n, density, &rng);
    // 8 sources for the fused many-ops (the min-term OR chain shape).
    std::vector<std::vector<uint64_t>> many;
    for (size_t j = 0; j < 8; ++j) {
      many.push_back(RandomWords(n, density, &rng));
    }
    std::vector<const uint64_t*> srcs;
    for (const auto& s : many) {
      srcs.push_back(s.data());
    }

    // GB/s baselines from the scalar oracle, keyed by op order below.
    std::vector<double> scalar_gbps;
    for (const kernels::BitmapKernels* backend : backends) {
      const kernels::BitmapKernels& k = *backend;
      uint64_t* d = dst.data();
      const uint64_t* s = src.data();
      const struct {
        const char* op;
        std::function<void()> body;
        double bytes;  // read + written per pass
      } cells[] = {
          {"and", [&k, d, s, n] { k.and_words(d, s, n); }, 3 * word_bytes},
          {"or", [&k, d, s, n] { k.or_words(d, s, n); }, 3 * word_bytes},
          {"xor", [&k, d, s, n] { k.xor_words(d, s, n); }, 3 * word_bytes},
          {"andnot", [&k, d, s, n] { k.andnot_words(d, s, n); },
           3 * word_bytes},
          {"not", [&k, d, n] { k.not_words(d, n); }, 2 * word_bytes},
          {"fill", [&k, d, n] { k.fill_words(d, 0x5555aaaa5555aaaaULL, n); },
           word_bytes},
          {"copy", [&k, d, s, n] { k.copy_words(d, s, n); },
           2 * word_bytes},
          {"popcount",
           [&k, s, n] { g_popcount_sink = k.popcount_words(s, n); },
           word_bytes},
          {"or_many8",
           [&k, d, &srcs, n] { k.or_many(d, srcs.data(), srcs.size(), n); },
           9 * word_bytes},
          {"and_many8",
           [&k, d, &srcs, n] { k.and_many(d, srcs.data(), srcs.size(), n); },
           9 * word_bytes},
      };
      for (size_t c = 0; c < std::size(cells); ++c) {
        const double gbps = MeasureGbps(cells[c].body, cells[c].bytes,
                                        passes);
        if (backend == backends.front()) {
          scalar_gbps.push_back(gbps);
        }
        const double speedup =
            scalar_gbps[c] > 0.0 ? gbps / scalar_gbps[c] : 0.0;
        std::printf("%-8s %-10s %-9.2f %12.2f %9.2fx\n", k.name,
                    cells[c].op, density, gbps, speedup);
        report->BeginRun(std::string(k.name) + "/" + cells[c].op +
                         "/density=" + std::to_string(density));
        report->Metric("gb_per_s", gbps);
        report->Metric("speedup_vs_scalar", speedup);
        report->Metric("words", n);
      }
    }
  }
}

/// A cover of `cubes` cubes, each over `literals` distinct variables of
/// `k` with random polarity.
Cover RandomCover(size_t cubes, int literals, int k, Rng* rng) {
  Cover cover;
  for (size_t c = 0; c < cubes; ++c) {
    uint64_t mask = 0;
    while (std::popcount(mask) < literals) {
      mask |= uint64_t{1} << rng->UniformInt(k);
    }
    cover.push_back(Cube(rng->Next(), mask));
  }
  return cover;
}

void RunCoverEval(bench::BenchReport* report) {
  const size_t rows = size_t{1} << 20;
  const int k = 10;
  const int literals = 6;
  const int passes = 40;
  Rng rng(20261017);
  std::vector<BitVector> slices;
  for (int i = 0; i < k; ++i) {
    slices.push_back(
        BitVector::FromWords(rows, RandomWords(rows / 64, 0.5, &rng)));
  }
  std::printf("\ncover evaluation: %zu rows, %d slices, %d-literal cubes\n",
              rows, k, literals);
  std::printf("%-8s %-6s %5s %10s %12s %10s\n", "backend", "cubes", "c_e",
              "ms/eval", "GB/s", "vs scalar");
  for (const size_t cubes : {size_t{4}, size_t{10}, size_t{20}}) {
    const Cover cover = RandomCover(cubes, literals, k, &rng);
    const int ce = DistinctVariables(cover);
    const double slice_bytes = static_cast<double>(ce) * rows / 8.0;
    double scalar_gbps = 0.0;
    for (const kernels::BitmapKernels* backend : kernels::Supported()) {
      const double gbps = MeasureGbps(
          [backend, &cover, &slices, rows] {
            g_popcount_sink =
                EvaluateCoverWith(*backend, cover, slices, rows).NumWords();
          },
          slice_bytes, passes);
      if (backend == kernels::Supported().front()) {
        scalar_gbps = gbps;
      }
      const double ms = gbps > 0.0 ? slice_bytes / gbps / 1e6 : 0.0;
      const double speedup = scalar_gbps > 0.0 ? gbps / scalar_gbps : 0.0;
      std::printf("%-8s %-6zu %5d %10.3f %12.2f %9.2fx\n", backend->name,
                  cubes, ce, ms, gbps, speedup);
      report->BeginRun(std::string(backend->name) + "/cover_eval/cubes=" +
                       std::to_string(cubes));
      report->Metric("ms_per_eval", ms);
      report->Metric("gb_per_s", gbps);
      report->Metric("speedup_vs_scalar", speedup);
      report->Metric("vectors_read", ce);
      report->Metric("rows", rows);
    }
  }
}

// Sink for CRC results so the measured loop cannot be elided.
volatile uint32_t g_crc_sink = 0;

void RunCrc32(bench::BenchReport* report) {
  const size_t payload = 4072;
  const size_t pages = 299;
  const int passes = 40;
  Rng rng(20261018);
  std::vector<uint8_t> bytes(payload * pages);
  for (uint8_t& b : bytes) {
    b = static_cast<uint8_t>(rng.Next());
  }
  const double total = static_cast<double>(bytes.size());
  std::printf("\ncrc32: %zu payloads of %zu bytes\n", pages, payload);
  std::printf("%-8s %14s %12s %10s\n", "backend", "ms/299 pages", "GB/s",
              "vs scalar");
  double scalar_gbps = 0.0;
  for (const kernels::BitmapKernels* backend : kernels::Supported()) {
    const double gbps = MeasureGbps(
        [backend, &bytes, payload] {
          uint32_t crc = 0;
          for (size_t at = 0; at < bytes.size(); at += payload) {
            crc ^= backend->crc32(bytes.data() + at, payload, 0);
          }
          g_crc_sink = crc;
        },
        total, passes);
    if (backend == kernels::Supported().front()) {
      scalar_gbps = gbps;
    }
    const double ms = gbps > 0.0 ? total / gbps / 1e6 : 0.0;
    const double speedup = scalar_gbps > 0.0 ? gbps / scalar_gbps : 0.0;
    std::printf("%-8s %14.3f %12.2f %9.2fx\n", backend->name, ms, gbps,
                speedup);
    report->BeginRun(std::string(backend->name) + "/crc32/payload=" +
                     std::to_string(payload));
    report->Metric("gb_per_s", gbps);
    report->Metric("ms_per_299_pages", ms);
    report->Metric("speedup_vs_scalar", speedup);
  }
}

}  // namespace
}  // namespace ebi

int main() {
  ebi::bench::BenchReport report("kernel_throughput");
  ebi::RunGrid(&report);
  ebi::RunCoverEval(&report);
  ebi::RunCrc32(&report);
  return 0;
}
