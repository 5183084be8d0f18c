// Reproduces the Section 3.1 sparsity analysis: simple bitmap vectors are
// (m-1)/m zeros while encoded slices sit near 1/2 independent of m; also
// shows what run-length compression buys each of them, and compares plain
// and RLE bitmaps head-to-head on size and AND/OR throughput across
// densities — the evidence behind storing plain vectors everywhere
// (DESIGN.md §4).

#include <cstdio>
#include <vector>

#include "analysis/cost_model.h"
#include "bench_util.h"
#include "index/encoded_bitmap_index.h"
#include "index/simple_bitmap_index.h"
#include "util/random.h"
#include "util/rle_bitmap.h"

namespace ebi {
namespace {

double AverageSliceDensity(const EncodedBitmapIndex& index) {
  if (index.slices().empty()) {
    return 0.0;
  }
  double total = 0.0;
  for (const BitVector& slice : index.slices()) {
    total += 1.0 - slice.Sparsity();
  }
  return total / static_cast<double>(index.slices().size());
}

void RunSparsityVsCardinality(bench::BenchReport* report) {
  const size_t n = 20000;
  std::printf("=== Section 3.1: sparsity vs cardinality (n = %zu) ===\n", n);
  std::printf("%-8s %-14s %-14s %-14s %-16s %-16s\n", "m", "model (m-1)/m",
              "simple_meas", "encoded_meas", "rle_ratio_simple",
              "rle_ratio_enc");
  for (size_t m : std::vector<size_t>{2, 8, 32, 128, 512, 2048}) {
    auto table = bench::RoundRobinTable(n, m);
    IoAccountant io;
    SimpleBitmapIndex plain(&table->column(0), &table->existence(), &io);
    EncodedBitmapIndexOptions eopts;
    eopts.reserve_void_zero = false;
    EncodedBitmapIndex encoded(&table->column(0), &table->existence(), &io,
                               eopts);
    if (!plain.Build().ok() || !encoded.Build().ok()) {
      std::printf("%-8zu build failed\n", m);
      continue;
    }
    // Compression ratio of RLE-compressing each simple vector, and of
    // RLE-compressing each encoded slice.
    size_t simple_rle = 0;
    plain.ForEachAuditVector([&simple_rle](const AuditableVector& v) {
      simple_rle += RleBitmap::Compress(*v.plain).SizeBytes();
    });
    const double rle_simple = static_cast<double>(plain.SizeBytes()) /
                              static_cast<double>(simple_rle);
    size_t enc_plain = 0;
    size_t enc_rle = 0;
    for (const BitVector& slice : encoded.slices()) {
      enc_plain += slice.SizeBytes();
      enc_rle += RleBitmap::Compress(slice).SizeBytes();
    }
    const double rle_enc =
        static_cast<double>(enc_plain) / static_cast<double>(enc_rle);
    std::printf("%-8zu %-14.4f %-14.4f %-14.4f %-16.2f %-16.2f\n", m,
                SimpleSparsity(m), plain.AverageSparsity(),
                1.0 - AverageSliceDensity(encoded), rle_simple, rle_enc);
    report->BeginRun("m=" + std::to_string(m));
    report->Metric("sparsity_model", SimpleSparsity(m));
    report->Metric("sparsity_simple", plain.AverageSparsity());
    report->Metric("sparsity_encoded", 1.0 - AverageSliceDensity(encoded));
    report->Metric("rle_ratio_simple", rle_simple);
    report->Metric("rle_ratio_encoded", rle_enc);
  }
  std::printf(
      "(Sparse simple vectors compress well; ~50%%-dense encoded slices do\n"
      " not — encoding already removed the redundancy.)\n");
}

BitVector RandomBits(size_t n, double density, Rng* rng) {
  BitVector v(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng->Bernoulli(density)) {
      v.Set(i);
    }
  }
  return v;
}

/// Ops/ms for one timed loop; `sink` defeats dead-code elimination.
template <typename Fn>
double TimeOps(int reps, size_t* sink, Fn&& op) {
  bench::Timer timer;
  for (int r = 0; r < reps; ++r) {
    *sink += op();
  }
  const double ms = timer.ElapsedMs();
  return ms > 0.0 ? static_cast<double>(reps) / ms : 0.0;
}

void RunFormatComparison(bench::BenchReport* report) {
  const size_t n = 1 << 20;
  const int reps = 20;
  std::printf(
      "\n=== Physical formats: size and AND/OR throughput (n = %zu bits, "
      "%d reps) ===\n",
      n, reps);
  std::printf("%-10s %-8s %12s %10s %14s %14s\n", "density", "format",
              "bytes", "ratio", "and_ops/ms", "or_ops/ms");
  Rng rng(42);
  size_t sink = 0;
  for (double density : std::vector<double>{0.0005, 0.01, 0.2, 0.5}) {
    const BitVector a = RandomBits(n, density, &rng);
    const BitVector b = RandomBits(n, density, &rng);
    const RleBitmap ra = RleBitmap::Compress(a);
    const RleBitmap rb = RleBitmap::Compress(b);

    const double plain_bytes = static_cast<double>(a.SizeBytes());
    const double plain_and = TimeOps(
        reps, &sink, [&] { return And(a, b).Count() & 1u; });
    const double plain_or = TimeOps(
        reps, &sink, [&] { return Or(a, b).Count() & 1u; });
    std::printf("%-10.4f %-8s %12zu %10.2f %14.1f %14.1f\n", density,
                "plain", a.SizeBytes(), 1.0, plain_and, plain_or);
    const auto record = [&](const char* format, size_t bytes,
                            double and_ops, double or_ops) {
      report->BeginRun("density=" + std::to_string(density) + "," + format);
      report->Metric("bytes", bytes);
      report->Metric("ratio", plain_bytes / static_cast<double>(bytes));
      report->Metric("and_ops_per_ms", and_ops);
      report->Metric("or_ops_per_ms", or_ops);
    };
    record("plain", a.SizeBytes(), plain_and, plain_or);

    const double rle_and = TimeOps(
        reps, &sink, [&] { return RleBitmap::And(ra, rb).Count() & 1u; });
    const double rle_or = TimeOps(
        reps, &sink, [&] { return RleBitmap::Or(ra, rb).Count() & 1u; });
    std::printf("%-10.4f %-8s %12zu %10.2f %14.1f %14.1f\n", density, "rle",
                ra.SizeBytes(),
                plain_bytes / static_cast<double>(ra.SizeBytes()), rle_and,
                rle_or);
    record("rle", ra.SizeBytes(), rle_and, rle_or);
  }
  std::printf(
      "(sink=%zu) Compression pays only on very sparse vectors: at 0.0005\n"
      "RLE is ~28x smaller than plain but slower at both AND and OR. From\n"
      "0.01 up it runs tens to hundreds of times slower than plain, and\n"
      "from 0.2 up it is also 10-16x larger. Encoded slices sit near 0.5,\n"
      "so they stay plain.)\n",
      sink & 1u);
}

void Run() {
  bench::BenchReport report("sparsity");
  RunSparsityVsCardinality(&report);
  RunFormatComparison(&report);
}

}  // namespace
}  // namespace ebi

int main() {
  ebi::Run();
  return 0;
}
