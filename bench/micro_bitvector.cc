// google-benchmark microbenchmarks for the bitmap substrate: the logical
// operations every bitmap index in the library bottoms out in, plus
// run-length (RLE) operations and the exact minimizer.

#include <benchmark/benchmark.h>

#include "boolean/reduction.h"
#include "util/bitvector.h"
#include "util/random.h"
#include "util/rle_bitmap.h"

namespace ebi {
namespace {

BitVector RandomBits(size_t n, double density, uint64_t seed) {
  Rng rng(seed);
  BitVector v(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(density)) {
      v.Set(i);
    }
  }
  return v;
}

void BM_BitVectorAnd(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const BitVector a = RandomBits(n, 0.5, 1);
  const BitVector b = RandomBits(n, 0.5, 2);
  for (auto _ : state) {
    BitVector out = And(a, b);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * n / 4);
}
BENCHMARK(BM_BitVectorAnd)->Range(1 << 10, 1 << 22);

void BM_BitVectorOrInPlace(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  BitVector a = RandomBits(n, 0.5, 3);
  const BitVector b = RandomBits(n, 0.5, 4);
  for (auto _ : state) {
    a.OrWith(b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_BitVectorOrInPlace)->Range(1 << 10, 1 << 22);

void BM_BitVectorCount(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const BitVector a = RandomBits(n, 0.5, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Count());
  }
}
BENCHMARK(BM_BitVectorCount)->Range(1 << 10, 1 << 22);

void BM_RleCompressSparse(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const BitVector a = RandomBits(n, 0.01, 6);
  for (auto _ : state) {
    RleBitmap rle = RleBitmap::Compress(a);
    benchmark::DoNotOptimize(rle);
  }
}
BENCHMARK(BM_RleCompressSparse)->Range(1 << 12, 1 << 20);

void BM_RleAndSparse(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const RleBitmap a = RleBitmap::Compress(RandomBits(n, 0.01, 7));
  const RleBitmap b = RleBitmap::Compress(RandomBits(n, 0.01, 8));
  for (auto _ : state) {
    RleBitmap out = RleBitmap::And(a, b);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_RleAndSparse)->Range(1 << 12, 1 << 20);

void BM_ReduceConsecutiveInList(benchmark::State& state) {
  const size_t delta = static_cast<size_t>(state.range(0));
  std::vector<uint64_t> onset(delta);
  for (size_t i = 0; i < delta; ++i) {
    onset[i] = i;
  }
  for (auto _ : state) {
    Cover cover = ReduceRetrievalFunction(onset, {}, 10);
    benchmark::DoNotOptimize(cover);
  }
}
BENCHMARK(BM_ReduceConsecutiveInList)->RangeMultiplier(4)->Range(4, 1024);

void BM_ReduceWithUnusedCodes(benchmark::State& state) {
  // The served shape: a sequential mapping of the smallest domain that
  // needs k bits uses codes [0, 2^(k-1)] and leaves the rest of the code
  // space as don't-cares; each selection takes delta random used codes.
  // k = 15 leaves 16,383 don't-cares, a shape that once fell outside the
  // exact minimizer.
  const int k = static_cast<int>(state.range(0));
  const size_t delta = static_cast<size_t>(state.range(1));
  const uint64_t used = (uint64_t{1} << (k - 1)) + 1;
  std::vector<uint64_t> dontcare;
  for (uint64_t code = used; code < (uint64_t{1} << k); ++code) {
    dontcare.push_back(code);
  }
  Rng rng(15);
  std::vector<std::vector<uint64_t>> onsets(16);
  for (std::vector<uint64_t>& onset : onsets) {
    std::vector<uint64_t> codes(used);
    for (uint64_t c = 0; c < used; ++c) {
      codes[c] = c;
    }
    rng.Shuffle(&codes);
    onset.assign(codes.begin(),
                 codes.begin() + static_cast<std::ptrdiff_t>(delta));
  }
  size_t i = 0;
  for (auto _ : state) {
    Cover cover =
        ReduceRetrievalFunction(onsets[i++ % onsets.size()], dontcare, k);
    benchmark::DoNotOptimize(cover);
  }
}
BENCHMARK(BM_ReduceWithUnusedCodes)
    ->ArgsProduct({{9, 10, 11, 15}, {8, 32, 128}})
    ->ArgNames({"k", "delta"});

}  // namespace
}  // namespace ebi
