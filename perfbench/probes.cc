// Single-layer probes: each times one public call in isolation, after the
// traced phase, on inputs shaped like the workload's own.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench.h"
#include "serve/cluster/partitioner.h"
#include "serve/cluster/shard_router.h"
#include "storage/engine/wal.h"
#include "util/kernels/kernels.h"
#include "util/random.h"

namespace ebi {
namespace perfbench {

namespace {

/// Repetitions per kernel; each is timed on its own and reported as one
/// GB/s sample.
constexpr size_t kKernelReps = 64;
constexpr size_t kKernelOperands = 8;

double Gbps(double bytes, Clock::time_point start) {
  const double seconds = MsSince(start) / 1000.0;
  return seconds > 0.0 ? bytes / seconds / 1e9 : 0.0;
}

}  // namespace

void ProbeKernels(size_t bits, Probes* probes) {
  const kernels::BitmapKernels& k = kernels::Active();
  const size_t words = (bits + 63) / 64;
  Rng rng(words);
  std::vector<std::vector<uint64_t>> operands(kKernelOperands,
                                              std::vector<uint64_t>(words));
  std::vector<const uint64_t*> srcs;
  for (auto& operand : operands) {
    for (uint64_t& w : operand) {
      w = rng.Next();
    }
    srcs.push_back(operand.data());
  }
  std::vector<uint64_t> dst(words);
  const double operand_bytes = static_cast<double>(words * sizeof(uint64_t));
  size_t sink = 0;
  for (size_t rep = 0; rep < kKernelReps; ++rep) {
    auto start = Clock::now();
    k.or_many(dst.data(), srcs.data(), srcs.size(), words);
    probes->or_many_gbps.push_back(
        Gbps(operand_bytes * (kKernelOperands + 1), start));
    sink += dst[rep % words];

    start = Clock::now();
    k.and_many(dst.data(), srcs.data(), srcs.size(), words);
    probes->and_many_gbps.push_back(
        Gbps(operand_bytes * (kKernelOperands + 1), start));
    sink += dst[rep % words];

    start = Clock::now();
    sink += k.popcount_words(srcs[rep % srcs.size()], words);
    probes->popcount_gbps.push_back(Gbps(operand_bytes, start));
  }
  // Keeps the results observable so no call is optimised away.
  if (sink == 1) {
    std::fprintf(stderr, "perfbench: kernel sink %zu\n", sink);
  }
}

void ProbeClone(const serve::DatabaseSnapshot& snapshot,
                const std::vector<std::vector<Value>>& rows, size_t samples,
                Probes* probes) {
  for (size_t i = 0; i < samples; ++i) {
    const auto start = Clock::now();
    auto next = snapshot.CloneWithRows(rows, snapshot.epoch() + 1);
    probes->clone_ms.push_back(MsSince(start));
    CheckOk(next.status(), "probe CloneWithRows");
  }
}

void ProbeWal(const std::string& path,
              const std::vector<std::vector<Value>>& rows, size_t samples,
              Probes* probes) {
  std::remove(path.c_str());
  engine::WalOptions options;
  options.sync_on_append = true;
  auto wal = CheckOk(engine::Wal::Open(path, options), "probe Wal::Open");
  for (size_t i = 0; i < samples; ++i) {
    const std::vector<uint8_t> payload =
        engine::EncodeRowBatch(i * rows.size(), rows);
    const auto start = Clock::now();
    auto lsn = wal->Append(engine::kWalRecordRowBatch, payload);
    probes->wal_append_ms.push_back(MsSince(start));
    CheckOk(lsn.status(), "probe Wal::Append");
  }
  wal.reset();
  std::remove(path.c_str());
}

void ProbeRoute(const Table& table, const std::string& key_column,
                size_t shards, const std::vector<std::vector<Value>>& batch,
                size_t samples, Probes* probes) {
  serve::cluster::ShardRouter router(
      std::make_unique<serve::cluster::HashPartitioner>(shards), key_column);
  const size_t key_index =
      CheckOk(table.ColumnIndex(key_column), "probe key column");
  std::vector<std::vector<Value>> rows(table.NumRows());
  for (size_t r = 0; r < table.NumRows(); ++r) {
    for (size_t c = 0; c < table.NumColumns(); ++c) {
      const Column& column = table.column(c);
      rows[r].push_back(column.ValueOf(column.rows()[r]));
    }
  }
  CheckOk(router.RouteAppend(rows, key_index).status(), "probe preload");
  for (size_t i = 0; i < samples; ++i) {
    const auto start = Clock::now();
    auto routed = router.RouteAppend(batch, key_index);
    probes->route_us.push_back(MsSince(start) * 1000.0);
    CheckOk(routed.status(), "probe RouteAppend");
  }
}

}  // namespace perfbench
}  // namespace ebi
