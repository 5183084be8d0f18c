#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "exec/thread_pool.h"
#include "obs/workload_recorder.h"
#include "serve/query_service.h"
#include "storage/table.h"

namespace ebi {
namespace serve {
namespace {

std::unique_ptr<Table> SeedTable(size_t rows) {
  auto table = std::make_unique<Table>("stress");
  EXPECT_TRUE(table->AddColumn("a", Column::Type::kInt64).ok());
  for (size_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(
        table->AppendRow({Value::Int(static_cast<int64_t>(i % 4))}).ok());
  }
  return table;
}

// Concurrent readers against one appender. Every reader runs a full-match
// selection (0 <= a <= huge, no deletes happen), so whatever snapshot it
// pinned, its result count must equal the row count of *some* published
// epoch — specifically the one stamped on its result. A torn read — a
// count that disagrees with the result's own epoch — means snapshot
// isolation broke. Run under TSan to also certify the epoch/reclamation
// machinery data-race-free.
TEST(ServeStressTest, ReadersSeeRowCountsConsistentWithSomeEpoch) {
  constexpr size_t kSeedRows = 8;
  constexpr size_t kAppendBatches = 15;
  constexpr size_t kRowsPerBatch = 4;
  constexpr size_t kReaders = 3;
  constexpr size_t kQueriesPerReader = 40;

  ServeOptions options;
  options.worker_threads = 2;
  options.queue_depth = 128;
  QueryService service(options);
  ASSERT_TRUE(
      service.Start(SeedTable(kSeedRows), {{"a", IndexKind::kEncodedBitmap}})
          .ok());

  struct Observation {
    uint64_t epoch;
    size_t count;
  };
  std::vector<std::vector<Observation>> seen(kReaders);
  for (auto& per_reader : seen) {
    per_reader.reserve(kQueriesPerReader);
  }
  std::atomic<bool> append_failed{false};

  exec::ThreadPool drivers(kReaders + 1);
  drivers.ParallelFor(0, kReaders + 1, [&](size_t worker) {
    if (worker == 0) {
      // The appender: each batch brings a brand-new value, so every
      // publish also exercises the domain-expansion / COW-rebuild path.
      for (size_t b = 0; b < kAppendBatches; ++b) {
        std::vector<std::vector<Value>> rows;
        for (size_t r = 0; r < kRowsPerBatch; ++r) {
          rows.push_back({Value::Int(static_cast<int64_t>(100 + b))});
        }
        if (!service.Append(std::move(rows)).ok()) {
          append_failed.store(true);
          return;
        }
      }
      return;
    }
    std::vector<Observation>& out = seen[worker - 1];
    const std::vector<Predicate> all = {Predicate::Between("a", 0, 1 << 20)};
    for (size_t q = 0; q < kQueriesPerReader; ++q) {
      const Result<ServeResult> got = service.Select(all);
      if (!got.ok()) {
        // Shedding is legitimate under load; anything else is not.
        ASSERT_EQ(got.status().code(), StatusCode::kOverloaded);
        continue;
      }
      out.push_back({got.value().epoch, got.value().selection.count});
    }
  });

  ASSERT_FALSE(append_failed.load());
  ASSERT_TRUE(service.Shutdown().ok());

  // Ground truth: the row count of every epoch ever published.
  const std::vector<size_t> published = service.PublishedRowCounts();
  ASSERT_EQ(published.size(), kAppendBatches + 1);
  EXPECT_EQ(published.back(), kSeedRows + kAppendBatches * kRowsPerBatch);

  size_t observations = 0;
  for (size_t reader = 0; reader < kReaders; ++reader) {
    for (const Observation& obs : seen[reader]) {
      ASSERT_LT(obs.epoch, published.size());
      EXPECT_EQ(obs.count, published[obs.epoch])
          << "reader " << reader << " saw a row count inconsistent with "
          << "its epoch " << obs.epoch;
      ++observations;
    }
    // Within one reader, epochs move forward in submission order only if
    // requests are serialized — they aren't — but counts may never
    // exceed the final published state.
    for (const Observation& obs : seen[reader]) {
      EXPECT_LE(obs.count, published.back());
    }
  }
  EXPECT_GT(observations, 0u);

  // Nothing leaked: all superseded snapshots were reclaimed.
  EXPECT_EQ(service.snapshots().RetiredCount(), 0u);
  EXPECT_EQ(service.snapshots().ReclaimedCount(), kAppendBatches);
}

// Pins held across many publishes: readers grab a pin, hold it while the
// appender publishes, and verify their frozen row count never changes.
TEST(ServeStressTest, HeldPinsStayFrozenWhilePublishesRace) {
  constexpr size_t kPublishes = 10;
  constexpr size_t kHolders = 3;

  QueryService service;
  ASSERT_TRUE(
      service.Start(SeedTable(4), {{"a", IndexKind::kSimpleBitmap}}).ok());

  std::atomic<bool> failed{false};
  exec::ThreadPool drivers(kHolders + 1);
  drivers.ParallelFor(0, kHolders + 1, [&](size_t worker) {
    if (worker == 0) {
      for (size_t p = 0; p < kPublishes; ++p) {
        if (!service.Append({{Value::Int(static_cast<int64_t>(p))}}).ok()) {
          failed.store(true);
          return;
        }
      }
      return;
    }
    for (size_t round = 0; round < 20; ++round) {
      SnapshotManager::Pin pin = service.snapshots().Acquire();
      if (!pin) {
        failed.store(true);
        return;
      }
      const size_t rows_at_pin = pin->NumRows();
      const uint64_t epoch_at_pin = pin->epoch();
      // Re-read after other threads had time to publish: both must be
      // exactly what we pinned.
      if (pin->NumRows() != rows_at_pin || pin->epoch() != epoch_at_pin) {
        failed.store(true);
        return;
      }
    }
  });
  ASSERT_FALSE(failed.load());
  ASSERT_TRUE(service.Shutdown().ok());
  EXPECT_EQ(service.CurrentEpoch(), kPublishes);
}

// Production telemetry under stress: 100% sampling, a zero slow
// threshold (every request is "slow"), and a workload recorder rotating
// every couple KiB — while readers race an appender. Every completed
// selection must be accounted for in all three sinks, the trace ring
// must wrap without losing whole captures, and the rotated log set must
// read back clean and in order.
TEST(ServeStressTest, TelemetryCapturesEveryCompletedSelection) {
  constexpr size_t kReaders = 3;
  constexpr size_t kQueriesPerReader = 60;
  constexpr size_t kAppendBatches = 8;
  const std::string log_path =
      std::string(::testing::TempDir()) + "/ebi_stress_workload.jsonl";
  std::remove(log_path.c_str());
  for (size_t g = 1; g < 4; ++g) {
    std::remove((log_path + "." + std::to_string(g)).c_str());
  }

  ServeOptions options;
  options.worker_threads = 2;
  options.queue_depth = 256;
  options.telemetry.enabled = true;
  options.telemetry.sample_rate = 1.0;
  options.telemetry.ring_capacity = 8;  // forces wraparound
  options.telemetry.slow_threshold_ms = 0.0;
  options.telemetry.workload_log_path = log_path;
  options.telemetry.workload_options.rotate_bytes = 2048;
  options.telemetry.workload_options.max_files = 3;
  QueryService service(options);
  ASSERT_TRUE(
      service.Start(SeedTable(16), {{"a", IndexKind::kEncodedBitmap}}).ok());

  std::atomic<size_t> successes{0};
  std::atomic<bool> append_failed{false};
  exec::ThreadPool drivers(kReaders + 1);
  drivers.ParallelFor(0, kReaders + 1, [&](size_t worker) {
    if (worker == 0) {
      for (size_t b = 0; b < kAppendBatches; ++b) {
        if (!service.Append({{Value::Int(static_cast<int64_t>(100 + b))}})
                 .ok()) {
          append_failed.store(true);
          return;
        }
      }
      return;
    }
    for (size_t q = 0; q < kQueriesPerReader; ++q) {
      const Result<ServeResult> got = service.Select(
          {Predicate::Eq("a", Value::Int(static_cast<int64_t>(q % 4)))});
      if (got.ok()) {
        successes.fetch_add(1);
      } else {
        ASSERT_EQ(got.status().code(), StatusCode::kOverloaded);
      }
    }
  });
  ASSERT_FALSE(append_failed.load());
  ASSERT_TRUE(service.Shutdown().ok());

  const uint64_t completed = successes.load();
  ASSERT_GT(completed, 0u);

  // Every completed selection was sampled into the ring (rate 1.0), and
  // the ring kept exactly the most recent `capacity` of them.
  ASSERT_NE(service.trace_ring(), nullptr);
  EXPECT_EQ(service.trace_ring()->TotalCaptured(), completed);
  const auto captures = service.trace_ring()->Snapshot();
  EXPECT_EQ(captures.size(),
            std::min<size_t>(completed, options.telemetry.ring_capacity));
  for (size_t i = 1; i < captures.size(); ++i) {
    EXPECT_LT(captures[i - 1].seq, captures[i].seq);
  }

  // Threshold 0 marks everything slow: the slow log saw every request.
  ASSERT_NE(service.slow_log(), nullptr);
  EXPECT_EQ(service.slow_log()->TotalCaptured(), completed);

  // The recorder wrote one record per completed selection and rotated
  // along the way; the rotated set reads back clean, oldest first, and
  // ends at the last sequence number written.
  ASSERT_NE(service.workload_recorder(), nullptr);
  EXPECT_EQ(service.workload_recorder()->RecordsWritten(), completed);
  EXPECT_GT(service.workload_recorder()->Rotations(), 0u);
  const Result<obs::WorkloadLogRead> set = obs::ReadWorkloadLogSet(
      log_path, options.telemetry.workload_options.max_files);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  EXPECT_EQ(set.value().skipped, 0u);
  ASSERT_FALSE(set.value().records.empty());
  EXPECT_EQ(set.value().records.back().seq, completed - 1);
  for (size_t i = 0; i < set.value().records.size(); ++i) {
    const obs::RequestRecord& record = set.value().records[i];
    if (i > 0) {
      EXPECT_LT(set.value().records[i - 1].seq, record.seq);
    }
    EXPECT_FALSE(record.kernel.empty());
    EXPECT_GE(record.Selectivity(), 0.0);
    EXPECT_LE(record.Selectivity(), 1.0);
    ASSERT_EQ(record.predicates.size(), 1u);
    EXPECT_EQ(record.predicates[0].column, "a");
    EXPECT_EQ(record.predicates[0].op, "eq");
  }

  std::remove(log_path.c_str());
  for (size_t g = 1; g < 4; ++g) {
    std::remove((log_path + "." + std::to_string(g)).c_str());
  }
}

}  // namespace
}  // namespace serve
}  // namespace ebi
