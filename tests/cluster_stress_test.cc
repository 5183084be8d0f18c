#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/auditor.h"
#include "exec/thread_pool.h"
#include "serve/cluster/cluster_service.h"
#include "storage/table.h"

namespace ebi {
namespace serve {
namespace cluster {
namespace {

std::unique_ptr<Table> SeedTable(size_t rows) {
  auto table = std::make_unique<Table>("cluster_stress");
  EXPECT_TRUE(table->AddColumn("k", Column::Type::kInt64).ok());
  EXPECT_TRUE(table->AddColumn("v", Column::Type::kInt64).ok());
  for (size_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(table->AppendRow({Value::Int(static_cast<int64_t>(i % 64)),
                                  Value::Int(static_cast<int64_t>(i % 4))})
                    .ok());
  }
  return table;
}

/// Concurrent cluster queries + routed appends, then a drain — the TSan
/// leg of the cluster suite (wired into ci.yml's sanitize job and
/// scripts/repro.sh). There are more readers than a shard's queue holds,
/// so some queries shed and come back as partial results while appends
/// publish underneath them. The invariants checked are coarse on
/// purpose: every successful selection is internally consistent (count
/// == set bits, result and coverage sized to its placement) and the
/// final placement tiles exactly. Data-race freedom is TSan's half of
/// the bargain.
TEST(ClusterStressTest, ConcurrentQueriesAppendsAndDrain) {
  constexpr size_t kSeedRows = 128;
  constexpr size_t kReaders = 12;  // > queue_depth: sheds happen.
  constexpr size_t kQueriesPerReader = 30;
  constexpr size_t kAppendBatches = 20;
  constexpr size_t kRowsPerBatch = 4;

  ClusterOptions options;
  options.shards = 2;
  options.partition = PartitionKind::kRange;
  options.split_points = {31};
  // Move-assigned: GCC 12 at -O3 inlines assignment from a literal into
  // a memcpy it flags with a false -Wrestrict.
  options.key_column = std::string("k");
  options.shard_options.worker_threads = 2;
  options.shard_options.queue_depth = 8;
  options.partial_policy = PartialResultPolicy::kPartial;

  ClusterQueryService clustered(options);
  ASSERT_TRUE(clustered
                  .Start(SeedTable(kSeedRows),
                         {{"k", IndexKind::kEncodedBitmap},
                          {"v", IndexKind::kEncodedBitmap}})
                  .ok());

  std::atomic<bool> append_failed{false};
  std::atomic<bool> query_failed{false};
  std::atomic<size_t> completed_queries{0};

  {
    exec::ThreadPool drivers(kReaders + 1);
    drivers.Submit([&]() {
      for (size_t b = 0; b < kAppendBatches; ++b) {
        std::vector<std::vector<Value>> rows;
        for (size_t r = 0; r < kRowsPerBatch; ++r) {
          const auto key = static_cast<int64_t>((b * kRowsPerBatch + r) % 64);
          rows.push_back({Value::Int(key),
                          Value::Int(static_cast<int64_t>(b % 4))});
        }
        if (!clustered.Append(rows).ok()) {
          append_failed.store(true);
          return;
        }
      }
    });
    for (size_t reader = 0; reader < kReaders; ++reader) {
      drivers.Submit([&, reader]() {
        for (size_t q = 0; q < kQueriesPerReader; ++q) {
          std::vector<Predicate> predicates;
          switch ((reader + q) % 3) {
            case 0:
              predicates = {Predicate::Between("k", 0, 31)};
              break;
            case 1:
              predicates = {Predicate::Eq("v", Value::Int(
                                static_cast<int64_t>(q % 4)))};
              break;
            default:
              predicates = {Predicate::Between("k", 16, 47),
                            Predicate::Eq("v", Value::Int(1))};
              break;
          }
          auto result = clustered.Select(predicates);
          if (!result.ok()) {
            // Under load, shed/deadline outcomes are legal; hard errors
            // are not.
            if (result.status().code() != StatusCode::kOverloaded &&
                result.status().code() != StatusCode::kDeadlineExceeded) {
              query_failed.store(true);
            }
            continue;
          }
          completed_queries.fetch_add(1);
          if (result->selection.rows.Count() != result->selection.count ||
              result->selection.rows.size() != result->total_rows ||
              result->coverage.size() != result->total_rows) {
            query_failed.store(true);
            return;
          }
        }
      });
    }
    // Pool destructor joins: every driver finished when we exit scope.
  }

  EXPECT_FALSE(append_failed.load());
  EXPECT_FALSE(query_failed.load());
  EXPECT_GT(completed_queries.load(), 0u);

  // Drain while nothing is in flight anymore, then verify the placement
  // still tiles exactly and epochs advanced.
  EXPECT_TRUE(clustered.Shutdown().ok());
  EXPECT_EQ(clustered.AppendEpoch(), kAppendBatches);
  auto placement = clustered.router().placement();
  EXPECT_EQ(placement->total_rows,
            kSeedRows + kAppendBatches * kRowsPerBatch);
  AuditReport report = InvariantAuditor::AuditClusterPartition(
      placement->shard_rows, placement->total_rows);
  EXPECT_TRUE(report.clean()) << report.ToString();
}

/// Queries racing a drain must either complete or be rejected cleanly —
/// never crash, never return a malformed result.
TEST(ClusterStressTest, QueriesRacingShutdownFailCleanly) {
  ClusterOptions options;
  options.shards = 2;
  options.key_column = "k";
  options.shard_options.worker_threads = 1;
  ClusterQueryService clustered(options);
  ASSERT_TRUE(clustered
                  .Start(SeedTable(64),
                         {{"k", IndexKind::kEncodedBitmap},
                          {"v", IndexKind::kEncodedBitmap}})
                  .ok());

  std::atomic<bool> malformed{false};
  {
    exec::ThreadPool drivers(2);
    drivers.Submit([&]() {
      for (size_t q = 0; q < 50; ++q) {
        auto result = clustered.Select({Predicate::Between("k", 0, 63)});
        if (result.ok() &&
            result->selection.rows.Count() != result->selection.count) {
          malformed.store(true);
          return;
        }
      }
    });
    drivers.Submit([&]() { clustered.Shutdown().IgnoreError(); });
  }
  EXPECT_FALSE(malformed.load());
}

}  // namespace
}  // namespace cluster
}  // namespace serve
}  // namespace ebi
