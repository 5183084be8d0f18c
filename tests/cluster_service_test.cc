#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/auditor.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "serve/cluster/cluster_service.h"
#include "serve/cluster/partitioner.h"
#include "serve/cluster/shard_router.h"
#include "serve/query_service.h"
#include "storage/table.h"

namespace ebi {
namespace serve {
namespace cluster {
namespace {

constexpr int64_t kKeyDomain = 101;

/// Two-column fact table: key k = (i*7) % 101 (spread over the domain,
/// with a few NULL keys sprinkled in), value v = i % 5.
std::unique_ptr<Table> FactTable(size_t rows) {
  auto table = std::make_unique<Table>("facts");
  EXPECT_TRUE(table->AddColumn("k", Column::Type::kInt64).ok());
  EXPECT_TRUE(table->AddColumn("v", Column::Type::kInt64).ok());
  for (size_t i = 0; i < rows; ++i) {
    Value key = (i % 17 == 0)
                    ? Value::Null()
                    : Value::Int(static_cast<int64_t>(i * 7 % kKeyDomain));
    EXPECT_TRUE(
        table->AppendRow({key, Value::Int(static_cast<int64_t>(i % 5))})
            .ok());
  }
  return table;
}

std::vector<IndexSpec> BothColumns() {
  return {{"k", IndexKind::kEncodedBitmap}, {"v", IndexKind::kEncodedBitmap}};
}

/// Evenly spaced split points for a range partitioner over [0, 101).
std::vector<int64_t> EvenSplits(size_t shards) {
  std::vector<int64_t> splits;
  for (size_t s = 1; s < shards; ++s) {
    splits.push_back(static_cast<int64_t>(s * kKeyDomain / shards));
  }
  return splits;
}

/// The predicate mix the bit-identity grid replays: every kind the
/// router prunes on plus non-key conjuncts and negations.
std::vector<std::vector<Predicate>> QueryMix() {
  return {
      {Predicate::Eq("k", Value::Int(42))},
      {Predicate::Between("k", 20, 60)},
      {Predicate::Eq("v", Value::Int(2))},
      {Predicate::Between("k", 30, 80), Predicate::Eq("v", Value::Int(3))},
      {Predicate::In("k", {Value::Int(7), Value::Int(49), Value::Int(98)})},
      {Predicate::IsNull("k")},
      {Predicate::NotEq("v", Value::Int(0))},
      {Predicate::Between("k", 90, 10)},  // Empty range: zero fan-out.
      {Predicate::Eq("k", Value::Int(42)), Predicate::Eq("k", Value::Int(7))},
  };
}

TEST(PartitionerTest, HashCoversAllShardsAndIsStable) {
  HashPartitioner partitioner(4);
  std::vector<size_t> hits(4, 0);
  for (int64_t key = 0; key < 1000; ++key) {
    size_t shard = partitioner.ShardOf(key);
    ASSERT_LT(shard, 4u);
    EXPECT_EQ(shard, partitioner.ShardOf(key));  // Deterministic.
    ++hits[shard];
  }
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_GT(hits[s], 0u) << "shard " << s << " never hit";
  }
  // Hash cannot prune ranges: every shard may own part of any span.
  EXPECT_EQ(partitioner.ShardsForRange(10, 20).size(), 4u);
}

TEST(PartitionerTest, RangeOwnsSplitPointBoundariesExactly) {
  auto created = RangePartitioner::Create(3, {10, 20});
  ASSERT_TRUE(created.ok());
  const RangePartitioner& partitioner = *created.value();
  EXPECT_EQ(partitioner.ShardOf(-5), 0u);
  EXPECT_EQ(partitioner.ShardOf(10), 0u);   // Inclusive upper bound.
  EXPECT_EQ(partitioner.ShardOf(11), 1u);
  EXPECT_EQ(partitioner.ShardOf(20), 1u);
  EXPECT_EQ(partitioner.ShardOf(21), 2u);
  EXPECT_EQ(partitioner.ShardOf(1000), 2u);

  EXPECT_EQ(partitioner.ShardsForRange(0, 5),
            (std::vector<size_t>{0}));
  EXPECT_EQ(partitioner.ShardsForRange(5, 15),
            (std::vector<size_t>{0, 1}));
  EXPECT_EQ(partitioner.ShardsForRange(11, 1000),
            (std::vector<size_t>{1, 2}));
  EXPECT_TRUE(partitioner.ShardsForRange(8, 3).empty());
}

TEST(PartitionerTest, RangeCreateRejectsBadSplits) {
  EXPECT_FALSE(RangePartitioner::Create(3, {10}).ok());       // Too few.
  EXPECT_FALSE(RangePartitioner::Create(3, {20, 10}).ok());   // Unsorted.
  EXPECT_FALSE(RangePartitioner::Create(3, {10, 10}).ok());   // Duplicate.
  EXPECT_FALSE(RangePartitioner::Create(0, {}).ok());         // No shards.
  EXPECT_TRUE(RangePartitioner::Create(1, {}).ok());
}

TEST(ShardRouterTest, OwningShardsPrunesByKeyPredicates) {
  auto created = MakePartitioner(PartitionKind::kRange, 3, {10, 20});
  ASSERT_TRUE(created.ok());
  ShardRouter router(std::move(created).value(), "k");

  EXPECT_EQ(router.OwningShards({Predicate::Eq("k", Value::Int(15))}),
            (std::vector<size_t>{1}));
  EXPECT_EQ(router.OwningShards(
                {Predicate::In("k", {Value::Int(5), Value::Int(25)})}),
            (std::vector<size_t>{0, 2}));
  EXPECT_EQ(router.OwningShards({Predicate::Between("k", 12, 30)}),
            (std::vector<size_t>{1, 2}));
  // NULL keys pin to shard 0.
  EXPECT_EQ(router.OwningShards({Predicate::IsNull("k")}),
            (std::vector<size_t>{0}));
  // Negations and non-key predicates cannot prune.
  EXPECT_EQ(
      router.OwningShards({Predicate::NotEq("k", Value::Int(15))}).size(),
      3u);
  EXPECT_EQ(router.OwningShards({Predicate::Eq("v", Value::Int(1))}).size(),
            3u);
  // Conjuncts intersect: k = 15 AND k in {5, 25} owns no shard.
  EXPECT_TRUE(router
                  .OwningShards({Predicate::Eq("k", Value::Int(15)),
                                 Predicate::In("k", {Value::Int(5),
                                                     Value::Int(25)})})
                  .empty());
}

TEST(ShardRouterTest, RouteAppendTilesGlobalIdsExactly) {
  auto created = MakePartitioner(PartitionKind::kHash, 4);
  ASSERT_TRUE(created.ok());
  ShardRouter router(std::move(created).value(), "k");

  std::vector<std::vector<Value>> rows;
  for (int64_t i = 0; i < 64; ++i) {
    rows.push_back({i % 13 == 0 ? Value::Null() : Value::Int(i * 3),
                    Value::Int(i)});
  }
  ASSERT_TRUE(router.RouteAppend(rows, 0).ok());
  ASSERT_TRUE(router.RouteAppend(rows, 0).ok());  // Second batch extends.

  auto placement = router.placement();
  EXPECT_EQ(placement->total_rows, 128u);
  AuditReport report = InvariantAuditor::AuditClusterPartition(
      placement->shard_rows, placement->total_rows);
  EXPECT_TRUE(report.clean()) << report.ToString();
}

TEST(AuditorTest, ClusterPartitionAuditFlagsBrokenTilings) {
  // Clean tiling: rows 0..5 split across two shards.
  EXPECT_TRUE(InvariantAuditor::AuditClusterPartition(
                  {{0, 2, 4}, {1, 3, 5}}, 6)
                  .clean());
  // Row 3 owned twice.
  AuditReport dup =
      InvariantAuditor::AuditClusterPartition({{0, 2, 3}, {1, 3}}, 4);
  EXPECT_TRUE(dup.Has(ViolationKind::kClusterPartitionMismatch));
  // Row 2 owned by nobody.
  AuditReport gap =
      InvariantAuditor::AuditClusterPartition({{0}, {1, 3}}, 4);
  EXPECT_TRUE(gap.Has(ViolationKind::kClusterPartitionMismatch));
  // Out of append order within a shard.
  AuditReport order =
      InvariantAuditor::AuditClusterPartition({{2, 0}, {1, 3}}, 4);
  EXPECT_TRUE(order.Has(ViolationKind::kClusterPartitionMismatch));
  // Claim beyond total_rows.
  AuditReport range =
      InvariantAuditor::AuditClusterPartition({{0, 9}, {1}}, 3);
  EXPECT_TRUE(range.Has(ViolationKind::kClusterPartitionMismatch));
}

/// The tentpole acceptance bar: for every partitioner × shard count ×
/// worker count, the merged scatter-gather bitmap is bit-identical to a
/// single QueryService holding all rows — before and after appends.
TEST(ClusterServiceTest, ScatterGatherIsBitIdenticalToSingleService) {
  constexpr size_t kRows = 400;
  const std::vector<std::vector<Value>> extra_rows = {
      {Value::Int(42), Value::Int(2)},
      {Value::Null(), Value::Int(3)},
      {Value::Int(100), Value::Int(0)},
      {Value::Int(13), Value::Int(4)},
  };

  for (PartitionKind kind : {PartitionKind::kHash, PartitionKind::kRange}) {
    for (size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
      for (size_t workers : {size_t{1}, size_t{2}}) {
        SCOPED_TRACE("kind=" + std::string(kind == PartitionKind::kHash
                                               ? "hash"
                                               : "range") +
                     " shards=" + std::to_string(shards) +
                     " workers=" + std::to_string(workers));

        ServeOptions single_options;
        single_options.worker_threads = workers;
        QueryService single(single_options);
        ASSERT_TRUE(single.Start(FactTable(kRows), BothColumns()).ok());

        ClusterOptions options;
        options.shards = shards;
        options.partition = kind;
        if (kind == PartitionKind::kRange) {
          options.split_points = EvenSplits(shards);
        }
        options.key_column = "k";
        options.shard_options.worker_threads = workers;
        ClusterQueryService clustered(options);
        ASSERT_TRUE(clustered.Start(FactTable(kRows), BothColumns()).ok());

        auto compare_all = [&]() {
          for (const auto& predicates : QueryMix()) {
            auto expected = single.Select(predicates);
            auto actual = clustered.Select(predicates);
            ASSERT_TRUE(expected.ok()) << expected.status().ToString();
            ASSERT_TRUE(actual.ok()) << actual.status().ToString();
            EXPECT_FALSE(actual->partial);
            EXPECT_EQ(actual->selection.rows, expected->selection.rows);
            EXPECT_EQ(actual->selection.count, expected->selection.count);
            EXPECT_EQ(actual->coverage.Count(), actual->total_rows);
          }
        };
        compare_all();

        // Appends route through the cluster and land on the single
        // service in the same order; results must stay aligned.
        ASSERT_TRUE(single.Append(extra_rows).ok());
        ASSERT_TRUE(clustered.Append(extra_rows).ok());
        compare_all();

        // The placement still tiles [0, rows) exactly.
        auto placement = clustered.router().placement();
        EXPECT_EQ(placement->total_rows, kRows + extra_rows.size());
        AuditReport report = InvariantAuditor::AuditClusterPartition(
            placement->shard_rows, placement->total_rows);
        EXPECT_TRUE(report.clean()) << report.ToString();

        EXPECT_TRUE(clustered.Shutdown().ok());
        EXPECT_TRUE(single.Shutdown().ok());
      }
    }
  }
}

TEST(ClusterServiceTest, KeyPredicatesPruneFanout) {
  ClusterOptions options;
  options.shards = 4;
  options.partition = PartitionKind::kRange;
  options.split_points = EvenSplits(4);
  options.key_column = "k";
  ClusterQueryService clustered(options);
  ASSERT_TRUE(clustered.Start(FactTable(200), BothColumns()).ok());

  auto narrow = clustered.Select({Predicate::Eq("k", Value::Int(5))});
  ASSERT_TRUE(narrow.ok());
  EXPECT_EQ(narrow->visited_shards, (std::vector<size_t>{0}));

  auto wide = clustered.Select({Predicate::Eq("v", Value::Int(1))});
  ASSERT_TRUE(wide.ok());
  EXPECT_EQ(wide->visited_shards.size(), 4u);

  auto empty = clustered.Select({Predicate::Between("k", 50, 10)});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->visited_shards.empty());
  EXPECT_EQ(empty->selection.count, 0u);
  EXPECT_FALSE(empty->partial);
}

/// Expired deadlines fail with kDeadlineExceeded and malformed ones
/// (NaN, infinite, past what the clock can represent) with
/// kInvalidArgument, both before any shard sees the request.
TEST(ClusterServiceTest, ExpiredDeadlineRejectedBeforeAnyShardContact) {
  ClusterOptions options;
  options.shards = 2;
  options.key_column = "k";
  ClusterQueryService clustered(options);
  ASSERT_TRUE(clustered.Start(FactTable(50), BothColumns()).ok());
  obs::Counter* submitted =
      obs::MetricsRegistry::Global().GetCounter(obs::kMetricServeSubmitted);

  const struct {
    double deadline_ms;
    StatusCode code;
  } cases[] = {
      {-1.0, StatusCode::kDeadlineExceeded},
      {std::numeric_limits<double>::quiet_NaN(), StatusCode::kInvalidArgument},
      {std::numeric_limits<double>::infinity(), StatusCode::kInvalidArgument},
      {-std::numeric_limits<double>::infinity(),
       StatusCode::kInvalidArgument},
      {1e300, StatusCode::kInvalidArgument},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.deadline_ms);
    const uint64_t submitted_before = submitted->Value();
    RequestOptions request;
    request.deadline_ms = c.deadline_ms;
    auto result = clustered.Select({Predicate::Eq("v", Value::Int(1))},
                                   request);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), c.code);
    EXPECT_EQ(submitted->Value(), submitted_before);  // No shard contact.
  }
}

/// Two ways every shard misses: a sub-microsecond budget (each shard
/// rejects the request as expired at admission) and queue_depth 0 (each
/// shard sheds at Submit). kFail surfaces the shard's status; kPartial
/// converts it into an empty answer whose coverage mask vouches for
/// nothing.
TEST(ClusterServiceTest, PartialPolicyGovernsShardDeadlineMisses) {
  const struct {
    const char* name;
    std::optional<double> deadline_ms;
    size_t queue_depth;
    StatusCode code;
  } cases[] = {
      // Positive at admission, gone at scatter.
      {"tight deadline", 1e-4, ServeOptions().queue_depth,
       StatusCode::kDeadlineExceeded},
      {"shed at submit", std::nullopt, 0, StatusCode::kOverloaded},
  };
  obs::Counter* partials = obs::MetricsRegistry::Global().GetCounter(
      obs::kMetricClusterPartialResults);
  for (const auto& c : cases) {
    for (PartialResultPolicy policy :
         {PartialResultPolicy::kFail, PartialResultPolicy::kPartial}) {
      SCOPED_TRACE(c.name);
      ClusterOptions options;
      options.shards = 2;
      options.key_column = "k";
      options.partial_policy = policy;
      options.shard_options.queue_depth = c.queue_depth;
      ClusterQueryService clustered(options);
      ASSERT_TRUE(clustered.Start(FactTable(50), BothColumns()).ok());

      RequestOptions request;
      request.deadline_ms = c.deadline_ms;
      const uint64_t partials_before = partials->Value();
      auto result =
          clustered.Select({Predicate::Eq("v", Value::Int(1))}, request);
      if (policy == PartialResultPolicy::kFail) {
        ASSERT_FALSE(result.ok());
        EXPECT_EQ(result.status().code(), c.code);
        EXPECT_EQ(partials->Value(), partials_before);
      } else {
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_TRUE(result->partial);
        EXPECT_EQ(result->missing_shards, result->visited_shards);
        EXPECT_EQ(result->missing_shards.size(), 2u);
        EXPECT_EQ(result->selection.count, 0u);
        EXPECT_EQ(result->coverage.Count(), 0u);  // Vouches for no row.
        EXPECT_EQ(partials->Value(), partials_before + 1);
      }
    }
  }
}

TEST(ClusterServiceTest, StartValidatesConfiguration) {
  // The shard deadline fraction must lie in (0, 1]; NaN is not in it.
  for (double fraction : {0.0, -0.5, 1.5,
                          std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE(fraction);
    ClusterOptions options;
    options.shards = 2;
    options.key_column = "k";
    options.shard_deadline_fraction = fraction;
    ClusterQueryService clustered(options);
    EXPECT_EQ(clustered.Start(FactTable(10), BothColumns()).code(),
              StatusCode::kInvalidArgument);
  }
  {
    // The partition key must exist.
    ClusterOptions options;
    options.shards = 2;
    options.key_column = "missing";
    ClusterQueryService clustered(options);
    EXPECT_EQ(clustered.Start(FactTable(10), BothColumns()).code(),
              StatusCode::kNotFound);
  }
  {
    // Range partitioning needs exactly shards-1 split points.
    ClusterOptions options;
    options.shards = 3;
    options.partition = PartitionKind::kRange;
    options.split_points = {10};
    options.key_column = "k";
    ClusterQueryService clustered(options);
    EXPECT_EQ(clustered.Start(FactTable(10), BothColumns()).code(),
              StatusCode::kInvalidArgument);
  }
  {
    // Deleted rows have no owning shard.
    ClusterOptions options;
    options.shards = 2;
    options.key_column = "k";
    auto table = FactTable(10);
    ASSERT_TRUE(table->DeleteRow(3).ok());
    ClusterQueryService clustered(options);
    EXPECT_EQ(clustered.Start(std::move(table), BothColumns()).code(),
              StatusCode::kFailedPrecondition);
  }
}

TEST(ClusterServiceTest, AppendValidatesBeforeRouting) {
  ClusterOptions options;
  options.shards = 2;
  options.key_column = "k";
  ClusterQueryService clustered(options);
  ASSERT_TRUE(clustered.Start(FactTable(20), BothColumns()).ok());

  // Wrong arity and wrong type both bounce before any id is assigned.
  EXPECT_EQ(clustered.Append({{Value::Int(1)}}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(clustered
                .Append({{Value::Str("oops"), Value::Int(1)}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  auto placement = clustered.router().placement();
  EXPECT_EQ(placement->total_rows, 20u);  // Nothing routed.

  EXPECT_TRUE(clustered.Append({{Value::Int(7), Value::Int(1)}}).ok());
  EXPECT_EQ(clustered.router().placement()->total_rows, 21u);
}

}  // namespace
}  // namespace cluster
}  // namespace serve
}  // namespace ebi
