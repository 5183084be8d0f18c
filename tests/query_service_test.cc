#include "serve/query_service.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/thread_pool.h"
#include "index/bit_sliced_index.h"
#include "index/encoded_bitmap_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/executor.h"
#include "test_util.h"

namespace ebi {
namespace serve {
namespace {

using testing_util::ScanEquals;

/// Deterministic two-column table: a = i % 5, b = i % 3.
std::unique_ptr<Table> TwoColumnTable(size_t rows) {
  auto table = std::make_unique<Table>("serve");
  EXPECT_TRUE(table->AddColumn("a", Column::Type::kInt64).ok());
  EXPECT_TRUE(table->AddColumn("b", Column::Type::kInt64).ok());
  for (size_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(table
                    ->AppendRow({Value::Int(static_cast<int64_t>(i % 5)),
                                 Value::Int(static_cast<int64_t>(i % 3))})
                    .ok());
  }
  return table;
}

std::vector<IndexSpec> BothColumns() {
  return {{"a", IndexKind::kEncodedBitmap}, {"b", IndexKind::kSimpleBitmap}};
}

TEST(QueryServiceTest, ResultsIdenticalToSerialExecutor) {
  QueryService service;
  ASSERT_TRUE(service.Start(TwoColumnTable(64), BothColumns()).ok());

  // The reference: a plain serial executor over an identical table.
  std::unique_ptr<Table> reference = TwoColumnTable(64);
  IoAccountant io;
  EncodedBitmapIndex index_a(&reference->column(0), &reference->existence(),
                             &io);
  EncodedBitmapIndex index_b(&reference->column(1), &reference->existence(),
                             &io);
  ASSERT_TRUE(index_a.Build().ok());
  ASSERT_TRUE(index_b.Build().ok());
  SelectionExecutor serial(reference.get(), &io);
  serial.RegisterIndex("a", &index_a);
  serial.RegisterIndex("b", &index_b);

  const std::vector<std::vector<Predicate>> queries = {
      {Predicate::Eq("a", Value::Int(3))},
      {Predicate::Between("a", 1, 3)},
      {Predicate::Eq("a", Value::Int(2)), Predicate::Eq("b", Value::Int(1))},
      {Predicate::In("a", {Value::Int(0), Value::Int(4)})},
  };
  for (const auto& predicates : queries) {
    const Result<ServeResult> served = service.Select(predicates);
    ASSERT_TRUE(served.ok());
    EXPECT_EQ(served.value().epoch, 0u);
    const Result<SelectionResult> expected = serial.Select(predicates);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(served.value().selection.rows, expected.value().rows);
    EXPECT_EQ(served.value().selection.count, expected.value().count);
  }
}

TEST(QueryServiceTest, ZeroDeadlineIsDeterministicallyExceeded) {
  QueryService service;
  ASSERT_TRUE(service.Start(TwoColumnTable(16), BothColumns()).ok());
  obs::Counter* exceeded = obs::MetricsRegistry::Global().GetCounter(
      obs::kMetricServeDeadlineExceeded);
  const uint64_t before = exceeded->Value();

  RequestOptions options;
  options.deadline_ms = 0.0;  // Expired by the time a worker picks it up.
  const Result<ServeResult> result =
      service.Select({Predicate::Eq("a", Value::Int(1))}, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(exceeded->Value(), before + 1);
}

// Regression: a deadline that is already expired on arrival must be
// rejected at admission — synchronously from Submit — not after burning
// a queue slot, a pool dispatch, and a snapshot pin. Submit returning
// the error directly (instead of a ticket that later resolves to it) is
// the observable contract. A deadline the clock cannot hold (NaN,
// infinite, or too far out) is rejected the same way, as an invalid
// argument, whether the request carries it or the service default does.
TEST(QueryServiceTest, ExpiredOnArrivalIsRejectedAtAdmission) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const struct {
    std::optional<double> request_ms;
    double default_ms;
    StatusCode code;
  } cases[] = {
      {-5.0, 0.0, StatusCode::kDeadlineExceeded},  // Expired on arrival.
      {kNaN, 0.0, StatusCode::kInvalidArgument},
      {kInf, 0.0, StatusCode::kInvalidArgument},
      {-kInf, 0.0, StatusCode::kInvalidArgument},
      {1e300, 0.0, StatusCode::kInvalidArgument},
      {std::nullopt, kNaN, StatusCode::kInvalidArgument},
      {std::nullopt, kInf, StatusCode::kInvalidArgument},
      {std::nullopt, 1e300, StatusCode::kInvalidArgument},
  };
  obs::Counter* exceeded = obs::MetricsRegistry::Global().GetCounter(
      obs::kMetricServeDeadlineExceeded);
  for (const auto& c : cases) {
    SCOPED_TRACE(c.request_ms.value_or(c.default_ms));
    ServeOptions serve_options;
    serve_options.default_deadline_ms = c.default_ms;
    QueryService service(serve_options);
    ASSERT_TRUE(service.Start(TwoColumnTable(16), BothColumns()).ok());
    const uint64_t before = exceeded->Value();

    RequestOptions options;
    options.deadline_ms = c.request_ms;
    const Result<std::shared_ptr<ServeTicket>> ticket =
        service.Submit({Predicate::Eq("a", Value::Int(1))}, options);
    ASSERT_FALSE(ticket.ok());  // No ticket: never entered the queue.
    EXPECT_EQ(ticket.status().code(), c.code);
    if (c.code == StatusCode::kDeadlineExceeded) {
      EXPECT_GE(exceeded->Value(), before + 1);
    }
    EXPECT_EQ(service.InFlight(), 0u);  // Back out of the in-flight count.
  }
}

// A deadline just inside what the clock can represent is still served.
TEST(QueryServiceTest, LargeFiniteDeadlineIsServed) {
  QueryService service;
  ASSERT_TRUE(service.Start(TwoColumnTable(16), BothColumns()).ok());
  RequestOptions options;
  options.deadline_ms = 1e12;  // About 32 years.
  const Result<ServeResult> result =
      service.Select({Predicate::Eq("a", Value::Int(1))}, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().selection.count, 3u);
}

// ServeTicket::WaitFor (the cluster gather's wait up to its deadline):
// times out without consuming the outcome, then the outcome is still
// there for a later bounded or unbounded wait.
TEST(QueryServiceTest, WaitForTimesOutThenDeliversOutcome) {
  QueryService service;
  ASSERT_TRUE(service.Start(TwoColumnTable(64), BothColumns()).ok());

  const Result<std::shared_ptr<ServeTicket>> ticket =
      service.Submit({Predicate::Eq("a", Value::Int(1))});
  ASSERT_TRUE(ticket.ok());
  // Bounded waits eventually observe the resolution; a zero-budget wait
  // is a poll that can legally miss it.
  std::optional<Result<ServeResult>> outcome;
  for (int i = 0; i < 10000 && !outcome.has_value(); ++i) {
    outcome = (*ticket)->WaitFor(1.0);
  }
  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->ok());
  // The outcome is retained: repeated waits agree.
  const Result<ServeResult> again = (*ticket)->Wait();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().selection.count, outcome->value().selection.count);
}

TEST(QueryServiceTest, ZeroQueueDepthShedsEveryRequest) {
  ServeOptions options;
  options.queue_depth = 0;
  QueryService service(options);
  ASSERT_TRUE(service.Start(TwoColumnTable(16), BothColumns()).ok());
  obs::Counter* shed =
      obs::MetricsRegistry::Global().GetCounter(obs::kMetricServeShed);
  const uint64_t before = shed->Value();

  const Result<ServeResult> result =
      service.Select({Predicate::Eq("a", Value::Int(1))});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOverloaded);
  EXPECT_GE(shed->Value(), before + 1);
  EXPECT_EQ(service.InFlight(), 0u);
}

TEST(QueryServiceTest, AppendPublishesNewEpochVisibleToLaterQueries) {
  QueryService service;
  ASSERT_TRUE(service.Start(TwoColumnTable(6), BothColumns()).ok());
  EXPECT_EQ(service.CurrentEpoch(), 0u);

  // Two new rows, one with a brand-new value for `a` (domain expansion).
  const Result<uint64_t> epoch =
      service.Append({{Value::Int(2), Value::Int(0)},
                      {Value::Int(77), Value::Int(1)}});
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(epoch.value(), 1u);
  EXPECT_EQ(service.CurrentEpoch(), 1u);

  const std::vector<size_t> published = service.PublishedRowCounts();
  ASSERT_EQ(published.size(), 2u);
  EXPECT_EQ(published[0], 6u);
  EXPECT_EQ(published[1], 8u);

  const Result<ServeResult> fresh =
      service.Select({Predicate::Eq("a", Value::Int(77))});
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.value().epoch, 1u);
  EXPECT_EQ(fresh.value().selection.count, 1u);
  EXPECT_TRUE(fresh.value().selection.rows.Get(7));
}

TEST(QueryServiceTest, PinnedSnapshotOutlivesPublishes) {
  QueryService service;
  ASSERT_TRUE(service.Start(TwoColumnTable(6), BothColumns()).ok());

  SnapshotManager::Pin pin = service.snapshots().Acquire();
  ASSERT_TRUE(static_cast<bool>(pin));
  EXPECT_EQ(pin->epoch(), 0u);

  ASSERT_TRUE(service.Append({{Value::Int(1), Value::Int(1)}}).ok());
  ASSERT_TRUE(service.Append({{Value::Int(2), Value::Int(2)}}).ok());
  EXPECT_EQ(service.CurrentEpoch(), 2u);

  // The pinned version still answers from its own frozen state.
  EXPECT_EQ(pin->NumRows(), 6u);
  SelectionExecutor executor = pin->MakeExecutor();
  const Result<SelectionResult> old =
      executor.Select({Predicate::Eq("a", Value::Int(1))});
  ASSERT_TRUE(old.ok());
  EXPECT_EQ(old.value().rows, ScanEquals(pin->table(), pin->table().column(0), 1));

  // The pin announced epoch 1 (pre-publish), so reclamation holds back
  // everything retired after it: both superseded snapshots are retained
  // until the pin drops, then both go in the release's reclaim pass.
  EXPECT_EQ(service.snapshots().RetiredCount(), 2u);
  const uint64_t reclaimed_before = service.snapshots().ReclaimedCount();
  pin.Release();
  EXPECT_EQ(service.snapshots().RetiredCount(), 0u);
  EXPECT_EQ(service.snapshots().ReclaimedCount(), reclaimed_before + 2);
}

TEST(QueryServiceTest, ShutdownDrainsAndRejectsNewWork) {
  QueryService service;
  ASSERT_TRUE(service.Start(TwoColumnTable(32), BothColumns()).ok());

  std::vector<std::shared_ptr<ServeTicket>> tickets;
  for (int i = 0; i < 8; ++i) {
    Result<std::shared_ptr<ServeTicket>> ticket =
        service.Submit({Predicate::Eq("a", Value::Int(i % 5))});
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(ticket.value());
  }
  ASSERT_TRUE(service.Shutdown().ok());
  EXPECT_EQ(service.InFlight(), 0u);

  // Every admitted request completed with a real outcome.
  for (const auto& ticket : tickets) {
    EXPECT_TRUE(ticket->Wait().ok());
  }

  const Result<ServeResult> rejected =
      service.Select({Predicate::Eq("a", Value::Int(1))});
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);
  const Result<uint64_t> append =
      service.Append({{Value::Int(1), Value::Int(1)}});
  ASSERT_FALSE(append.ok());
  EXPECT_EQ(append.status().code(), StatusCode::kFailedPrecondition);
}

TEST(QueryServiceTest, MalformedAppendRejectedWithoutPoisoningService) {
  QueryService service;
  ASSERT_TRUE(service.Start(TwoColumnTable(4), BothColumns()).ok());

  const Result<uint64_t> arity = service.Append({{Value::Int(1)}});
  ASSERT_FALSE(arity.ok());
  EXPECT_EQ(arity.status().code(), StatusCode::kInvalidArgument);

  const Result<uint64_t> type =
      service.Append({{Value::Str("x"), Value::Int(0)}});
  ASSERT_FALSE(type.ok());
  EXPECT_EQ(type.status().code(), StatusCode::kInvalidArgument);

  EXPECT_EQ(service.CurrentEpoch(), 0u);
  const Result<uint64_t> good =
      service.Append({{Value::Int(1), Value::Int(1)}});
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 1u);
}

TEST(QueryServiceTest, LifecycleValidation) {
  QueryService service;
  // Before Start: everything is a precondition failure.
  EXPECT_EQ(service.Select({Predicate::Eq("a", Value::Int(1))})
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.Append({{Value::Int(1)}}).status().code(),
            StatusCode::kFailedPrecondition);

  // A spec naming a missing column fails Start and allows a retry.
  EXPECT_FALSE(
      service.Start(TwoColumnTable(4), {{"nope", IndexKind::kSimpleBitmap}})
          .ok());
  ASSERT_TRUE(service.Start(TwoColumnTable(4), BothColumns()).ok());
  EXPECT_EQ(service.Start(TwoColumnTable(4), BothColumns()).code(),
            StatusCode::kFailedPrecondition);

  // Duplicate serving specs on one column are rejected up front.
  QueryService other;
  EXPECT_EQ(other.Start(TwoColumnTable(4), {{"a", IndexKind::kSimpleBitmap},
                                            {"a", IndexKind::kEncodedBitmap}})
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(QueryServiceTest, RequestTraceRecordsServeSpan) {
  QueryService service;
  ASSERT_TRUE(service.Start(TwoColumnTable(16), BothColumns()).ok());

  obs::QueryTrace trace;
  RequestOptions options;
  options.trace = &trace;
  const Result<ServeResult> result =
      service.Select({Predicate::Eq("a", Value::Int(2))}, options);
  ASSERT_TRUE(result.ok());

  const obs::TraceSpan* span = trace.Find("serve.request");
  ASSERT_NE(span, nullptr);
  EXPECT_FALSE(span->attrs.empty());
  EXPECT_NE(trace.Find("executor.select"), nullptr);
}

TEST(QueryServiceTest, ReclaimCounterTracksReclaimedCount) {
  obs::Counter* reclaimed = obs::MetricsRegistry::Global().GetCounter(
      obs::kMetricServeSnapshotsReclaimed);
  const uint64_t before = reclaimed->Value();
  QueryService service;
  ASSERT_TRUE(service.Start(TwoColumnTable(6), BothColumns()).ok());
  // A pin held across publishes defers reclaims to its release (the
  // unpin path), the rest go at publish time.
  SnapshotManager::Pin pin = service.snapshots().Acquire();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(service.Append({{Value::Int(i), Value::Int(i)}}).ok());
  }
  pin.Release();
  ASSERT_TRUE(service.Append({{Value::Int(4), Value::Int(4)}}).ok());
  ASSERT_TRUE(service.Shutdown().ok());
  EXPECT_EQ(service.snapshots().ReclaimedCount(), 4u);
  EXPECT_EQ(reclaimed->Value() - before,
            service.snapshots().ReclaimedCount());
}

TEST(QueryServiceTest, StageHistogramsObserveOnlyStagesThatRan) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Histogram* const histograms[] = {
      registry.GetHistogram(obs::kMetricServeQueueMs),
      registry.GetHistogram(obs::kMetricServeStagePinMs),
      registry.GetHistogram(obs::kMetricServeStagePlanMs),
      registry.GetHistogram(obs::kMetricServeStageExecuteMs),
      registry.GetHistogram(obs::kMetricServeLatencyMs)};
  uint64_t before[5];
  for (size_t i = 0; i < 5; ++i) {
    before[i] = histograms[i]->TotalCount();
  }
  QueryService service;
  ASSERT_TRUE(service.Start(TwoColumnTable(16), BothColumns()).ok());
  ASSERT_TRUE(service.Select({Predicate::Eq("a", Value::Int(1))}).ok());
  ASSERT_TRUE(service.Select({Predicate::Eq("b", Value::Int(2))}).ok());
  // Fails in the executor: every stage ran.
  ASSERT_FALSE(service.Select({Predicate::Eq("zzz", Value::Int(1))}).ok());
  // A one-nanosecond budget passes admission but has expired by the time
  // a worker picks the request up: it never pins, plans or executes.
  RequestOptions expiring;
  expiring.deadline_ms = 1e-6;
  const Result<ServeResult> late =
      service.Select({Predicate::Eq("a", Value::Int(1))}, expiring);
  ASSERT_EQ(late.status().code(), StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(service.Shutdown().ok());
  // queue, pin, plan, execute, end-to-end.
  const uint64_t expected[5] = {4, 3, 3, 3, 4};
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(histograms[i]->TotalCount() - before[i], expected[i]) << i;
  }
}

TEST(QueryServiceTest, TelemetrySinksProjectOneRequestRecord) {
  const std::string log_path =
      std::string(::testing::TempDir()) + "/ebi_request_record.jsonl";
  std::remove(log_path.c_str());
  ServeOptions options;
  options.worker_threads = 1;
  options.telemetry.enabled = true;
  options.telemetry.sample_rate = 1.0;
  options.telemetry.slow_threshold_ms = 0.0;
  options.telemetry.ring_capacity = 4;
  options.telemetry.workload_log_path = log_path;
  QueryService service(options);
  ASSERT_TRUE(service.Start(TwoColumnTable(30), BothColumns()).ok());
  const Result<ServeResult> ok =
      service.Select({Predicate::Eq("a", Value::Int(2)),
                      Predicate::In("b", {Value::Int(0), Value::Int(1)})});
  ASSERT_TRUE(ok.ok());
  const Result<ServeResult> failed =
      service.Select({Predicate::Eq("zzz", Value::Int(1))});
  ASSERT_FALSE(failed.ok());
  ASSERT_TRUE(service.Shutdown().ok());

  // Sampled at rate 1 and slow at threshold 0: both rings hold both
  // requests, span tree and query text included.
  for (obs::RecordRing* ring : {service.trace_ring(), service.slow_log()}) {
    ASSERT_NE(ring, nullptr);
    const std::vector<obs::RequestRecord> records = ring->Snapshot();
    ASSERT_EQ(records.size(), 2u);
    const obs::RequestRecord& first = records[0];
    EXPECT_EQ(first.status, StatusCode::kOk);
    EXPECT_EQ(first.rows_selected, ok.value().selection.count);
    EXPECT_EQ(first.rows_total, 30u);
    EXPECT_EQ(first.vectors, ok.value().selection.io.vectors_read);
    EXPECT_TRUE(first.slow);
    EXPECT_EQ(first.query, "a = 2 AND b IN {0, 1}");
    ASSERT_EQ(first.predicates.size(), 2u);
    EXPECT_EQ(first.predicates[1].literals, (std::vector<int64_t>{0, 1}));
    ASSERT_TRUE(first.root.has_value());
    EXPECT_NE(obs::SpanJson(*first.root).find("serve.request"),
              std::string::npos);
    const obs::RequestRecord& second = records[1];
    EXPECT_EQ(second.status, failed.status().code());
    EXPECT_EQ(second.rows_selected, 0u);
    EXPECT_TRUE(second.execute_ms.has_value());
    ASSERT_EQ(second.predicates.size(), 1u);
    EXPECT_EQ(second.predicates[0].column, "zzz");
    EXPECT_NE(ring->DumpJson().find(std::string("\"status\":\"") +
                                    StatusCodeName(failed.status().code())),
              std::string::npos);
  }

  // The log takes only the ok request, without its span tree.
  const Result<obs::WorkloadLogRead> read = obs::ReadWorkloadLog(log_path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().skipped, 0u);
  ASSERT_EQ(read.value().records.size(), 1u);
  const obs::RequestRecord& logged = read.value().records[0];
  EXPECT_EQ(logged.rows_selected, ok.value().selection.count);
  EXPECT_TRUE(logged.slow);
  EXPECT_EQ(logged.query, "a = 2 AND b IN {0, 1}");
  EXPECT_FALSE(logged.root.has_value());
  std::remove(log_path.c_str());
}

TEST(QueryServiceTest, ConcurrentAppendsAllLandExactlyOnce) {
  constexpr size_t kSeedRows = 3;
  QueryService service;
  ASSERT_TRUE(service.Start(TwoColumnTable(kSeedRows), BothColumns()).ok());

  // Drive appends from pool workers so several callers race into the
  // combining writer. Every batch must land exactly once. Client values
  // start at 100, clear of the seed rows' domain.
  constexpr size_t kClients = 8;
  constexpr size_t kRowsPerClient = 5;
  exec::ThreadPool clients(4);
  std::vector<Result<uint64_t>> epochs(kClients, Status::Internal("unset"));
  clients.ParallelFor(0, kClients, [&](size_t c) {
    std::vector<std::vector<Value>> rows;
    for (size_t r = 0; r < kRowsPerClient; ++r) {
      rows.push_back({Value::Int(static_cast<int64_t>(100 + c)),
                      Value::Int(static_cast<int64_t>(r % 3))});
    }
    epochs[c] = service.Append(std::move(rows));
  });

  const std::vector<size_t> published = service.PublishedRowCounts();
  for (size_t c = 0; c < kClients; ++c) {
    ASSERT_TRUE(epochs[c].ok()) << c;
    const uint64_t epoch = epochs[c].value();
    ASSERT_LT(epoch, published.size());
    // The batch is contained in the epoch it was assigned to.
    EXPECT_GE(published[epoch], kSeedRows + kRowsPerClient);
  }
  EXPECT_EQ(published.back(), kSeedRows + kClients * kRowsPerClient);

  // Each client's value shows up exactly kRowsPerClient times.
  for (size_t c = 0; c < kClients; ++c) {
    const Result<ServeResult> got = service.Select(
        {Predicate::Eq("a", Value::Int(static_cast<int64_t>(100 + c)))});
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value().selection.count, kRowsPerClient) << c;
  }
}

TEST(QueryServiceTest, BitSlicedServesEveryAppendBatch) {
  // a = i % 5 spans [0, 4]: three slices, bias 0. Batches: a value inside
  // that range, one that needs more slices, and one below the bias, which
  // a clone cannot take, so the snapshot rebuilds the index.
  QueryService service;
  ASSERT_TRUE(
      service.Start(TwoColumnTable(40), {{"a", IndexKind::kBitSliced}}).ok());
  const std::vector<std::vector<std::vector<Value>>> batches = {
      {{Value::Int(3), Value::Int(0)}, {Value::Int(1), Value::Int(1)}},
      {{Value::Int(200), Value::Int(2)}, {Value::Int(4), Value::Int(0)}},
      {{Value::Int(-3), Value::Int(1)}, {Value::Int(2), Value::Int(2)}},
  };
  const std::vector<std::vector<Predicate>> queries = {
      {Predicate::Eq("a", Value::Int(3))},
      {Predicate::Eq("a", Value::Int(200))},
      {Predicate::Eq("a", Value::Int(-3))},
      {Predicate::In("a", {Value::Int(0), Value::Int(200), Value::Int(-3)})},
      {Predicate::Between("a", 1, 3)},
      {Predicate::Between("a", -5, 250)},
      {Predicate::Between("a", 4, 200)},
  };
  const std::vector<int64_t> biases = {0, 0, -3};
  for (size_t b = 0; b < batches.size(); ++b) {
    ASSERT_TRUE(service.Append(batches[b]).ok()) << b;
    SnapshotManager::Pin pin = service.snapshots().Acquire();
    const auto* index = dynamic_cast<const BitSlicedIndex*>(pin->index("a"));
    ASSERT_NE(index, nullptr) << b;
    EXPECT_EQ(index->bias(), biases[b]) << b;
    EXPECT_EQ(index->Name(), "bit-sliced");
    const SelectionExecutor executor = pin->MakeExecutor();
    for (const std::vector<Predicate>& predicates : queries) {
      const Result<ServeResult> served = service.Select(predicates);
      ASSERT_TRUE(served.ok());
      ASSERT_EQ(served.value().epoch, b + 1);
      const Result<BitVector> scanned = executor.SelectByScan(predicates);
      ASSERT_TRUE(scanned.ok());
      EXPECT_EQ(served.value().selection.rows, scanned.value())
          << "batch " << b << ": " << predicates[0].ToString();
    }
  }
}

}  // namespace
}  // namespace serve
}  // namespace ebi
