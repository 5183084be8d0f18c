#include "obs/telemetry.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ebi {
namespace obs {
namespace {

// --- TraceSampler ----------------------------------------------------------

TEST(TraceSamplerTest, RateZeroNeverSamples) {
  TraceSampler sampler(0.0);
  for (uint64_t seq = 0; seq < 1000; ++seq) {
    EXPECT_FALSE(sampler.DecideFor(seq));
  }
}

TEST(TraceSamplerTest, RateOneAlwaysSamples) {
  TraceSampler sampler(1.0);
  for (uint64_t seq = 0; seq < 1000; ++seq) {
    EXPECT_TRUE(sampler.DecideFor(seq));
  }
}

TEST(TraceSamplerTest, RateClampsOutOfRange) {
  EXPECT_DOUBLE_EQ(TraceSampler(-0.5).rate(), 0.0);
  EXPECT_DOUBLE_EQ(TraceSampler(7.0).rate(), 1.0);
}

TEST(TraceSamplerTest, DecisionsAreDeterministic) {
  // Two samplers at the same rate agree on every sequence number — the
  // sampled set is a pure function of (rate, seq), reproducible across
  // processes and runs.
  TraceSampler a(0.25);
  TraceSampler b(0.25);
  for (uint64_t seq = 0; seq < 4096; ++seq) {
    EXPECT_EQ(a.DecideFor(seq), b.DecideFor(seq)) << seq;
  }
}

TEST(TraceSamplerTest, DecideDrawsSequentially) {
  TraceSampler stateful(0.5);
  TraceSampler pure(0.5);
  for (uint64_t seq = 0; seq < 256; ++seq) {
    EXPECT_EQ(stateful.Decide(), pure.DecideFor(seq)) << seq;
  }
}

TEST(TraceSamplerTest, SampledFractionTracksRate) {
  TraceSampler sampler(0.3);
  size_t sampled = 0;
  const size_t n = 20000;
  for (uint64_t seq = 0; seq < n; ++seq) {
    sampled += sampler.DecideFor(seq) ? 1 : 0;
  }
  const double fraction = static_cast<double>(sampled) / n;
  EXPECT_NEAR(fraction, 0.3, 0.02);
}

// --- RecordRing ------------------------------------------------------------

RequestRecord MakeRecord(double total_ms) {
  RequestRecord record;
  record.total_ms = total_ms;
  record.root = TraceSpan();
  record.root->name = "query";
  record.root->attrs.emplace_back("rows", AttrValue::Uint(7));
  return record;
}

TEST(RecordRingTest, KeepsMostRecentRecords) {
  RecordRing ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  for (int i = 0; i < 10; ++i) {
    ring.Push(MakeRecord(static_cast<double>(i)));
  }
  EXPECT_EQ(ring.TotalCaptured(), 10u);
  const std::vector<RequestRecord> records = ring.Snapshot();
  ASSERT_EQ(records.size(), 4u);
  // The four most recent pushes survive, oldest first.
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, 6 + i);
    EXPECT_DOUBLE_EQ(records[i].total_ms, static_cast<double>(6 + i));
    EXPECT_EQ(records[i].root->name, "query");
  }
}

TEST(RecordRingTest, CapacityClampsToOne) {
  RecordRing ring(0);
  EXPECT_EQ(ring.capacity(), 1u);
  ring.Push(MakeRecord(1.0));
  ring.Push(MakeRecord(2.0));
  const std::vector<RequestRecord> records = ring.Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_DOUBLE_EQ(records[0].total_ms, 2.0);
}

TEST(RecordRingTest, DumpJsonRendersRecordsAndSpanTrees) {
  RecordRing ring(2);
  ring.Push(MakeRecord(1.5));
  RequestRecord slow;
  slow.slow = true;
  slow.query = "a = 2";
  slow.total_ms = 62.0;
  ring.Push(slow);
  const std::string json = ring.DumpJson();
  ASSERT_EQ(json.front(), '[') << json;
  ASSERT_EQ(json.back(), ']') << json;
  EXPECT_NE(json.find("\"seq\":0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ms\":1.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"query\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"rows\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"seq\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"slow\":true,\"query\":\"a = 2\"}"),
            std::string::npos)
      << json;
  // One span tree between the two records: the second has none.
  EXPECT_EQ(json.find("\"trace\""), json.rfind("\"trace\"")) << json;
}

TEST(RecordRingTest, ConcurrentPushesNeverLoseOrTearRecords) {
  // TSan target (scripts/repro.sh runs this suite under
  // -fsanitize=thread): concurrent writers claim distinct slots via the
  // atomic counter and lock only their slot.
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 500;
  RecordRing ring(64);
  exec::ThreadPool pool(4);
  pool.ParallelFor(0, kThreads, [&](size_t t) {
    for (size_t i = 0; i < kPerThread; ++i) {
      ring.Push(MakeRecord(static_cast<double>(t)));
    }
  });
  EXPECT_EQ(ring.TotalCaptured(), kThreads * kPerThread);
  const std::vector<RequestRecord> records = ring.Snapshot();
  EXPECT_EQ(records.size(), ring.capacity());
  for (size_t i = 0; i < records.size(); ++i) {
    // Every surviving record is whole: a copied-in root, not a torn mix.
    ASSERT_TRUE(records[i].root.has_value());
    EXPECT_EQ(records[i].root->name, "query");
    ASSERT_EQ(records[i].root->attrs.size(), 1u);
    if (i > 0) {
      EXPECT_LT(records[i - 1].seq, records[i].seq);
    }
  }
}

// --- Exporter goldens ------------------------------------------------------

/// A private registry with one counter and one small histogram whose
/// rendering is fully deterministic.
void FillRegistry(MetricsRegistry* registry) {
  registry->GetCounter("test.requests")->Increment(3);
  Histogram* latency =
      registry->GetHistogram("test.latency_ms", {1.0, 2.0, 5.0});
  latency->Observe(0.5);
  latency->Observe(1.5);
  latency->Observe(10.0);
}

TEST(MetricsExportTest, PrometheusGolden) {
  MetricsRegistry registry;
  FillRegistry(&registry);
  const std::string expected =
      "# TYPE test_requests counter\n"
      "test_requests 3\n"
      "# TYPE test_latency_ms histogram\n"
      "test_latency_ms_bucket{le=\"1\"} 1\n"
      "test_latency_ms_bucket{le=\"2\"} 2\n"
      "test_latency_ms_bucket{le=\"5\"} 2\n"
      "test_latency_ms_bucket{le=\"+Inf\"} 3\n"
      "test_latency_ms_sum 12\n"
      "test_latency_ms_count 3\n";
  EXPECT_EQ(registry.RenderPrometheus(), expected);
}

TEST(MetricsExportTest, JsonGolden) {
  MetricsRegistry registry;
  FillRegistry(&registry);
  const std::string expected =
      "{\"counters\":{\"test.requests\":3},"
      "\"histograms\":{\"test.latency_ms\":{"
      "\"count\":3,\"sum\":12,\"mean\":4,"
      "\"p50\":1.5,\"p99\":5,\"p999\":5,"
      "\"bounds\":[1,2,5],\"buckets\":[1,1,0,1]}}}";
  EXPECT_EQ(registry.RenderJson(), expected);
}

TEST(MetricsExportTest, QuantileInterpolatesWithinBucket) {
  MetricsRegistry registry;
  Histogram* histogram = registry.GetHistogram("test.q", {10.0, 20.0});
  // 10 observations in (10, 20]: quantiles interpolate linearly inside
  // the bucket.
  for (int i = 0; i < 10; ++i) {
    histogram->Observe(15.0);
  }
  EXPECT_DOUBLE_EQ(histogram->Quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(histogram->Quantile(0.5), 15.0);
  EXPECT_DOUBLE_EQ(histogram->Quantile(1.0), 20.0);
  // Overflow values report the last finite bound.
  histogram->Observe(1000.0);
  EXPECT_DOUBLE_EQ(histogram->Quantile(1.0), 20.0);
}

TEST(MetricsExportTest, EmptyHistogramQuantileIsZero) {
  MetricsRegistry registry;
  EXPECT_DOUBLE_EQ(registry.GetHistogram("test.empty")->Quantile(0.5), 0.0);
}

TEST(MetricsExportTest, PrometheusMetricNamesAreMangled) {
  MetricsRegistry registry;
  registry.GetCounter("test.with-dash.and.dots")->Increment();
  const std::string out = registry.RenderPrometheus();
  EXPECT_NE(out.find("test_with_dash_and_dots 1"), std::string::npos) << out;
}

// --- SpanJson --------------------------------------------------------------

TEST(SpanJsonTest, RendersNestedSpansWithTiming) {
  TraceSpan root;
  root.name = "serve.request";
  root.elapsed_ms = 2.0;
  TraceSpan child;
  child.name = "executor.select";
  child.elapsed_ms = 1.0;
  child.attrs.emplace_back("rows", AttrValue::Uint(42));
  root.children.push_back(std::move(child));
  const std::string expected =
      "{\"name\":\"serve.request\",\"elapsed_ms\":2,\"attrs\":{},"
      "\"children\":[{\"name\":\"executor.select\",\"elapsed_ms\":1,"
      "\"attrs\":{\"rows\":42},\"children\":[]}]}";
  EXPECT_EQ(SpanJson(root), expected);
}

}  // namespace
}  // namespace obs
}  // namespace ebi
