#include "storage/io_accountant.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace ebi {
namespace {

TEST(IoAccountantTest, StartsAtZero) {
  IoAccountant io;
  EXPECT_EQ(io.stats().vectors_read, 0u);
  EXPECT_EQ(io.stats().pages_read, 0u);
  EXPECT_EQ(io.stats().bytes_read, 0u);
  EXPECT_EQ(io.stats().nodes_read, 0u);
  EXPECT_EQ(io.page_size(), IoAccountant::kDefaultPageSize);
}

TEST(IoAccountantTest, ChargeVectorCountsVectorAndPages) {
  IoAccountant io(4096);
  io.ChargeVectorRead(10000);  // 3 pages.
  EXPECT_EQ(io.stats().vectors_read, 1u);
  EXPECT_EQ(io.stats().bytes_read, 10000u);
  EXPECT_EQ(io.stats().pages_read, 3u);
}

TEST(IoAccountantTest, ChargeNodeCountsNodes) {
  IoAccountant io(4096);
  io.ChargeNodeRead(4096);
  EXPECT_EQ(io.stats().nodes_read, 1u);
  EXPECT_EQ(io.stats().pages_read, 1u);
  EXPECT_EQ(io.stats().vectors_read, 0u);
}

TEST(IoAccountantTest, PagesRoundUp) {
  IoAccountant io(100);
  io.ChargeBytes(1);
  EXPECT_EQ(io.stats().pages_read, 1u);
  io.ChargeBytes(100);
  EXPECT_EQ(io.stats().pages_read, 2u);
  io.ChargeBytes(101);
  EXPECT_EQ(io.stats().pages_read, 4u);
}

TEST(IoAccountantTest, ResetClears) {
  IoAccountant io;
  io.ChargeVectorRead(100);
  io.Reset();
  EXPECT_EQ(io.stats().vectors_read, 0u);
  EXPECT_EQ(io.stats().bytes_read, 0u);
}

TEST(IoAccountantTest, StatsSubtraction) {
  IoStats a{10, 20, 30, 40};
  IoStats b{1, 2, 3, 4};
  const IoStats d = a - b;
  EXPECT_EQ(d.vectors_read, 9u);
  EXPECT_EQ(d.pages_read, 18u);
  EXPECT_EQ(d.bytes_read, 27u);
  EXPECT_EQ(d.nodes_read, 36u);
}

TEST(IoAccountantTest, StatsSubtractionClampsToZero) {
  // Cumulative counters can only shrink if the accountant was Reset
  // mid-scope; the difference must clamp instead of wrapping to ~2^64.
  IoStats a{1, 2, 3, 4};
  IoStats b{10, 1, 30, 2};
  const IoStats d = a - b;
  EXPECT_EQ(d.vectors_read, 0u);
  EXPECT_EQ(d.pages_read, 1u);
  EXPECT_EQ(d.bytes_read, 0u);
  EXPECT_EQ(d.nodes_read, 2u);
}

TEST(IoAccountantTest, StatsAddition) {
  IoStats a{10, 20, 30, 40};
  IoStats b{1, 2, 3, 4};
  const IoStats sum = a + b;
  EXPECT_EQ(sum.vectors_read, 11u);
  EXPECT_EQ(sum.pages_read, 22u);
  EXPECT_EQ(sum.bytes_read, 33u);
  EXPECT_EQ(sum.nodes_read, 44u);

  IoStats acc;
  acc += a;
  acc.Merge(b);
  EXPECT_EQ(acc, sum);
}

TEST(IoAccountantTest, IoScopeMeasuresDelta) {
  IoAccountant io;
  io.ChargeVectorRead(8);
  const IoScope scope(&io);
  io.ChargeVectorRead(8);
  io.ChargeVectorRead(8);
  const IoStats delta = scope.Delta();
  EXPECT_EQ(delta.vectors_read, 2u);
}

TEST(IoAccountantTest, IoScopeSafeAcrossReset) {
  // A Reset inside an open scope leaves the baseline above the current
  // totals; Delta clamps to zero (never underflows to ~2^64) until
  // post-Reset activity climbs past the snapshot.
  IoAccountant io;
  io.ChargeVectorRead(8);
  io.ChargeVectorRead(8);
  const IoScope scope(&io);
  io.Reset();
  EXPECT_EQ(scope.Delta(), IoStats());
  io.ChargeVectorRead(8);
  EXPECT_EQ(scope.Delta(), IoStats());  // Still below the snapshot.
  io.ChargeVectorRead(8);
  io.ChargeVectorRead(8);
  const IoStats delta = scope.Delta();
  EXPECT_EQ(delta.vectors_read, 1u);
  EXPECT_EQ(delta.bytes_read, 8u);
}

TEST(IoAccountantTest, ConcurrentChargesAreNotLost) {
  // The accountant is shared by every worker in a parallel query; its
  // counters are atomic so concurrent charges from pool threads must all
  // land (no torn or lost increments under TSan or otherwise).
  IoAccountant io(4096);
  constexpr int kThreads = 4;
  constexpr int kChargesPerThread = 2500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&io] {
      for (int i = 0; i < kChargesPerThread; ++i) {
        io.ChargeVectorRead(8);
        io.ChargeNodeRead(4096);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const IoStats stats = io.stats();
  const uint64_t n = uint64_t{kThreads} * kChargesPerThread;
  EXPECT_EQ(stats.vectors_read, n);
  EXPECT_EQ(stats.nodes_read, n);
  EXPECT_EQ(stats.bytes_read, n * (8 + 4096));
}

TEST(IoAccountantTest, ToStringMentionsAllCounters) {
  IoStats s{1, 2, 3, 4};
  s.bytes_written = 5;
  s.pages_written = 6;
  const std::string text = s.ToString();
  EXPECT_NE(text.find("vectors=1"), std::string::npos);
  EXPECT_NE(text.find("pages=2"), std::string::npos);
  EXPECT_NE(text.find("bytes=3"), std::string::npos);
  EXPECT_NE(text.find("nodes=4"), std::string::npos);
  EXPECT_NE(text.find("bytes_w=5"), std::string::npos);
  EXPECT_NE(text.find("pages_w=6"), std::string::npos);
}

TEST(IoAccountantTest, ZeroPageSizeFallsBackToDefault) {
  // A zero page size would divide by zero on every charge; the
  // constructor substitutes the default and flags the input invalid.
  IoAccountant io(0);
  EXPECT_EQ(io.page_size(), IoAccountant::kDefaultPageSize);
  EXPECT_FALSE(io.page_size_valid());
  io.ChargeBytes(1);
  EXPECT_EQ(io.stats().pages_read, 1u);

  IoAccountant ok(512);
  EXPECT_TRUE(ok.page_size_valid());
}

TEST(IoAccountantTest, PageReadChargesOnePageAndItsBytes) {
  IoAccountant io(4096);
  io.ChargePageRead(100);
  io.ChargePageRead(4072);
  const IoStats stats = io.stats();
  // Each physical page is one page regardless of payload fill.
  EXPECT_EQ(stats.pages_read, 2u);
  EXPECT_EQ(stats.bytes_read, 4172u);
  EXPECT_EQ(stats.vectors_read, 0u);
}

TEST(IoAccountantTest, WriteChargesMirrorReadCharges) {
  IoAccountant io(4096);
  io.ChargePageWrite(4072);
  EXPECT_EQ(io.stats().pages_written, 1u);
  EXPECT_EQ(io.stats().bytes_written, 4072u);
  io.ChargeBytesWritten(10000);  // 3 pages, rounded up.
  EXPECT_EQ(io.stats().pages_written, 4u);
  EXPECT_EQ(io.stats().bytes_written, 14072u);
  // Reads are untouched by write charges.
  EXPECT_EQ(io.stats().pages_read, 0u);
  EXPECT_EQ(io.stats().bytes_read, 0u);
}

TEST(IoAccountantTest, VectorTouchCountsOnlyTheVector) {
  IoAccountant io(4096);
  io.ChargeVectorTouch();
  const IoStats stats = io.stats();
  EXPECT_EQ(stats.vectors_read, 1u);
  EXPECT_EQ(stats.bytes_read, 0u);
  EXPECT_EQ(stats.pages_read, 0u);
}

TEST(IoAccountantTest, WriteCountersFlowThroughArithmetic) {
  IoStats a{10, 20, 30, 40};
  a.bytes_written = 50;
  a.pages_written = 60;
  IoStats b{1, 2, 3, 4};
  b.bytes_written = 5;
  b.pages_written = 6;
  const IoStats sum = a + b;
  EXPECT_EQ(sum.bytes_written, 55u);
  EXPECT_EQ(sum.pages_written, 66u);
  const IoStats diff = a - b;
  EXPECT_EQ(diff.bytes_written, 45u);
  EXPECT_EQ(diff.pages_written, 54u);
  EXPECT_FALSE(a == b);
  IoAccountant io;
  io.ChargeBytesWritten(5);
  EXPECT_EQ(io.stats().bytes_written, 5u);
  EXPECT_EQ(io.stats().pages_written, 1u);
  io.Reset();
  EXPECT_EQ(io.stats().bytes_written, 0u);
  EXPECT_EQ(io.stats().pages_written, 0u);
}

}  // namespace
}  // namespace ebi
