#include "exec/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

namespace ebi {
namespace exec {
namespace {

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(ThreadPoolTest, ReportsRequestedSize) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
}

TEST(ThreadPoolTest, DestructorDrainsSubmittedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    // No explicit wait: ~ThreadPool must let every submitted task finish.
  }
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) {
    h.store(0);
  }
  pool.ParallelFor(0, hits.size(), [&hits](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPoolTest, ParallelForEmptyRangeReturnsImmediately) {
  ThreadPool pool(2);
  bool touched = false;
  pool.ParallelFor(5, 5, [&touched](size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPoolTest, ParallelForSingleIterationRunsInline) {
  ThreadPool pool(2);
  size_t seen = 0;
  pool.ParallelFor(7, 8, [&seen](size_t i) { seen = i; });
  EXPECT_EQ(seen, 7u);
}

TEST(ThreadPoolTest, ParallelForNonZeroBegin) {
  ThreadPool pool(3);
  std::atomic<size_t> sum{0};
  pool.ParallelFor(10, 20, [&sum](size_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 145u);  // 10 + 11 + ... + 19.
}

TEST(ThreadPoolTest, SequentialParallelForsReuseTheSamePool) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int round = 0; round < 10; ++round) {
    pool.ParallelFor(0, 50, [&total](size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 500);
}

TEST(ThreadPoolTest, ManyMoreTasksThanThreads) {
  // Far more iterations than workers: each worker runs many tasks.
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.ParallelFor(0, 1000, [&ran](size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 1000);
}

}  // namespace
}  // namespace exec
}  // namespace ebi
