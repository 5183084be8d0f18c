#include "exec/thread_pool.h"

#include <algorithm>
#include <utility>

namespace ebi {
namespace exec {

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t n = std::max<size_t>(1, num_threads);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(mu_);
    shutting_down_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    const MutexLock lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.NotifyOne();
}

void ThreadPool::ParallelFor(size_t begin, size_t end,
                             const std::function<void(size_t)>& body) {
  if (begin >= end) {
    return;
  }
  if (end - begin == 1) {
    // A single iteration gains nothing from a queue round-trip.
    body(begin);
    return;
  }
  // The caller blocks until `remaining` hits zero, so stack storage is
  // safe: workers touch it only under `mu`, and the final decrement
  // happens before the caller's wait can observe zero and return.
  struct Barrier {
    Mutex mu{lock_rank::kLeafBarrier, "ParallelFor::Barrier::mu"};
    CondVar done;
    size_t remaining EBI_GUARDED_BY(mu) = 0;
  } barrier;
  {
    const MutexLock lock(barrier.mu);
    barrier.remaining = end - begin;
  }
  for (size_t i = begin; i < end; ++i) {
    Submit([i, &body, &barrier] {
      body(i);
      const MutexLock lock(barrier.mu);
      if (--barrier.remaining == 0) {
        barrier.done.NotifyAll();
      }
    });
  }
  MutexLock lock(barrier.mu);
  while (barrier.remaining != 0) {
    barrier.done.Wait(lock);
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!shutting_down_ && queue_.empty()) {
        cv_.Wait(lock);
      }
      if (queue_.empty()) {
        return;  // Shutting down and fully drained.
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace exec
}  // namespace ebi
