#ifndef EBI_EXEC_THREAD_POOL_H_
#define EBI_EXEC_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/sync.h"
#include "util/thread_annotations.h"

namespace ebi {
namespace exec {

/// A fixed-size worker pool.
///
/// The pool is the only place the library creates threads: each serve
/// tier service runs its workers on one, so thread counts stay bounded
/// by pool sizes.
/// Tasks are plain closures; results travel through caller-owned slots,
/// never through the pool.
///
/// Shutdown is graceful: the destructor lets every already-submitted task
/// finish before joining the workers, so a caller blocked in ParallelFor
/// can never be abandoned mid-barrier.
class ThreadPool {
 public:
  /// Creates `num_threads` workers (a request for 0 is clamped to 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains the queue — every task submitted before destruction runs —
  /// then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  size_t size() const { return workers_.size(); }

  /// Enqueues one task for asynchronous execution. Tasks must not throw
  /// (the library is Status-based and compiles without exception use).
  void Submit(std::function<void()> task) EBI_EXCLUDES(mu_);

  /// Runs `body(i)` for every i in [begin, end) on the pool and blocks
  /// until all iterations finish. Iterations may run in any order and
  /// concurrently; callers that need a deterministic result must write
  /// one output slot per iteration and merge the slots by index after
  /// the call returns.
  ///
  /// Must not be called from inside a pool task: the caller blocks on the
  /// barrier and with every worker blocked the same way the pool would
  /// deadlock.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& body);

 private:
  void WorkerLoop();

  Mutex mu_{lock_rank::kThreadPool, "ThreadPool::mu_"};
  CondVar cv_;
  std::deque<std::function<void()>> queue_ EBI_GUARDED_BY(mu_);
  bool shutting_down_ EBI_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_
      EBI_UNGUARDED("filled in the constructor before any worker can race, "
                    "then only read (size) or joined (destructor)");
};

}  // namespace exec
}  // namespace ebi

#endif  // EBI_EXEC_THREAD_POOL_H_
