// Fixed-size thread pool with a blocking ParallelFor.
//
// Used to parallelize datagen passes and query evaluation. Work partitioning
// is deterministic (static block assignment), so parallel execution never
// changes results — only wall-clock time.
//
// Locking discipline (machine-checked under clang -Wthread-safety): the task
// queue, the in-flight counter and the shutdown flag are guarded by `mu_`;
// `workers_` is written only during construction/destruction and is safe to
// read without the lock.

#ifndef SNB_UTIL_THREAD_POOL_H_
#define SNB_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace snb::util {

/// A minimal fixed-size worker pool. Tasks are std::function<void()>; Wait()
/// blocks until all submitted tasks completed.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues a task for execution on some worker.
  void Submit(std::function<void()> task) SNB_EXCLUDES(mu_);

  /// Blocks until every submitted task has finished.
  void Wait() SNB_EXCLUDES(mu_);

  /// Runs fn(i) for i in [0, n), partitioned into contiguous blocks across
  /// the pool; blocks until complete. fn must be safe to call concurrently
  /// for distinct i.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Runs fn(begin, end) over contiguous shards of [0, n); blocks until done.
  void ParallelForShards(
      size_t n, const std::function<void(size_t, size_t)>& fn);

  /// Returns a process-wide default pool sized to the hardware concurrency.
  static ThreadPool& Default();

 private:
  void WorkerLoop() SNB_EXCLUDES(mu_);

  // snb-lint-allow(guarded-by): written in the constructor and joined in
  // the destructor only; never touched while workers run
  std::vector<std::thread> workers_;
  /// Level 20: the top of the declared lock order. A lock held across
  /// Submit() must sit at a lower level for snb_lint's
  /// blocking-while-locked-static check to sanction the nesting.
  Mutex mu_{SNB_LOCK_LEVEL("util.thread_pool.mu", 20)};
  std::queue<std::function<void()>> tasks_ SNB_GUARDED_BY(mu_);
  CondVar task_ready_;
  CondVar all_done_;
  size_t in_flight_ SNB_GUARDED_BY(mu_) = 0;
  bool shutdown_ SNB_GUARDED_BY(mu_) = false;
};

}  // namespace snb::util

#endif  // SNB_UTIL_THREAD_POOL_H_
