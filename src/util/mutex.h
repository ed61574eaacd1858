// Capability-annotated synchronization primitives.
//
// Thin wrappers over std::mutex / std::condition_variable that carry the
// clang thread-safety attributes (util/thread_annotations.h). libstdc++'s
// std::mutex has no capability annotations, so locking it directly is
// invisible to -Wthread-safety; routing every lock through these wrappers is
// what makes SNB_GUARDED_BY members actually checkable. scripts/lint.sh
// enforces that raw std::mutex does not appear outside this header, and
// that CondVar is used only inside src/util/ — higher layers express
// waiting through util primitives (ThreadPool, BlockingCounter) so every
// blocking pattern in the repo lives in one auditable place.
//
// Usage pattern:
//
//   util::Mutex mu_{SNB_LOCK_SITE("mylib.mu")};
//   size_t in_flight_ SNB_GUARDED_BY(mu_) = 0;
//
//   void Tick() {
//     util::MutexLock lock(mu_);
//     ++in_flight_;                 // OK: lock held
//   }
//
// SNB_LOCK_SITE / SNB_LOCK_LEVEL (util/thread_annotations.h) name the
// mutex's creation site for snb_lint's static lock-order checks; they
// expand to nothing, so `mu_{SNB_LOCK_SITE("...")}` is plain
// value-initialization and the wrappers are exactly as cheap as the raw
// primitives.
//
// Condition waits take the Mutex directly (CondVar::Wait requires it held)
// and use explicit while-loops rather than predicate lambdas: clang's
// analysis does not propagate capabilities into lambda bodies, so a
// predicate closure reading guarded members would trip -Werror. The
// while-loop form is also what makes spurious wakeups harmless — both
// Wait and WaitFor may return with the predicate still false, and every
// caller re-checks before proceeding.

#ifndef SNB_UTIL_MUTEX_H_
#define SNB_UTIL_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace snb::util {

class CondVar;

/// An exclusive capability. Prefer MutexLock over manual Lock/Unlock pairs.
class SNB_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() SNB_ACQUIRE() { mu_.lock(); }
  void Unlock() SNB_RELEASE() { mu_.unlock(); }
  bool TryLock() SNB_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock guard for Mutex (the annotated analogue of std::lock_guard).
class SNB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) SNB_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() SNB_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to Mutex. Wait atomically releases the mutex,
/// blocks, and reacquires before returning — so from the analysis' point of
/// view the capability is held across the call, which is exactly the
/// contract the caller's while-loop relies on.
///
/// Both Wait and WaitFor may return spuriously; callers MUST loop:
///
///   while (!predicate) cv.Wait(mu);                 // plain wait
///   while (!predicate) {
///     if (!cv.WaitFor(mu, budget)) break;           // timed out
///   }
///   // re-check predicate here — a timeout does not imply it is false
///   // forever, and a wakeup does not imply it is true.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) SNB_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the caller still owns the re-acquired mutex
  }

  /// Timed wait: blocks for at most `timeout`, returns false on timeout and
  /// true on a notify (possibly spurious — re-check the predicate either
  /// way). The mutex is held again whenever this returns.
  bool WaitFor(Mutex& mu, std::chrono::milliseconds timeout)
      SNB_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    std::cv_status status = cv_.wait_for(lock, timeout);
    lock.release();  // the caller still owns the re-acquired mutex
    return status == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace snb::util

#endif  // SNB_UTIL_MUTEX_H_
