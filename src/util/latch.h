// Count-down completion latch.
//
// BlockingCounter is the repo's one-shot "wait until N workers signalled"
// primitive: initialise with the number of outstanding workers, each worker
// calls DecrementCount() exactly once, and the coordinating thread blocks
// in Wait() until the count hits zero. It packages the Mutex + CondVar +
// counter pattern so call sites (engine/morsel.cc's helper join, and any
// future fan-out) don't each hand-roll a condition wait — scripts/lint.sh
// bans CondVar outside src/util/ for exactly this reason: every blocking
// wait loop in the repo lives where the spurious-wakeup re-check can be
// audited in one place.

#ifndef SNB_UTIL_LATCH_H_
#define SNB_UTIL_LATCH_H_

#include <cstddef>

#include "util/check.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace snb::util {

/// One-shot latch: starts at `initial_count`, DecrementCount() releases one
/// unit, Wait() blocks until zero. Decrementing below zero is a checked
/// error; Wait may be called by exactly one thread (the coordinator).
class BlockingCounter {
 public:
  explicit BlockingCounter(size_t initial_count)
      : count_(initial_count) {}

  BlockingCounter(const BlockingCounter&) = delete;
  BlockingCounter& operator=(const BlockingCounter&) = delete;

  void DecrementCount() SNB_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    SNB_CHECK(count_ > 0);
    if (--count_ == 0) zero_.NotifyAll();
  }

  void Wait() SNB_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (count_ != 0) zero_.Wait(mu_);  // re-check: wakeups may be spurious
  }

 private:
  Mutex mu_{SNB_LOCK_SITE("util.blocking_counter.mu")};
  CondVar zero_;
  size_t count_ SNB_GUARDED_BY(mu_);
};

}  // namespace snb::util

#endif  // SNB_UTIL_LATCH_H_
