// snb-lint-path: src/sched/level_demo.cc
// Fixture: a single downward acquisition across declared levels. The
// graph has one edge (demo.high -> demo.low) and so no cycle; the
// inversion must be reported on its own, against the declared order.
#define SNB_LOCK_LEVEL(name, level) name
#define SNB_GUARDED_BY(x)

namespace util {
struct Mutex {};
struct MutexLock {
  explicit MutexLock(Mutex& m);
};
}  // namespace util

class Levels {
 public:
  void HighThenLow();

 private:
  void HelpLockLow();
  util::Mutex low_{SNB_LOCK_LEVEL("demo.low", 10)};
  util::Mutex high_{SNB_LOCK_LEVEL("demo.high", 20)};
};

void Levels::HelpLockLow() { util::MutexLock l(low_); }

void Levels::HighThenLow() {
  util::MutexLock l(high_);
  HelpLockLow();  // level 20 held while acquiring level 10
}
