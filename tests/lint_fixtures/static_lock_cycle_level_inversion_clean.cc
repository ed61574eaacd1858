// snb-lint-path: src/sched/level_scope_demo.cc
// Fixture: taking the lower level after the higher one is *released* is
// not an inversion — only nesting orders sites — and a site without a
// declared level is exempt from level ordering.
#define SNB_LOCK_SITE(name) name
#define SNB_LOCK_LEVEL(name, level) name
#define SNB_GUARDED_BY(x)

namespace util {
struct Mutex {};
struct MutexLock {
  explicit MutexLock(Mutex& m);
};
}  // namespace util

class Scoped {
 public:
  void HighThenLowSequential();
  void UnlevelledThenLow();

 private:
  util::Mutex low_{SNB_LOCK_LEVEL("demo.low", 10)};
  util::Mutex high_{SNB_LOCK_LEVEL("demo.high", 20)};
  util::Mutex plain_{SNB_LOCK_SITE("demo.plain")};
};

void Scoped::HighThenLowSequential() {
  {
    util::MutexLock l(high_);
  }
  util::MutexLock l2(low_);
}

void Scoped::UnlevelledThenLow() {
  util::MutexLock l(plain_);
  util::MutexLock l2(low_);
}
