// snb-lint-path: src/sched/chain3_demo.cc
// Fixture: the same three sites in one consistent order — a -> b, b -> c
// and the transitive a -> c — form a DAG, not a cycle.
#define SNB_LOCK_SITE(name) name
#define SNB_GUARDED_BY(x)

namespace util {
struct Mutex {};
struct MutexLock {
  explicit MutexLock(Mutex& m);
};
}  // namespace util

class Chain {
 public:
  void AThenB();
  void BThenC();
  void AThenC();

 private:
  void HelpLockC();
  util::Mutex a_{SNB_LOCK_SITE("demo.a")};
  util::Mutex b_{SNB_LOCK_SITE("demo.b")};
  util::Mutex c_{SNB_LOCK_SITE("demo.c")};
};

void Chain::HelpLockC() { util::MutexLock l(c_); }

void Chain::AThenB() {
  util::MutexLock l(a_);
  util::MutexLock l2(b_);
}

void Chain::BThenC() {
  util::MutexLock l(b_);
  HelpLockC();
}

void Chain::AThenC() {
  util::MutexLock l(a_);
  HelpLockC();
}
