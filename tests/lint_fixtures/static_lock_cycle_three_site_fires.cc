// snb-lint-path: src/sched/cycle3_demo.cc
// Fixture: a three-site cycle a -> b -> c -> a through an intermediate
// site. No two functions invert a pair directly; only the whole graph
// closes the loop, so a pairwise check would miss it.
#define SNB_LOCK_SITE(name) name
#define SNB_GUARDED_BY(x)

namespace util {
struct Mutex {};
struct MutexLock {
  explicit MutexLock(Mutex& m);
};
}  // namespace util

class Triangle {
 public:
  void AThenB();
  void BThenC();
  void CThenA();

 private:
  void HelpLockC();
  util::Mutex a_{SNB_LOCK_SITE("demo.a")};
  util::Mutex b_{SNB_LOCK_SITE("demo.b")};
  util::Mutex c_{SNB_LOCK_SITE("demo.c")};
};

void Triangle::HelpLockC() { util::MutexLock l(c_); }

void Triangle::AThenB() {
  util::MutexLock l(a_);
  util::MutexLock l2(b_);  // demo.a -> demo.b
}

void Triangle::BThenC() {
  util::MutexLock l(b_);
  HelpLockC();  // demo.b -> demo.c
}

void Triangle::CThenA() {
  util::MutexLock l(c_);
  util::MutexLock l2(a_);  // demo.c -> demo.a: closes a -> b -> c -> a
}
