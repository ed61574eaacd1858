// snb-lint-path: src/util/sanctioned_demo.cc
// Fixture: the sanctioned shapes. Waiting on the *held* mutex is the
// CondVar contract (the wait releases it); submitting to a pool whose
// queue mutex sits at a strictly higher declared level than the held lock
// follows the declared order — a levelled lock held across Submit() in
// miniature.
#define SNB_LOCK_LEVEL(name, level) name
#define SNB_GUARDED_BY(x)

namespace util {
struct Mutex {};
struct MutexLock {
  explicit MutexLock(Mutex& m);
};
struct CondVar {
  void Wait(Mutex& m);
};
}  // namespace util

class ThreadPool {
 public:
  void Submit() { util::MutexLock l(mu_); }

 private:
  util::Mutex mu_{SNB_LOCK_LEVEL("demo.pool.mu", 20)};
};

class Sched {
 public:
  void Admit(ThreadPool& pool) {
    util::MutexLock l(mu_);
    pool.Submit();  // level 10 held, blocks on level 20: sanctioned
  }
  void WaitIdle() {
    util::MutexLock l(mu_);
    idle_.Wait(mu_);  // waiting on the held mutex releases it
  }

 private:
  util::Mutex mu_{SNB_LOCK_LEVEL("demo.sched.mu", 10)};
  util::CondVar idle_;
};
