// Clang thread-safety annotations (-Wthread-safety).
//
// The engine's locking discipline is machine-checked: every mutex-protected
// member is declared SNB_GUARDED_BY its mutex, functions that expect a lock
// held declare SNB_REQUIRES, and the clang build turns violations into
// compile errors (-Werror=thread-safety, see the top-level CMakeLists).
// Under GCC and other compilers the macros expand to nothing, so the
// annotations cost nothing off-clang.
//
// The macro set mirrors the names used by the clang documentation and by
// Abseil; apply them through util/mutex.h's annotated Mutex/MutexLock/CondVar
// wrappers rather than raw std::mutex (libstdc++'s std::mutex carries no
// capability attributes, so the analysis cannot see through it —
// scripts/lint.sh rejects raw std::mutex outside util/mutex.h for exactly
// this reason).

#ifndef SNB_UTIL_THREAD_ANNOTATIONS_H_
#define SNB_UTIL_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && !defined(SNB_NO_THREAD_SAFETY_ANNOTATIONS)
#define SNB_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define SNB_THREAD_ANNOTATION(x)  // no-op off clang
#endif

/// Marks a class as a lockable capability ("mutex", "role", ...).
#define SNB_CAPABILITY(x) SNB_THREAD_ANNOTATION(capability(x))

/// Marks an RAII class that acquires a capability in its constructor and
/// releases it in its destructor.
#define SNB_SCOPED_CAPABILITY SNB_THREAD_ANNOTATION(scoped_lockable)

/// Declares that a data member is protected by the given capability; reads
/// and writes require it to be held.
#define SNB_GUARDED_BY(x) SNB_THREAD_ANNOTATION(guarded_by(x))

/// Declares that the *pointee* of a pointer member is protected.
#define SNB_PT_GUARDED_BY(x) SNB_THREAD_ANNOTATION(pt_guarded_by(x))

/// Lock-ordering declarations (deadlock prevention).
#define SNB_ACQUIRED_BEFORE(...) \
  SNB_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define SNB_ACQUIRED_AFTER(...) \
  SNB_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/// The function must be called with the capabilities held (and does not
/// release them).
#define SNB_REQUIRES(...) \
  SNB_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define SNB_REQUIRES_SHARED(...) \
  SNB_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/// The function acquires / releases the capability.
#define SNB_ACQUIRE(...) SNB_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define SNB_ACQUIRE_SHARED(...) \
  SNB_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define SNB_RELEASE(...) SNB_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define SNB_RELEASE_SHARED(...) \
  SNB_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))

/// The function attempts the acquisition; `b` is the success return value.
#define SNB_TRY_ACQUIRE(...) \
  SNB_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// The function must be called with the capability NOT held.
#define SNB_EXCLUDES(...) SNB_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the capability is held (for code paths the static
/// analysis cannot follow).
#define SNB_ASSERT_CAPABILITY(x) \
  SNB_THREAD_ANNOTATION(assert_capability(x))

/// The function returns a reference to the given capability.
#define SNB_RETURN_CAPABILITY(x) SNB_THREAD_ANNOTATION(lock_returned(x))

/// Names a mutex's creation site, as the mutex member's initializer:
/// `util::Mutex mu_{SNB_LOCK_SITE("driver.graph_handle.mu")}`. Every
/// instance born at one site is one node of snb_lint's static lock-order graph
/// (static-lock-cycle, blocking-while-locked-static). Expands to nothing.
#define SNB_LOCK_SITE(site_name)

/// Like SNB_LOCK_SITE, with a declared lock level: acquisitions across
/// levelled sites must go strictly upward, and holding a lower level
/// across a blocking wait on a higher one is the sanctioned nesting (e.g.
/// a lock held across ThreadPool::Submit, whose queue lock is level 20).
/// Read only by snb_lint; expands to nothing.
#define SNB_LOCK_LEVEL(site_name, lvl)

#endif  // SNB_UTIL_THREAD_ANNOTATIONS_H_
