// Annotated synchronization primitives: the compile-time locking discipline.
//
// Every mutex in this codebase is a paramount::Mutex from this header,
// never a raw std::mutex — tools/lint/paramount_lint.py enforces that, and
// DESIGN.md "Locking discipline" tables what each one guards. The wrappers
// carry Clang Thread Safety Analysis capability attributes, so a build with
// -DPARAMOUNT_THREAD_SAFETY=ON (Clang only) turns the locking contract into
// compile errors:
//
//   * PM_GUARDED_BY(mu) on a member means every access must hold mu;
//   * PM_REQUIRES(mu) on a function means callers must already hold mu —
//     the convention for the `_locked()` helper split;
//   * PM_ACQUIRE/PM_RELEASE annotate functions that change lock state;
//   * PM_EXCLUDES(mu) marks functions that must NOT be entered with mu held
//     (they take it themselves — re-entry would deadlock);
//   * PM_ACQUIRED_AFTER documents (and, under -Wthread-safety-beta, checks)
//     the global lock order.
//
// On GCC and MSVC every attribute expands to nothing and the wrappers are
// zero-overhead shims over the std primitives, so non-Clang builds see no
// warnings and no behavior change. See README "Static analysis" for how to
// run the checked build and prove the analysis is live.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__clang__) && (!defined(SWIG))
#define PM_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define PM_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

#define PM_CAPABILITY(x) PM_THREAD_ANNOTATION(capability(x))
#define PM_SCOPED_CAPABILITY PM_THREAD_ANNOTATION(scoped_lockable)
#define PM_GUARDED_BY(x) PM_THREAD_ANNOTATION(guarded_by(x))
#define PM_PT_GUARDED_BY(x) PM_THREAD_ANNOTATION(pt_guarded_by(x))
#define PM_ACQUIRED_AFTER(...) PM_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define PM_ACQUIRED_BEFORE(...) \
  PM_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define PM_REQUIRES(...) \
  PM_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define PM_ACQUIRE(...) PM_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define PM_RELEASE(...) PM_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define PM_RELEASE_GENERIC(...) \
  PM_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))
#define PM_TRY_ACQUIRE(...) \
  PM_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define PM_EXCLUDES(...) PM_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define PM_ASSERT_CAPABILITY(x) \
  PM_THREAD_ANNOTATION(assert_capability(x))
#define PM_RETURN_CAPABILITY(x) PM_THREAD_ANNOTATION(lock_returned(x))
#define PM_NO_THREAD_SAFETY_ANALYSIS \
  PM_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace paramount {

// Exclusive mutex. Prefer the MutexLock guard; call lock()/unlock() directly
// only inside functions themselves annotated PM_ACQUIRE/PM_RELEASE (e.g.
// TracedMutex's cooperative try_lock spin).
class PM_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() PM_ACQUIRE() { mu_.lock(); }
  void unlock() PM_RELEASE() { mu_.unlock(); }
  bool try_lock() PM_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

// Tag for guard constructors adopting a mutex the caller already holds.
struct AdoptLockT {
  explicit AdoptLockT() = default;
};
inline constexpr AdoptLockT kAdoptLock{};

// RAII exclusive guard (std::lock_guard shape, annotated).
class PM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) PM_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  // Adopts a mutex the caller locked (e.g. via a successful try_lock): the
  // guard takes over the release.
  MutexLock(Mutex& mu, AdoptLockT) PM_REQUIRES(mu) : mu_(mu) {}
  ~MutexLock() PM_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Condition variable paired with paramount::Mutex.
//
// wait() takes the Mutex itself (the caller typically also holds it through
// a MutexLock guard in the same scope); the PM_REQUIRES annotation makes
// waiting without the lock a compile error under the analysis. Write waits
// as explicit predicate loops —
//
//   MutexLock lock(mutex_);
//   while (!ready_) cv_.wait(mutex_);
//
// — not as wait(lock, lambda): the analysis checks lambda bodies as separate
// functions that do not inherit the caller's held locks, so a predicate
// lambda reading PM_GUARDED_BY data would be flagged even though it is safe.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Atomically releases `mu`, sleeps, and reacquires `mu` before returning.
  // Spurious wakeups happen; always wait in a predicate loop.
  void wait(Mutex& mu) PM_REQUIRES(mu) { cv_.wait(mu); }

  // Deadline variant for bounded waits (server teardown, test deadlines —
  // the sanctioned alternative to sleep-based polling). Returns false on
  // timeout; like wait(), always re-check the predicate in a loop.
  template <typename Rep, typename Period>
  bool wait_for(Mutex& mu, std::chrono::duration<Rep, Period> timeout)
      PM_REQUIRES(mu) {
    return cv_.wait_for(mu, timeout) == std::cv_status::no_timeout;
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  // condition_variable_any works with any BasicLockable, so it waits on the
  // annotated Mutex directly; the unlock/relock pair it performs lives in a
  // system header, outside the analysis.
  std::condition_variable_any cv_;
};

}  // namespace paramount
