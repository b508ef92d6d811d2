// Lock primitives with Clang Thread Safety Analysis annotations — the
// only place in the repository allowed to name std::mutex and friends
// (tools/karl_lint.py enforces this).
//
// Locking contracts live in the type system instead of in comments:
// fields declare their guard with KARL_GUARDED_BY(mu_), functions that
// expect a held lock declare KARL_REQUIRES(mu_), and the clang-tsa
// CMake preset builds with -Wthread-safety -Werror so a violated
// contract is a compile error, not a TSan lottery ticket. Under GCC
// (this container's toolchain) every annotation expands to nothing and
// the wrappers are zero-cost pass-throughs to the standard primitives.
//
// Vocabulary (see DESIGN.md §12 "Lock discipline"):
//   Mutex           exclusive lock; KARL_CAPABILITY("mutex")
//   MutexLock       scoped exclusive lock of a Mutex
//   CondVar         condition variable waiting on a held Mutex
//
// Debug builds additionally track the owner thread, so
// Mutex::AssertHeld() aborts (KARL_CHECK) when called off the owning
// thread; release builds keep only the static annotation.
// KARL_NO_THREAD_SAFETY_ANALYSIS requires a reason string; karl_lint
// rejects a bare or empty-reason suppression.

#ifndef KARL_UTIL_MUTEX_H_
#define KARL_UTIL_MUTEX_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "util/check.h"

// Annotation spellings: clang's "capability" attribute family
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html). GCC accepts
// none of them, so everything compiles away there.
#if defined(__clang__)
#define KARL_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define KARL_THREAD_ANNOTATION_(x)
#endif

/// Declares a type to be a lockable capability (argument: kind name).
#define KARL_CAPABILITY(x) KARL_THREAD_ANNOTATION_(capability(x))
/// Declares an RAII type whose constructor acquires and destructor
/// releases a capability.
#define KARL_SCOPED_CAPABILITY KARL_THREAD_ANNOTATION_(scoped_lockable)
/// Field is protected by the given mutex.
#define KARL_GUARDED_BY(x) KARL_THREAD_ANNOTATION_(guarded_by(x))
/// Function acquires the capability (exclusive) and does not release it.
#define KARL_ACQUIRE(...) \
  KARL_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
/// Function releases an exclusively held capability.
#define KARL_RELEASE(...) \
  KARL_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
/// Scoped-lock destructor: releases the capability its constructor
/// acquired.
#define KARL_RELEASE_GENERIC(...) \
  KARL_THREAD_ANNOTATION_(release_generic_capability(__VA_ARGS__))
/// Function attempts the acquisition; first argument is the success
/// return value.
#define KARL_TRY_ACQUIRE(...) \
  KARL_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
/// Caller must hold the capability exclusively.
#define KARL_REQUIRES(...) \
  KARL_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
/// Caller must NOT hold the capability (deadlock prevention).
#define KARL_EXCLUDES(...) KARL_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
/// Function checks at runtime that the capability is held, and tells
/// the analysis to assume so afterwards.
#define KARL_ASSERT_CAPABILITY(x) \
  KARL_THREAD_ANNOTATION_(assert_capability(x))
/// Opts a function out of the analysis. The reason string is mandatory
/// (karl_lint enforces non-empty) and should say why the contract
/// cannot be expressed, e.g. lock-free by construction, or an
/// intentionally unbalanced acquire split across functions.
#define KARL_NO_THREAD_SAFETY_ANALYSIS(reason) \
  KARL_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace karl::util {

class CondVar;

/// Exclusive mutex (wraps std::mutex). Debug builds remember the owner
/// thread so AssertHeld() is a real runtime check; release builds keep
/// only the compile-time annotation.
class KARL_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() KARL_ACQUIRE() {
    mu_.lock();
    DebugSetOwner();
  }

  void Unlock() KARL_RELEASE() {
    DebugClearOwner();
    mu_.unlock();
  }

  /// Returns true (and holds the lock) when the mutex was free.
  bool TryLock() KARL_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    DebugSetOwner();
    return true;
  }

  /// Aborts in debug builds when the calling thread does not hold the
  /// mutex; release builds only inform the static analysis.
  void AssertHeld() const KARL_ASSERT_CAPABILITY(this) {
#ifndef NDEBUG
    KARL_CHECK(owner_.load(std::memory_order_relaxed) ==
               std::this_thread::get_id())
        << ": Mutex::AssertHeld() failed — calling thread does not hold "
           "the mutex";
#endif
  }

 private:
  friend class CondVar;

  // Owner bookkeeping is only ever mutated while the mutex is held (or
  // inside CondVar::Wait, which releases and reacquires it), so the
  // atomic is purely to keep the failing AssertHeld read well-defined.
  void DebugSetOwner() {
#ifndef NDEBUG
    owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
#endif
  }
  void DebugClearOwner() {
#ifndef NDEBUG
    owner_.store(std::thread::id(), std::memory_order_relaxed);
#endif
  }

  std::mutex mu_;
  // Unconditionally present so the class layout does not depend on
  // NDEBUG — a TU compiled in debug mode linking a release-built
  // library (or vice versa) must agree on sizeof(Mutex). Only the
  // bookkeeping is debug-gated.
  std::atomic<std::thread::id> owner_{};
};

/// Scoped exclusive lock of a Mutex.
class KARL_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) KARL_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() KARL_RELEASE_GENERIC() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Condition variable for use with Mutex. Wait takes the held Mutex
/// explicitly, which lets the analysis check the caller really holds it
/// — the classic condition_variable/unique_lock pairing is invisible to
/// the analysis and is what this wrapper replaces.
///
/// Waiting re-checks must loop at the call site:
///   mu_.Lock();
///   while (!ready_) cv_.Wait(&mu_);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `*mu`, blocks until notified (spurious wakeups
  /// possible), and reacquires `*mu` before returning.
  void Wait(Mutex* mu) KARL_REQUIRES(mu) {
    mu->DebugClearOwner();  // The wait releases the mutex.
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // Returned holding it; hand ownership back.
    mu->DebugSetOwner();
  }

  /// Wait with a deadline; returns false when `timeout` elapsed without
  /// a notification (the mutex is reacquired either way).
  bool WaitFor(Mutex* mu, std::chrono::microseconds timeout)
      KARL_REQUIRES(mu) {
    mu->DebugClearOwner();
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_for(lock, timeout);
    lock.release();
    mu->DebugSetOwner();
    return status == std::cv_status::no_timeout;
  }

  /// Wakes one waiter.
  void Signal() { cv_.notify_one(); }

  /// Wakes every waiter.
  void SignalAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace karl::util

#endif  // KARL_UTIL_MUTEX_H_
