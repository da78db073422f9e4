// Annotated synchronization primitives for Clang thread-safety analysis.
//
// Thin, zero-overhead wrappers over std::mutex/std::condition_variable
// that carry the capability annotations from util/thread_annotations.h.
// All concurrent code in util/serve/net uses these instead of the raw std
// types so that every guarded field can say GUARDED_BY(mu_), every
// lock-requiring helper can say REQUIRES(mu_), and the OSUM_LINT lane
// (-Werror=thread-safety, see scripts/lint.sh) can reject undisciplined
// access at compile time.
//
// ThreadRole is the capability for invariants a mutex does not model:
// "this state is only touched by the thread currently playing role X"
// (e.g. net::Server's loop thread owns all connection state). It is a
// runtime-asserted, analysis-visible affinity check, with explicit
// ownership handoff at real synchronization points (thread spawn/join).
#ifndef OSUM_UTIL_MUTEX_H_
#define OSUM_UTIL_MUTEX_H_

#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "util/thread_annotations.h"

namespace osum::util {

/// std::mutex with capability annotations. Non-reentrant; prefer
/// MutexLock over manual Lock/Unlock pairs.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock scope: the only way most call sites should hold a Mutex.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to util::Mutex. Wait() releases and reacquires
/// the mutex, so the analysis-facing contract is REQUIRES(mu): held on
/// entry, held again on return — but any guarded state may have changed
/// across the wait, which is why callers loop on their predicate.
///
/// Note for annotated code: prefer an explicit
///   while (!condition) cv_.Wait(mu_);
/// loop over the predicate-lambda overload — the lambda is analyzed as a
/// separate unannotated function, so guarded reads inside it would need
/// their own annotations the language cannot express on a closure.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) REQUIRES(mu) {
    // Adopt the already-held native mutex for the duration of the wait;
    // release() hands ownership back without unlocking so the Mutex
    // capability state matches reality on return.
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    cv_.wait(lk);
    lk.release();
  }

  /// Convenience for unannotated contexts (tests): loops until pred().
  template <typename Pred>
  void Wait(Mutex& mu, Pred pred) REQUIRES(mu) {
    while (!pred()) Wait(mu);
  }

  /// Returns false iff the deadline passed without a notification
  /// (callers still re-check their predicate either way).
  bool WaitUntil(Mutex& mu,
                 std::chrono::steady_clock::time_point deadline)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    std::cv_status status = cv_.wait_until(lk, deadline);
    lk.release();
    return status == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

/// Capability for single-threaded-ownership invariants ("loop thread
/// only"). The thread that constructs the role owns it; ownership moves
/// only via BindToCurrentThread(), which callers must invoke at a real
/// synchronization point (before a thread exists, inside the newly
/// spawned thread, or after joining it) — the atomic store orders the
/// handoff but does not create one.
///
/// AssertHeld() aborts (assert) if called off the owning thread, and via
/// ASSERT_CAPABILITY tells the analysis the role is held for the rest of
/// the scope, which is what lets methods marked REQUIRES(role_) be called
/// from loop-entry callbacks.
class CAPABILITY("role") ThreadRole {
 public:
  ThreadRole() : owner_(std::this_thread::get_id()) {}
  ThreadRole(const ThreadRole&) = delete;
  ThreadRole& operator=(const ThreadRole&) = delete;

  void BindToCurrentThread() {
    owner_.store(std::this_thread::get_id(), std::memory_order_release);
  }

  void AssertHeld() const ASSERT_CAPABILITY(this) {
    assert(owner_.load(std::memory_order_acquire) ==
           std::this_thread::get_id());
  }

  bool HeldByCurrentThread() const {
    return owner_.load(std::memory_order_acquire) ==
           std::this_thread::get_id();
  }

 private:
  std::atomic<std::thread::id> owner_;
};

}  // namespace osum::util

#endif  // OSUM_UTIL_MUTEX_H_
