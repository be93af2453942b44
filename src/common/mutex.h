#pragma once

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace freshsel {

/// Annotated mutex: a thin wrapper over `std::mutex` carrying the Clang
/// capability attributes (common/thread_annotations.h), so state declared
/// `FRESHSEL_GUARDED_BY(mutex_)` is compile-time checked to only be touched
/// with the lock held when building with `-DFRESHSEL_THREAD_SAFETY=ON`.
///
/// This is the only mutex type library code outside src/common/ may use —
/// the `raw-mutex` lint rule bans `std::mutex` elsewhere, so every new
/// piece of concurrent state is forced through the analysis. Zero runtime
/// cost: all methods inline to the underlying `std::mutex` calls.
class FRESHSEL_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() FRESHSEL_ACQUIRE() { mu_.lock(); }
  void Unlock() FRESHSEL_RELEASE() { mu_.unlock(); }
  bool TryLock() FRESHSEL_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock for `Mutex`, annotated as a scoped capability: constructing
/// acquires, destruction releases, and the analysis tracks the critical
/// section between them. The equivalent of `std::lock_guard`, but for the
/// annotated wrapper (a raw `std::lock_guard<Mutex>` would bypass the
/// capability tracking).
class FRESHSEL_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) FRESHSEL_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() FRESHSEL_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable paired with `Mutex`. `Wait` requires the mutex held
/// (annotated), releases it while blocked, and reacquires before
/// returning — the standard condition-variable contract, but visible to
/// the thread-safety analysis. Waiters re-test their condition in a loop:
///
///   MutexLock lock(mutex_);
///   while (!ready_) cv_.Wait(mutex_);     // ready_ GUARDED_BY(mutex_)
///
/// (An explicit loop instead of the predicate overload: a lambda predicate
/// is a separate function to the analysis and could not read guarded state
/// without spurious warnings.)
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Pre: `mu` held. Atomically releases `mu`, blocks until notified, and
  /// reacquires `mu` before returning. Spurious wakeups are possible;
  /// always wait in a condition loop.
  void Wait(Mutex& mu) FRESHSEL_REQUIRES(mu) {
    // Adopt the already-held lock for the wait, then hand ownership back:
    // release() stops the unique_lock from unlocking what the caller's
    // MutexLock still owns.
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace freshsel
