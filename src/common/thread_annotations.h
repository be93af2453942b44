#pragma once

/// Clang thread-safety-analysis attributes (see DESIGN.md §12). Annotating
/// which mutex guards which state turns the locking discipline the comments
/// used to describe into something `-Wthread-safety` checks at compile
/// time: forgetting a lock, touching guarded state from an unannotated
/// helper, or returning with a mutex held becomes a build error under
/// `cmake -DFRESHSEL_THREAD_SAFETY=ON` with a Clang toolchain.
///
/// Every macro expands to nothing on compilers without the attributes
/// (GCC, MSVC), so annotated headers stay portable. The spelling follows
/// the standard capability vocabulary used by Abseil and LLVM:
///
///   FRESHSEL_CAPABILITY("mutex")   class is a lockable capability
///   FRESHSEL_SCOPED_CAPABILITY     RAII type acquiring in ctor, releasing
///                                  in dtor (MutexLock)
///   FRESHSEL_GUARDED_BY(mu)        field may only be read/written with
///                                  `mu` held
///   FRESHSEL_PT_GUARDED_BY(mu)     pointee (not the pointer) guarded
///   FRESHSEL_REQUIRES(mu)          caller must hold `mu` (not acquired)
///   FRESHSEL_EXCLUDES(mu)          caller must NOT hold `mu`
///   FRESHSEL_ACQUIRE(mu)/RELEASE(mu)  function acquires/releases `mu`
///   FRESHSEL_TRY_ACQUIRE(ok, mu)   acquires `mu` when returning `ok`
///   FRESHSEL_RETURN_CAPABILITY(mu) function returns a reference to `mu`
///   FRESHSEL_ASSERT_CAPABILITY(mu) runtime assertion that `mu` is held
///   FRESHSEL_NO_THREAD_SAFETY_ANALYSIS  opt a function out (trusted code)
///
/// The raw-mutex lint rule (`freshsel_lint`, rule `raw-mutex`) bans
/// `std::mutex` outside src/common/ so new concurrent state is forced
/// through the annotated `freshsel::Mutex` wrapper (common/mutex.h) and
/// therefore through this analysis.

#if defined(__clang__) && (!defined(SWIG))
#define FRESHSEL_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define FRESHSEL_THREAD_ANNOTATION_(x)  // no-op
#endif

#define FRESHSEL_CAPABILITY(x) \
  FRESHSEL_THREAD_ANNOTATION_(capability(x))

#define FRESHSEL_SCOPED_CAPABILITY \
  FRESHSEL_THREAD_ANNOTATION_(scoped_lockable)

#define FRESHSEL_GUARDED_BY(x) \
  FRESHSEL_THREAD_ANNOTATION_(guarded_by(x))

#define FRESHSEL_PT_GUARDED_BY(x) \
  FRESHSEL_THREAD_ANNOTATION_(pt_guarded_by(x))

#define FRESHSEL_ACQUIRED_BEFORE(...) \
  FRESHSEL_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))

#define FRESHSEL_ACQUIRED_AFTER(...) \
  FRESHSEL_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

#define FRESHSEL_REQUIRES(...) \
  FRESHSEL_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

#define FRESHSEL_REQUIRES_SHARED(...) \
  FRESHSEL_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

#define FRESHSEL_ACQUIRE(...) \
  FRESHSEL_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

#define FRESHSEL_ACQUIRE_SHARED(...) \
  FRESHSEL_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))

#define FRESHSEL_RELEASE(...) \
  FRESHSEL_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

#define FRESHSEL_RELEASE_SHARED(...) \
  FRESHSEL_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))

#define FRESHSEL_TRY_ACQUIRE(...) \
  FRESHSEL_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

#define FRESHSEL_EXCLUDES(...) \
  FRESHSEL_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

#define FRESHSEL_RETURN_CAPABILITY(x) \
  FRESHSEL_THREAD_ANNOTATION_(lock_returned(x))

#define FRESHSEL_ASSERT_CAPABILITY(x) \
  FRESHSEL_THREAD_ANNOTATION_(assert_capability(x))

#define FRESHSEL_NO_THREAD_SAFETY_ANALYSIS \
  FRESHSEL_THREAD_ANNOTATION_(no_thread_safety_analysis)
