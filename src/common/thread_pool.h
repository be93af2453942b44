#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace freshsel {

/// Small fixed-size worker pool for data-parallel oracle evaluation.
///
/// The selection algorithms use `ParallelFor` to fan candidate-marginal
/// evaluations out across threads and then reduce the results *serially in
/// index order*, so a parallel run is bit-identical to a serial one (see
/// DESIGN.md, "Oracle-acceleration layer"). The pool never spawns or joins
/// threads per call; workers live for the pool's lifetime.
///
/// All batch state is `GUARDED_BY(mutex_)` and the guard is
/// compiler-checked under `-DFRESHSEL_THREAD_SAFETY=ON` (DESIGN.md §12).
///
/// Tasks must not throw: the library communicates failures through
/// `Status`/`Result`, and an escaping exception would terminate.
class ThreadPool {
 public:
  /// Spawns `threads` workers (clamped to at least 1). A pool of size 1
  /// executes everything inline on the calling thread.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (>= 1).
  std::size_t size() const { return threads_.empty() ? 1 : threads_.size(); }

  /// Runs `body(begin, end)` over a partition of [0, n) into at most
  /// `size() + 1` contiguous chunks (the workers plus the calling thread),
  /// blocking until every chunk has finished.
  /// Chunk boundaries depend only on `n` and `size()`, so callers that
  /// write per-index results and reduce them in index order afterwards get
  /// deterministic, schedule-independent output. The calling thread
  /// executes one chunk itself. Safe to call from one coordinating thread
  /// at a time per pool; nested calls from inside a task are not supported.
  void ParallelFor(std::size_t n,
                   const std::function<void(std::size_t begin,
                                            std::size_t end)>& body)
      FRESHSEL_EXCLUDES(mutex_);

  /// Shared process-wide pool sized to the hardware (clamped to [2, 8]).
  /// Intended for benches and the CLI; tests construct their own pools.
  static ThreadPool& Shared();

 private:
  struct Batch {
    const std::function<void(std::size_t, std::size_t)>* body = nullptr;
    std::size_t n = 0;
    std::size_t chunk = 0;
    std::size_t next = 0;       // Next chunk index to claim.
    std::size_t chunks = 0;     // Total chunks in this batch.
    std::size_t done = 0;       // Chunks finished.
    // Caller's task context (common/task_context.h) at ParallelFor time;
    // set on each thread for the duration of a chunk so observability
    // spans opened inside pooled work attribute to the scheduling span.
    std::uint64_t context = 0;
  };

  void WorkerLoop() FRESHSEL_EXCLUDES(mutex_);
  /// Claims and runs chunks of the current batch until none remain;
  /// temporarily drops the lock around each chunk body.
  void RunChunks() FRESHSEL_REQUIRES(mutex_);

  Mutex mutex_;
  CondVar work_cv_;   // Signals workers: batch or shutdown.
  CondVar done_cv_;   // Signals the caller: batch finished.
  Batch batch_ FRESHSEL_GUARDED_BY(mutex_);
  bool has_batch_ FRESHSEL_GUARDED_BY(mutex_) = false;
  bool shutdown_ FRESHSEL_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> threads_;
};

}  // namespace freshsel
