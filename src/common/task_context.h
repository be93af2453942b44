#pragma once

#include <cstdint>

namespace freshsel {

/// Opaque per-thread context token that `ThreadPool::ParallelFor`
/// propagates from the calling thread to the workers that execute its
/// chunks (saved and restored around each chunk). The pool attaches no
/// meaning to the value; the obs layer stores the active trace-span id
/// here so work fanned out across the pool attributes to the span that
/// scheduled it (DESIGN.md, "Observability layer"). 0 means "no context".
std::uint64_t CurrentTaskContext();
void SetCurrentTaskContext(std::uint64_t context);

/// RAII save/set/restore of the current thread's context.
class ScopedTaskContext {
 public:
  explicit ScopedTaskContext(std::uint64_t context)
      : saved_(CurrentTaskContext()) {
    SetCurrentTaskContext(context);
  }
  ~ScopedTaskContext() { SetCurrentTaskContext(saved_); }

  ScopedTaskContext(const ScopedTaskContext&) = delete;
  ScopedTaskContext& operator=(const ScopedTaskContext&) = delete;

 private:
  std::uint64_t saved_;
};

}  // namespace freshsel
