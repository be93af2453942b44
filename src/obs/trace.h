#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace freshsel::obs {

/// One completed span: a named [begin, end) interval on one thread.
/// `name` points at a string literal (the FRESHSEL_TRACE_SPAN argument) and
/// is never owned.
struct TraceEvent {
  const char* name = nullptr;
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t tid = 0;     ///< Small sequential obs thread id.
  std::uint64_t id = 0;      ///< Span id, unique within the process.
  std::uint64_t parent = 0;  ///< Enclosing span id (0 = root). Crosses
                             ///< threads via the ThreadPool task context.
};

/// Tracing is off by default: a disabled FRESHSEL_TRACE_SPAN costs one
/// relaxed atomic load. Spans record into fixed-capacity per-thread ring
/// buffers (oldest events are overwritten; the drop count is reported), so
/// enabling tracing never allocates on the hot path after a thread's first
/// span.
void SetTraceEnabled(bool enabled);
bool TraceEnabled();

/// Discards all buffered events (typically paired with SetTraceEnabled
/// before a traced run).
void ClearTrace();

/// Snapshot of every thread's buffered events, ordered by begin time.
/// Safe to call while spans are being recorded (per-buffer locking), but
/// for a consistent picture disable tracing first.
std::vector<TraceEvent> CollectTrace();

/// Events dropped to ring-buffer overwrite since the last ClearTrace.
std::uint64_t TraceDroppedCount();

/// Per-thread share of TraceDroppedCount, ordered by tid; threads that
/// dropped nothing are omitted. A truncated trace names the exact threads
/// whose history is incomplete instead of one opaque aggregate.
struct TraceDrop {
  std::uint32_t tid = 0;
  std::uint64_t dropped = 0;
};
std::vector<TraceDrop> TraceDroppedByThread();

/// Serializes events as Chrome trace-event JSON (the format
/// chrome://tracing and Perfetto load): one complete ("ph":"X") event per
/// span with microsecond timestamps, the obs thread id as "tid", and the
/// parent span id under "args". Timestamps are rebased to the earliest
/// event so traces start near zero. `drops` (typically
/// TraceDroppedByThread()) is embedded under "otherData" so a truncated
/// trace is self-describing: total dropped events plus the per-thread
/// breakdown.
std::string TraceToChromeJson(const std::vector<TraceEvent>& events,
                              const std::vector<TraceDrop>& drops);
/// Same, with no drop metadata (drop-free callers and tests).
std::string TraceToChromeJson(const std::vector<TraceEvent>& events);

/// CollectTrace + TraceToChromeJson + write to `path`.
Status WriteTraceFile(const std::string& path);

/// RAII span. Prefer the FRESHSEL_TRACE_SPAN macro (obs/macros.h), which
/// costs one relaxed atomic load while tracing is off. While the span is open
/// it publishes its id as the thread's task context, so spans opened in
/// pool workers (or nested on the same thread) attribute to it.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;  ///< Null when tracing was disabled.
  std::uint64_t begin_ns_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
};

}  // namespace freshsel::obs
