#pragma once

/// Instrumentation macros: the layer sprinkled through hot paths on top of
/// the obs library (registry, spans, reports). They are always compiled in;
/// each call site caches its registry lookup in a function-local static, so
/// the steady-state cost is one lock-free update, and a span costs one
/// relaxed atomic load while tracing is disabled at runtime (DESIGN.md §9).

#include <cstdint>
#include <string_view>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace freshsel::obs::internal {

/// Deliberately not constexpr: CheckedMetricName calls it only for a bad
/// name, so the compile error names the rule that was broken.
inline void metric_name_must_follow_subsystem_noun_verb() {}

/// Passes a metric-id literal through unchanged, or fails the build when it
/// breaks IsValidMetricName (obs/metrics.h). Every FRESHSEL_OBS_* macro
/// routes its name through here, so a malformed id never compiles.
consteval std::string_view CheckedMetricName(std::string_view name) {
  if (!IsValidMetricName(name)) metric_name_must_follow_subsystem_noun_verb();
  return name;
}

}  // namespace freshsel::obs::internal

#define FRESHSEL_OBS_CONCAT_INNER(a, b) a##b
#define FRESHSEL_OBS_CONCAT(a, b) FRESHSEL_OBS_CONCAT_INNER(a, b)

/// Opens an RAII trace span for the rest of the enclosing scope. `name`
/// must be a string literal (spans keep the pointer, not a copy). Costs
/// one relaxed atomic load when tracing is disabled at runtime.
#define FRESHSEL_TRACE_SPAN(name) \
  const ::freshsel::obs::TraceSpan FRESHSEL_OBS_CONCAT(fs_obs_span_, \
                                                       __LINE__)(name)

/// Bumps the named process-wide counter. `name` is a string literal that
/// follows subsystem.noun.verb, checked at compile time. The registry
/// lookup happens once per call site (function-local static); the
/// increment is lock-free.
#define FRESHSEL_OBS_COUNT(name, delta)                                \
  do {                                                                 \
    static ::freshsel::obs::Counter& fs_obs_counter =                  \
        ::freshsel::obs::MetricsRegistry::Global().GetCounter(         \
            ::freshsel::obs::internal::CheckedMetricName(name));       \
    fs_obs_counter.Add(static_cast<std::uint64_t>(delta));             \
  } while (0)

/// Sets the named process-wide gauge.
#define FRESHSEL_OBS_GAUGE_SET(name, value)                            \
  do {                                                                 \
    static ::freshsel::obs::Gauge& fs_obs_gauge =                      \
        ::freshsel::obs::MetricsRegistry::Global().GetGauge(           \
            ::freshsel::obs::internal::CheckedMetricName(name));       \
    fs_obs_gauge.Set(static_cast<double>(value));                      \
  } while (0)

/// Records `value` into the named histogram (default latency bounds).
#define FRESHSEL_OBS_HISTOGRAM_RECORD(name, value)                     \
  do {                                                                 \
    static ::freshsel::obs::Histogram& fs_obs_histogram =              \
        ::freshsel::obs::MetricsRegistry::Global().GetHistogram(       \
            ::freshsel::obs::internal::CheckedMetricName(name));       \
    fs_obs_histogram.Record(static_cast<double>(value));               \
  } while (0)

/// Times the rest of the enclosing scope into the named latency histogram
/// (seconds, default bounds).
#define FRESHSEL_OBS_SCOPED_LATENCY(name)                              \
  static ::freshsel::obs::Histogram& FRESHSEL_OBS_CONCAT(              \
      fs_obs_scoped_hist_, __LINE__) =                                 \
      ::freshsel::obs::MetricsRegistry::Global().GetHistogram(         \
          ::freshsel::obs::internal::CheckedMetricName(name));         \
  const ::freshsel::obs::ScopedLatencyTimer FRESHSEL_OBS_CONCAT(       \
      fs_obs_scoped_timer_, __LINE__)(                                 \
      FRESHSEL_OBS_CONCAT(fs_obs_scoped_hist_, __LINE__))
