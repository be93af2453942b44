#pragma once

/// Umbrella header for the observability layer (DESIGN.md §9, §14):
/// metrics registry, trace spans, run reports, the per-run decision log,
/// JSON read/write, and the instrumentation macros.

#include "obs/clock.h"         // IWYU pragma: export
#include "obs/decision_log.h"  // IWYU pragma: export
#include "obs/json_reader.h"   // IWYU pragma: export
#include "obs/macros.h"        // IWYU pragma: export
#include "obs/metrics.h"       // IWYU pragma: export
#include "obs/report.h"        // IWYU pragma: export
#include "obs/timer.h"         // IWYU pragma: export
#include "obs/trace.h"         // IWYU pragma: export
