#pragma once

#include <cstdint>

#include "common/result.h"
#include "workloads/scenario.h"

namespace freshsel::workloads {

/// Configuration of the synthetic news-event scenario (the paper's GDELT
/// slice: 15,275 sources over 22 days of daily snapshots, training on the
/// first 15 days, events keyed by (location, event type)).
///
/// The distinguishing structure is preserved: *every* source updates daily,
/// but sources differ widely in reporting delay and in the fraction of
/// events they ever report (Figure 1(d)); the training window is very
/// short; events rarely disappear. Source count is scaled down by default.
struct GdeltConfig {
  std::uint64_t seed = 13;
  std::uint32_t locations = 25;    ///< Location 0 plays the "US".
  std::uint32_t event_types = 10;
  TimePoint horizon = 22;
  TimePoint t0 = 15;
  std::uint32_t n_large = 8;       ///< Wide-scope aggregators.
  std::uint32_t n_small = 192;     ///< Narrow-scope outlets.
  double scale = 1.0;
};

/// Generates a GDELT-like scenario. Deterministic in `config.seed`.
Result<Scenario> GenerateGdeltScenario(const GdeltConfig& config);

}  // namespace freshsel::workloads
