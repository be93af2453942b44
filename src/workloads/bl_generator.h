#pragma once

#include <cstdint>

#include "common/result.h"
#include "workloads/scenario.h"

namespace freshsel::workloads {

/// Configuration of the synthetic business-listings scenario (the paper's
/// BL corpus: 43 sources, 51 US locations, daily snapshots over 23 months,
/// training on the first 10 months).
///
/// Category count and per-subdomain population are scaled down from the
/// 28M-entity original to laptop size; every structural property the
/// algorithms depend on is preserved (heterogeneous per-subdomain change
/// rates, overlapping source scopes of the Figure 8(a) shapes, update
/// frequencies decoupled from capture effectiveness).
struct BlConfig {
  std::uint64_t seed = 7;
  std::uint32_t locations = 51;
  std::uint32_t categories = 8;
  TimePoint horizon = 690;  ///< 23 months of days.
  TimePoint t0 = 300;       ///< 10 months of training.
  std::uint32_t n_uniform = 3;
  std::uint32_t n_location_specialists = 20;
  std::uint32_t n_category_specialists = 14;
  std::uint32_t n_medium = 6;
  /// Multiplies populations and appearance rates (use < 1 for quick tests).
  double scale = 1.0;

  std::uint32_t TotalSources() const {
    return n_uniform + n_location_specialists + n_category_specialists +
           n_medium;
  }
};

/// Generates a BL-like scenario: simulates the world, derives 43 (by
/// default) source specs with the Figure 8(a) scope mix, and plays the
/// world through each source. Deterministic in `config.seed`.
Result<Scenario> GenerateBlScenario(const BlConfig& config);

}  // namespace freshsel::workloads
