#pragma once

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/time_types.h"
#include "world/world.h"

namespace freshsel::world {

/// Per-subdomain change-process parameters, matching the paper's world model
/// (Section 4.1.1): appearances are Poisson(appearance_rate) per day, entity
/// lifespan is Exponential(disappearance_rate), inter-update gaps are
/// Exponential(update_rate).
struct SubdomainRates {
  double appearance_rate = 0.0;     ///< lambda_i, expected appearances/day.
  double disappearance_rate = 0.0;  ///< gamma_d; 0 => entities never die.
  double update_rate = 0.0;         ///< gamma_u; 0 => values never change.
  std::uint32_t initial_count = 0;  ///< Population seeded at day 0.
  /// Weibull shape of the lifespan distribution; 1.0 (default) is the
  /// paper's exponential assumption. Other shapes keep the same *mean*
  /// lifespan 1/disappearance_rate but violate memorylessness - used by
  /// bench_model_robustness to stress the estimator's assumptions.
  double lifespan_shape = 1.0;
};

/// Full specification of a synthetic world.
struct WorldSpec {
  DataDomain domain;
  /// One entry per subdomain (index == SubdomainId).
  std::vector<SubdomainRates> rates;
  /// Simulated days are [0, horizon].
  TimePoint horizon = 0;
};

/// Simulates a world: seeds each subdomain's initial population at day 0,
/// then draws Poisson appearance counts per day, an exponential lifespan for
/// every entity (rounded up to whole days; deaths beyond the horizon are
/// kept, providing ground truth for future evaluation), and exponential
/// update gaps truncated at death.
///
/// Returns InvalidArgument on malformed specs (rates size mismatch, negative
/// rates, non-positive horizon).
Result<World> SimulateWorld(const WorldSpec& spec, Rng& rng);

}  // namespace freshsel::world
