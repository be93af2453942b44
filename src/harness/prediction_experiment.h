#pragma once

#include <vector>

#include "common/result.h"
#include "harness/learned_scenario.h"

namespace freshsel::harness {

/// Relative errors of the world-count prediction E[|Omega|_t] against the
/// simulated ground truth for each eval time (Figures 9, 10(a)).
Result<std::vector<double>> WorldCountPredictionErrors(
    const LearnedScenario& learned,
    const std::vector<world::SubdomainId>& subdomains,
    const TimePoints& eval_times);

/// Relative prediction errors of one source's quality metrics over time
/// (Figures 10(b), 11): predicted via the quality estimator, actual via the
/// exact metrics against the simulated world.
struct QualityErrorSeries {
  std::vector<double> coverage;
  std::vector<double> local_freshness;
  std::vector<double> accuracy;
};
Result<QualityErrorSeries> SourceQualityPredictionErrors(
    const LearnedScenario& learned, std::size_t source_index,
    const std::vector<world::SubdomainId>& subdomains,
    const TimePoints& eval_times);

}  // namespace freshsel::harness
