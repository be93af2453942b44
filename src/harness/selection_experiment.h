#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "harness/learned_scenario.h"
#include "selection/selector.h"
#include "stats/descriptive.h"

namespace freshsel::harness {

/// One data-domain point a user query targets (e.g. restaurants in
/// California): a named set of subdomains.
struct DomainPoint {
  std::string name;
  std::vector<world::SubdomainId> subdomains;
};

/// One algorithm entrant in a comparison.
struct AlgoSpec {
  selection::Algorithm algorithm = selection::Algorithm::kGreedy;
  int kappa = 1;
  int restarts = 1;

  std::string Name() const {
    return selection::AlgorithmName(algorithm, kappa, restarts);
  }
};

/// Configuration of a Table 1/3-style comparison.
struct ComparisonConfig {
  selection::GainModel gain{selection::GainFamily::kLinear,
                            selection::QualityMetric::kCoverage};
  double budget = std::numeric_limits<double>::infinity();
  double cost_weight = 1.0;
  std::vector<AlgoSpec> algorithms;
  /// Future time points, as offsets from t0 (e.g. {30, 60, ...}).
  std::vector<std::int64_t> eval_offsets;
  /// 1 = fixed frequencies; > 1 = varying-frequency selection over the
  /// augmented universe with divisors 1..max_divisor.
  std::int64_t max_divisor = 1;
  double epsilon = 0.5;
  std::uint64_t seed = 42;
  /// Optional run report (not owned) every selector invocation folds its
  /// oracle-call counters and timed stages into (see obs/report.h).
  obs::RunReport* report = nullptr;
};

/// Aggregated outcome of one algorithm across all domain points.
struct AlgoAggregate {
  std::string name;
  int best_count = 0;    ///< Runs where it matched the best profit.
  int run_count = 0;
  stats::RunningStats profit_diff_pct;  ///< % diff from best (subopt runs).
  stats::RunningStats runtime_ms;
  stats::RunningStats oracle_calls;
  stats::RunningStats quality;          ///< Gain metric of the selection.
  stats::RunningStats coverage;         ///< Estimated coverage.
  stats::RunningStats n_sources;
  /// Mean frequency divisor of selected sources, split by class
  /// (Table 7). Only filled when max_divisor > 1.
  std::map<workloads::SourceClass, stats::RunningStats> divisor_by_class;
  /// How many selected sources of each class (Figure 12).
  std::map<workloads::SourceClass, int> selected_by_class;
  /// Size (items at t0) and breadth (#observed subdomains) of the selected
  /// sources (Figure 12's scatter axes).
  stats::RunningStats selected_size;
  stats::RunningStats selected_scope;

  double BestPct() const {
    return run_count > 0 ? 100.0 * best_count / run_count : 0.0;
  }
};

/// Runs every algorithm on every domain point and aggregates (the paper's
/// Tables 1-7 / Figures 12-13 pipeline). `classes` must parallel
/// `learned.profiles` (pass scenario.classes, or the roster's for BL+).
Result<std::vector<AlgoAggregate>> RunComparison(
    const LearnedScenario& learned,
    const std::vector<workloads::SourceClass>& classes,
    const std::vector<DomainPoint>& points, const ComparisonConfig& config);

/// The `count` largest subdomains (by population at t0) of a scenario's
/// world, each as its own domain point — the paper's "six largest domain
/// points".
std::vector<DomainPoint> LargestSubdomainPoints(const world::World& world,
                                                TimePoint t0,
                                                std::size_t count,
                                                std::uint32_t dim1_filter =
                                                    UINT32_MAX);

}  // namespace freshsel::harness
