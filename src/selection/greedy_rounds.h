#pragma once

#include <cstdint>
#include <vector>

#include "selection/algorithms.h"
#include "selection/profit.h"

namespace freshsel::selection::internal {

/// Absolute slack of the budget feasibility test shared by both phases of
/// BudgetedGreedy.
inline constexpr double kBudgetSlack = 1e-12;

/// Outcome of one run of greedy rounds.
struct Rounds {
  std::vector<SourceHandle> selected;  ///< Sorted ascending.
  /// Objective of `selected`: its profit, or its gain for cost-benefit
  /// rounds.
  double value = 0.0;
  /// Evaluations skipped relative to scoring every eligible candidate (or
  /// every sampled one) each round; 0 for full scans.
  std::uint64_t saved = 0;
};

/// The round engine behind `Greedy` and `BudgetedGreedy` phase 1. Each
/// round adds the eligible candidate with the best score (ties -> lowest
/// handle) while its marginal beats `kImprovementEps`. The candidates of a
/// round are scored by one of three strategies:
///
///  - stochastic (`options.stochastic`): a seeded uniform sample of the
///    eligible candidates (Mirzasoleiman et al., AAAI 2015);
///  - CELF (Leskovec et al., KDD 2007): a priority queue of stale scores
///    where only the top is re-scored;
///  - full scan: every eligible candidate is re-scored.
///
/// The engine picks CELF over the full scan, and skips sampled candidates
/// whose stale score cannot win, only when `oracle.submodular()`: only
/// then is a stale score an upper bound on the current one. Candidates are
/// scored on the oracle's `MakeContext()`.
///
/// ProfitRounds maximizes the profit over matroid-feasible candidates.
/// It keeps candidates whose marginal is at most kImprovementEps in the
/// CELF queue and stops when a freshly scored top is no better.
Rounds ProfitRounds(const ProfitFunction& oracle,
                    const PartitionMatroid* matroid,
                    const GreedyOptions& options);

/// Cost-benefit rounds (BudgetedGreedy phase 1): maximizes the gain, scoring
/// marginal gain / `costs[h]` over candidates that still fit
/// `oracle.budget()`. Candidates whose marginal gain is at most
/// kImprovementEps are dropped for good.
Rounds CostBenefitRounds(const GainCostFunction& oracle,
                         const std::vector<double>& costs,
                         const GreedyOptions& options);

}  // namespace freshsel::selection::internal
