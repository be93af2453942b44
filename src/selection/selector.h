#pragma once

#include <cstdint>
#include <string>

#include "common/result.h"
#include "selection/algorithms.h"

namespace freshsel::obs {
struct RunReport;
}  // namespace freshsel::obs

namespace freshsel::selection {

/// Which selection algorithm the facade dispatches to.
enum class Algorithm {
  kGreedy,    ///< Dong et al. greedy baseline.
  kMaxSub,    ///< Algorithm 1, or Algorithm 2 when a matroid is given.
  kGrasp,     ///< GRASP(kappa, r).
  kBudgeted,  ///< BudgetedGreedy; needs a GainCostFunction oracle.
};

/// Human-readable algorithm label ("Greedy", "MaxSub", "GRASP-(5,20)",
/// "BudgetedGreedy").
std::string AlgorithmName(Algorithm algorithm, int kappa = 1, int r = 1);

/// Facade configuration for `SelectSources`.
struct SelectorConfig {
  Algorithm algorithm = Algorithm::kMaxSub;
  double epsilon = 0.5;  ///< Local-search threshold parameter.
  int grasp_kappa = 1;
  int grasp_restarts = 1;
  std::uint64_t seed = 42;
  /// Stochastic rounds for the kGreedy and kBudgeted paths (see
  /// GreedyOptions::stochastic): per-round uniform candidate sampling at
  /// slack `stochastic_epsilon`, seeded from `seed`, with the sample-size
  /// k derived from the matroid (or n when unconstrained). Ignored by the
  /// other algorithms.
  bool stochastic_greedy = false;
  double stochastic_epsilon = 0.1;
  /// Optional thread pool (not owned) for GRASP's parallel candidate
  /// evaluation; used only when the oracle reports thread_safe().
  ThreadPool* pool = nullptr;
  /// Optional run report (not owned) the selector folds its outcome into:
  /// the algorithm label, oracle-call counters (made / saved), the final
  /// profit, and a timed "select/<algo>" stage (see obs/report.h). The
  /// caller owns serialization (--metrics-out).
  obs::RunReport* report = nullptr;
  /// Optional per-run decision log (not owned) threaded into the greedy,
  /// budgeted, and GRASP paths (MaxSub's local search is not audited).
  /// Callers that want the trail inside a RunReport pass
  /// `&report->decision_log` explicitly - the selector never wires the two
  /// together on its own, so repeated SelectSources calls against one
  /// report (bench loops) do not accumulate records.
  obs::DecisionLog* decision_log = nullptr;
};

/// Runs the configured algorithm on `oracle`, constrained by `matroid` when
/// given (Greedy and GRASP check feasibility directly; MaxSub switches to
/// the Algorithm 2 matroid local search; BudgetedGreedy is bound by the
/// oracle's budget alone and ignores it). kBudgeted returns InvalidArgument
/// when `oracle` is not a GainCostFunction. The one place a run is folded
/// into `config.report`.
Result<SelectionResult> SelectSources(const ProfitFunction& oracle,
                                      const SelectorConfig& config,
                                      const PartitionMatroid* matroid =
                                          nullptr);

}  // namespace freshsel::selection
