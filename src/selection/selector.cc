#include "selection/selector.h"

#include <string>

#include "common/string_util.h"
#include "obs/macros.h"
#include "obs/report.h"
#include "obs/timer.h"
#include "selection/budgeted_greedy.h"

namespace freshsel::selection {

std::string AlgorithmName(Algorithm algorithm, int kappa, int r) {
  switch (algorithm) {
    case Algorithm::kGreedy:
      return "Greedy";
    case Algorithm::kMaxSub:
      return "MaxSub";
    case Algorithm::kGrasp:
      return StringPrintf("GRASP-(%d,%d)", kappa, r);
    case Algorithm::kBudgeted:
      return "BudgetedGreedy";
  }
  return "Unknown";
}

namespace {

Result<SelectionResult> Dispatch(const ProfitFunction& oracle,
                                 const SelectorConfig& config,
                                 const PartitionMatroid* matroid) {
  switch (config.algorithm) {
    case Algorithm::kGreedy: {
      GreedyOptions options;
      options.stochastic = config.stochastic_greedy;
      options.stochastic_epsilon = config.stochastic_epsilon;
      options.stochastic_seed = config.seed;
      options.decision_log = config.decision_log;
      return Greedy(oracle, matroid, options);
    }
    case Algorithm::kMaxSub:
      if (matroid != nullptr) {
        return MaxSubMatroid(oracle, {matroid}, config.epsilon);
      }
      return MaxSub(oracle, config.epsilon);
    case Algorithm::kGrasp: {
      GraspParams params;
      params.kappa = config.grasp_kappa;
      params.restarts = config.grasp_restarts;
      params.seed = config.seed;
      params.pool = config.pool;
      params.decision_log = config.decision_log;
      return Grasp(oracle, params, matroid);
    }
    case Algorithm::kBudgeted: {
      const GainCostFunction* gain_cost = oracle.gain_cost();
      if (gain_cost == nullptr) {
        return Status::InvalidArgument(
            "BudgetedGreedy needs a gain/cost oracle");
      }
      BudgetedGreedyOptions options;
      options.stochastic = config.stochastic_greedy;
      options.stochastic_epsilon = config.stochastic_epsilon;
      options.stochastic_seed = config.seed;
      options.decision_log = config.decision_log;
      return BudgetedGreedy(*gain_cost, options);
    }
  }
  return Status::InvalidArgument("unknown algorithm");
}

}  // namespace

Result<SelectionResult> SelectSources(const ProfitFunction& oracle,
                                      const SelectorConfig& config,
                                      const PartitionMatroid* matroid) {
  FRESHSEL_TRACE_SPAN("selection/select");
  FRESHSEL_OBS_SCOPED_LATENCY("selection.select.seconds");
  FRESHSEL_OBS_GAUGE_SET("selection.universe.size", oracle.universe_size());

  obs::WallTimer timer;
  Result<SelectionResult> result = Dispatch(oracle, config, matroid);
  const double seconds = timer.ElapsedSeconds();

  if (result.ok()) {
    FRESHSEL_OBS_COUNT("selection.oracle.calls", result->oracle_calls);
    FRESHSEL_OBS_COUNT("selection.oracle.calls_saved",
                       result->oracle_calls_saved);
    if (config.report != nullptr) {
      std::string algo = AlgorithmName(
          config.algorithm, config.grasp_kappa, config.grasp_restarts);
      if (config.algorithm == Algorithm::kGreedy && config.stochastic_greedy) {
        algo = StringPrintf("StochasticGreedy-(eps=%g)",
                            config.stochastic_epsilon);
      }
      obs::RunReport& report = *config.report;
      report.labels["algorithm"] = algo;
      report.counters["oracle_calls"] += result->oracle_calls;
      report.counters["oracle_calls_saved"] += result->oracle_calls_saved;
      report.counters["selected_sources"] += result->selected.size();
      report.values["profit"] = result->profit;
      report.values["cache_hit_rate"] = result->cache_hit_rate;
      report.AddStage("select/" + algo, seconds);
    }
  }
  return result;
}

}  // namespace freshsel::selection
