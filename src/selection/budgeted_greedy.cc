#include "selection/budgeted_greedy.h"

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "obs/decision_log.h"
#include "obs/macros.h"
#include "selection/audit.h"
#include "selection/greedy_rounds.h"

namespace freshsel::selection {

SelectionResult BudgetedGreedy(const GainCostFunction& oracle,
                               const BudgetedGreedyOptions& options) {
  FRESHSEL_TRACE_SPAN("selection/budgeted_greedy");
  const std::size_t n = oracle.universe_size();
  const double budget = oracle.budget();
  const std::uint64_t calls_before = oracle.call_count();

  // Singleton costs, evaluated once: O(n) cost-oracle calls total instead
  // of several per element per greedy round.
  std::vector<double> singleton_costs(n);
  for (std::size_t e = 0; e < n; ++e) {
    singleton_costs[e] = oracle.Cost({static_cast<SourceHandle>(e)});
  }

  // Phase 1: cost-benefit greedy.
  internal::Rounds phase1 =
      internal::CostBenefitRounds(oracle, singleton_costs, options);
  FRESHSEL_OBS_COUNT("selection.budgeted.phase1_selected",
                     phase1.selected.size());

  // Phase 2: the best affordable singleton can beat the ratio greedy when
  // one expensive element dominates. Singleton gains are scored on a
  // context over the empty set.
  RoundAudit audit(options.decision_log, oracle);
  audit.BeginRound();
  const std::unique_ptr<MarginalEvalContext> ctx = oracle.MakeContext();
  double best_single_gain = -1.0;
  SourceHandle best_single = 0;
  std::uint64_t affordable_singletons = 0;
  RunnerUpTracker tracker;
  for (std::size_t e = 0; e < n; ++e) {
    const SourceHandle handle = static_cast<SourceHandle>(e);
    if (singleton_costs[e] > budget + internal::kBudgetSlack) continue;
    ++affordable_singletons;
    const double gain = ctx->GainWith(handle);
    if (audit.active()) tracker.Observe(handle, gain);
    if (gain > best_single_gain) {
      best_single_gain = gain;
      best_single = handle;
    }
  }

  SelectionResult result;
  if (best_single_gain > phase1.value) {
    FRESHSEL_OBS_COUNT("selection.budgeted.singleton_wins", 1);
    if (audit.active()) {
      // The Khuller-Moss-Naor override replaces the whole phase-1 run, so
      // its record follows the phase-1 rounds and scores the singleton's
      // gain from the empty set.
      obs::DecisionRecord record;
      record.round = static_cast<std::uint32_t>(phase1.selected.size());
      record.kind = obs::DecisionKind::kSingleton;
      record.chosen = best_single;
      record.gain = best_single_gain;
      record.profit = best_single_gain;
      record.score = best_single_gain;
      record.pool_size = affordable_singletons;
      tracker.FillRunnerUp(best_single_gain, &record);
      audit.Commit(record);
    }
    result.selected = {best_single};
  } else {
    result.selected = std::move(phase1.selected);
  }
  result.profit = oracle.Profit(result.selected);
  result.oracle_calls = oracle.call_count() - calls_before;
  result.oracle_calls_saved = phase1.saved;
  result.cache_hit_rate = CacheHitRateOf(oracle);
  return result;
}

}  // namespace freshsel::selection
