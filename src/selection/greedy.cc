#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "obs/macros.h"
#include "selection/algorithms.h"
#include "selection/audit.h"
#include "selection/greedy_rounds.h"

namespace freshsel::selection {

SelectionResult Greedy(const ProfitFunction& oracle,
                       const PartitionMatroid* matroid,
                       const GreedyOptions& options) {
  const std::uint64_t calls_before = oracle.call_count();
  internal::Rounds rounds = internal::ProfitRounds(oracle, matroid, options);
  FRESHSEL_OBS_COUNT("selection.greedy.rounds", rounds.selected.size());
  SelectionResult result;
  result.selected = std::move(rounds.selected);
  result.profit = rounds.value;
  result.oracle_calls = oracle.call_count() - calls_before;
  result.oracle_calls_saved = rounds.saved;
  result.cache_hit_rate = CacheHitRateOf(oracle);
  return result;
}

SelectionResult BruteForce(const ProfitFunction& oracle,
                           const PartitionMatroid* matroid) {
  const std::size_t n = oracle.universe_size();
  const std::uint64_t calls_before = oracle.call_count();
  SelectionResult best;
  best.profit = -std::numeric_limits<double>::infinity();
  if (n > 24) return best;  // Guardrail: 2^n enumeration.
  for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << n); ++bits) {
    std::vector<SourceHandle> set;
    for (std::size_t e = 0; e < n; ++e) {
      if ((bits >> e) & 1) set.push_back(static_cast<SourceHandle>(e));
    }
    if (matroid != nullptr && !matroid->IsIndependent(set)) continue;
    const double profit = oracle.Profit(set);
    if (profit > best.profit) {
      best.profit = profit;
      best.selected = std::move(set);
    }
  }
  best.oracle_calls = oracle.call_count() - calls_before;
  return best;
}

}  // namespace freshsel::selection
