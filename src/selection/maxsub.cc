#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>

#include "common/check.h"
#include "obs/macros.h"
#include "selection/algorithms.h"
#include "selection/audit.h"
#include "selection/set_util.h"

namespace freshsel::selection {

SelectionResult MaxSub(const ProfitFunction& oracle, double epsilon) {
  FRESHSEL_TRACE_SPAN("selection/maxsub");
  const std::size_t n = oracle.universe_size();
  const std::uint64_t calls_before = oracle.call_count();
  const std::unique_ptr<MarginalEvalContext> ctx = oracle.MakeContext();

  // Line 3: start from the best singleton.
  std::vector<SourceHandle> start;
  double best = -std::numeric_limits<double>::infinity();
  for (std::size_t e = 0; e < n; ++e) {
    const SourceHandle handle = static_cast<SourceHandle>(e);
    const double profit = internal::ScoreSet(*ctx, {handle});
    if (profit > best) {
      best = profit;
      start = {handle};
    }
  }
  if (!std::isfinite(best)) {
    // Every singleton is infeasible; fall back to the empty set.
    start.clear();
  }
  SelectionResult result = MaxSubFrom(oracle, std::move(start), epsilon);
  result.oracle_calls = oracle.call_count() - calls_before;
  return result;
}

SelectionResult MaxSubFrom(const ProfitFunction& oracle,
                           std::vector<SourceHandle> initial,
                           double epsilon) {
  const std::size_t n = oracle.universe_size();
  for (std::size_t i = 0; i < initial.size(); ++i) {
    FRESHSEL_CHECK(initial[i] < n)
        << "MaxSubFrom: handle " << initial[i]
        << " is outside the universe of " << n;
    FRESHSEL_CHECK(i == 0 || initial[i - 1] < initial[i])
        << "MaxSubFrom: the initial set must be sorted and distinct";
  }
  const std::uint64_t calls_before = oracle.call_count();
  const std::unique_ptr<MarginalEvalContext> ctx = oracle.MakeContext();
  SelectionResult result;
  if (n == 0) {
    result.profit = internal::ScoreSet(*ctx, {});
    result.oracle_calls = oracle.call_count() - calls_before;
    result.cache_hit_rate = CacheHitRateOf(oracle);
    return result;
  }
  std::vector<SourceHandle> selected = std::move(initial);
  double current = internal::ScoreSet(*ctx, selected);

  // Lines 4-10: additions / deletions while they beat the (1 + eps/n^2)
  // threshold.
  const double slack = epsilon / (static_cast<double>(n) *
                                  static_cast<double>(n));
  bool changed = true;
  while (changed) {
    changed = false;
    FRESHSEL_OBS_COUNT("selection.maxsub.passes", 1);
    // Best addition.
    double best_profit = current;
    SourceHandle best_element = 0;
    bool add_found = false;
    for (std::size_t e = 0; e < n; ++e) {
      const SourceHandle handle = static_cast<SourceHandle>(e);
      if (internal::Contains(selected, handle)) continue;
      const double profit =
          internal::ScoreSet(*ctx, internal::WithAdded(selected, handle));
      if (internal::ImprovesBy(profit, current, slack) &&
          profit > best_profit) {
        best_profit = profit;
        best_element = handle;
        add_found = true;
      }
    }
    if (add_found) {
      selected = internal::WithAdded(selected, best_element);
      current = best_profit;
      changed = true;
      continue;
    }
    // Best deletion.
    bool del_found = false;
    for (SourceHandle handle : selected) {
      const double profit =
          internal::ScoreSet(*ctx, internal::WithRemoved(selected, handle));
      if (internal::ImprovesBy(profit, current, slack) &&
          profit > best_profit) {
        best_profit = profit;
        best_element = handle;
        del_found = true;
      }
    }
    if (del_found) {
      selected = internal::WithRemoved(selected, best_element);
      current = best_profit;
      changed = true;
    }
  }

  // Line 11: the better of the local optimum and its complement.
  const std::vector<SourceHandle> complement =
      internal::Complement(selected, n);
  const double complement_profit = internal::ScoreSet(*ctx, complement);
  if (complement_profit > current) {
    selected = complement;
    current = complement_profit;
  }
  result.selected = std::move(selected);
  result.profit = current;
  result.oracle_calls = oracle.call_count() - calls_before;
  result.cache_hit_rate = CacheHitRateOf(oracle);
  return result;
}

}  // namespace freshsel::selection
