#include <cmath>
#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>

#include "selection/algorithms.h"
#include "selection/audit.h"
#include "selection/set_util.h"

namespace freshsel::selection {

namespace {

/// Enumerates, for one exchange candidate `d`, every minimal removal set
/// {e_1..e_k} (one optional element per matroid) that restores independence
/// in all matroids, invoking `visit` on each resulting set. Returns after
/// the first visit that reports success.
bool TryExchanges(const std::vector<const PartitionMatroid*>& matroids,
                  const std::vector<SourceHandle>& selected, SourceHandle d,
                  const std::function<bool(
                      const std::vector<SourceHandle>&)>& visit) {
  // Per matroid: the candidate removals (empty entry = no removal needed).
  std::vector<std::vector<SourceHandle>> options;
  options.reserve(matroids.size());
  for (const PartitionMatroid* matroid : matroids) {
    if (matroid->CanAdd(selected, d)) {
      options.push_back({});  // e_i = emptyset allowed.
    } else {
      std::vector<SourceHandle> conflicts =
          matroid->ConflictsWith(selected, d);
      if (conflicts.empty()) return false;  // Cannot be fixed.
      options.push_back(std::move(conflicts));
    }
  }
  // Depth-first product over the per-matroid removal choices.
  std::vector<SourceHandle> removals;
  std::function<bool(std::size_t)> recurse = [&](std::size_t i) -> bool {
    if (i == options.size()) {
      std::vector<SourceHandle> next =
          internal::WithRemovedAll(selected, removals);
      next.insert(std::upper_bound(next.begin(), next.end(), d), d);
      // Guard: verify independence in every matroid (a removal chosen for
      // matroid i might not fix matroid j).
      for (const PartitionMatroid* matroid : matroids) {
        if (!matroid->IsIndependent(next)) return false;
      }
      return visit(next);
    }
    if (options[i].empty()) return recurse(i + 1);
    for (SourceHandle e : options[i]) {
      removals.push_back(e);
      if (recurse(i + 1)) return true;
      removals.pop_back();
    }
    // Also try "no removal" for this matroid when a previous removal may
    // already have fixed it.
    return recurse(i + 1);
  };
  return recurse(0);
}

}  // namespace

SelectionResult MatroidLocalSearch(
    const ProfitFunction& oracle,
    const std::vector<const PartitionMatroid*>& matroids,
    const std::vector<SourceHandle>& ground, double epsilon) {
  const std::uint64_t calls_before = oracle.call_count();
  const std::unique_ptr<MarginalEvalContext> ctx = oracle.MakeContext();
  SelectionResult result;
  if (ground.empty()) {
    result.profit = internal::ScoreSet(*ctx, {});
    result.oracle_calls = oracle.call_count() - calls_before;
    return result;
  }
  const double n = static_cast<double>(oracle.universe_size());
  const double slack = epsilon / (n * n * n * n);  // (1 + eps / n^4).

  // Line 3: best feasible singleton.
  std::vector<SourceHandle> selected;
  double current = -std::numeric_limits<double>::infinity();
  for (SourceHandle e : ground) {
    bool feasible = true;
    for (const PartitionMatroid* matroid : matroids) {
      if (!matroid->IsIndependent({e})) {
        feasible = false;
        break;
      }
    }
    if (!feasible) continue;
    const double profit = internal::ScoreSet(*ctx, {e});
    if (profit > current) {
      current = profit;
      selected = {e};
    }
  }
  if (!std::isfinite(current)) {
    selected.clear();
    current = internal::ScoreSet(*ctx, selected);
  }

  // Lines 4-10: delete / exchange until a local optimum.
  bool changed = true;
  while (changed) {
    changed = false;
    // Delete operation.
    for (SourceHandle e : selected) {
      const double profit =
          internal::ScoreSet(*ctx, internal::WithRemoved(selected, e));
      if (internal::ImprovesBy(profit, current, slack)) {
        selected = internal::WithRemoved(selected, e);
        current = profit;
        changed = true;
        break;
      }
    }
    if (changed) continue;
    // Exchange operation.
    for (SourceHandle d : ground) {
      if (internal::Contains(selected, d)) continue;
      const bool applied = TryExchanges(
          matroids, selected, d,
          [&](const std::vector<SourceHandle>& candidate) {
            const double profit = internal::ScoreSet(*ctx, candidate);
            if (internal::ImprovesBy(profit, current, slack)) {
              selected = candidate;
              current = profit;
              return true;
            }
            return false;
          });
      if (applied) {
        changed = true;
        break;
      }
    }
  }
  result.selected = std::move(selected);
  result.profit = current;
  result.oracle_calls = oracle.call_count() - calls_before;
  return result;
}

SelectionResult MaxSubMatroid(
    const ProfitFunction& oracle,
    const std::vector<const PartitionMatroid*>& matroids, double epsilon) {
  const std::uint64_t calls_before = oracle.call_count();
  const std::size_t k = matroids.size();
  std::vector<SourceHandle> ground =
      internal::FullUniverse(oracle.universe_size());

  SelectionResult best;
  best.profit = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < k + 1 && !ground.empty(); ++i) {
    SelectionResult local =
        MatroidLocalSearch(oracle, matroids, ground, epsilon);
    // V_{i+1} = V_i \ S_i.
    ground = internal::WithRemovedAll(ground, local.selected);
    if (local.profit > best.profit) {
      best.selected = local.selected;
      best.profit = local.profit;
    }
    if (local.selected.empty()) break;  // Nothing further to exclude.
  }
  if (!std::isfinite(best.profit)) {
    best.selected.clear();
    best.profit = oracle.Profit({});
  }
  best.oracle_calls = oracle.call_count() - calls_before;
  best.cache_hit_rate = CacheHitRateOf(oracle);
  return best;
}

}  // namespace freshsel::selection
