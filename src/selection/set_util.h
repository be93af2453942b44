#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "selection/profit.h"

namespace freshsel::selection::internal {

/// The one absolute improvement threshold shared by the greedy family
/// (Greedy, GRASP construction/local search, BudgetedGreedy): a move must
/// improve the objective by more than this to count, so near-zero marginal
/// chatter terminates instead of cycling. The Feige-Mirrokni local searches
/// use the paper's multiplicative (1 + eps/n^k) thresholds via `ImprovesBy`
/// below instead.
inline constexpr double kImprovementEps = 1e-12;

/// Local-search improvement test with the multiplicative threshold
/// candidate > (1 + slack) * current for meaningfully positive current
/// values and a small absolute guard otherwise (keeps the search finite
/// when profits are near zero or negative). Used by MaxSub (slack =
/// eps/n^2) and the matroid local search (slack = eps/n^4).
inline bool ImprovesBy(double candidate, double current, double slack) {
  if (!std::isfinite(candidate)) return false;
  const double margin = slack * std::max(std::fabs(current), 1e-3);
  return candidate > current + margin;
}

/// Sorted-vector set helpers shared by the selection algorithms.

inline bool Contains(const std::vector<SourceHandle>& set, SourceHandle e) {
  return std::binary_search(set.begin(), set.end(), e);
}

inline std::vector<SourceHandle> WithAdded(
    const std::vector<SourceHandle>& set, SourceHandle e) {
  std::vector<SourceHandle> out = set;
  out.insert(std::upper_bound(out.begin(), out.end(), e), e);
  return out;
}

inline std::vector<SourceHandle> WithRemoved(
    const std::vector<SourceHandle>& set, SourceHandle e) {
  std::vector<SourceHandle> out;
  out.reserve(set.size());
  for (SourceHandle x : set) {
    if (x != e) out.push_back(x);
  }
  return out;
}

inline std::vector<SourceHandle> WithRemovedAll(
    const std::vector<SourceHandle>& set,
    const std::vector<SourceHandle>& removals) {
  std::vector<SourceHandle> out;
  out.reserve(set.size());
  for (SourceHandle x : set) {
    if (std::find(removals.begin(), removals.end(), x) == removals.end()) {
      out.push_back(x);
    }
  }
  return out;
}

/// Profit of the sorted `set`, scored on `ctx`: the local searches' full-set
/// move. `Reset` pushes in set order, so the value is bit-identical to
/// `Profit(set)`.
inline double ScoreSet(MarginalEvalContext& ctx,
                       const std::vector<SourceHandle>& set) {
  ctx.Reset(set);
  return ctx.CurrentProfit();
}

inline std::vector<SourceHandle> FullUniverse(std::size_t n) {
  std::vector<SourceHandle> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = static_cast<SourceHandle>(i);
  return all;
}

inline std::vector<SourceHandle> Complement(
    const std::vector<SourceHandle>& set, std::size_t n) {
  std::vector<SourceHandle> out;
  out.reserve(n - set.size());
  std::size_t j = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (j < set.size() && set[j] == i) {
      ++j;
    } else {
      out.push_back(static_cast<SourceHandle>(i));
    }
  }
  return out;
}

}  // namespace freshsel::selection::internal
