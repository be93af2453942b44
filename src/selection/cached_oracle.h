#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "selection/profit.h"

namespace freshsel::selection {

/// Memoizing decorator around a profit oracle. Selection runs re-evaluate
/// the same sets constantly - GRASP restarts revisit construction prefixes,
/// the local search re-probes neighbors of a slowly moving incumbent, and
/// BudgetedGreedy's phase 2 re-scores singletons phase 1 already saw - so a
/// transparent cache in front of the oracle removes a large share of the
/// expensive estimator evaluations without touching the algorithms.
///
/// Cache keys are the canonical sorted-handle vectors the selection layer
/// already maintains (see set_util.h): every caller that builds a set via
/// WithAdded/WithRemoved produces the same representation for the same
/// mathematical set, so one map lookup per evaluation suffices and no
/// re-sorting is needed.
///
/// `Profit`, `Gain` and `Cost` are cached independently. The decorator's
/// own `call_count()` counts *misses only* (evaluations forwarded to the
/// wrapped oracle), so existing oracle-call telemetry measures real work.
/// Hits and misses are tallied in `Stats`.
///
/// Thread-safe (maps are mutex-guarded) when the wrapped oracle is; shares
/// the wrapped oracle's `thread_safe()` verdict.
class CachedProfitOracle : public GainCostFunction {
 public:
  /// Wraps `base` (not owned; must outlive the decorator). Gain/Cost/budget
  /// forward to `base` when it implements `GainCostFunction`; calling them
  /// on a plain-profit base is a contract violation.
  explicit CachedProfitOracle(const ProfitFunction& base);

  /// Hit/miss tallies. `stats()` returns one value-copied snapshot taken
  /// under the cache mutex, so `hits`, `misses`, and `hit_rate()` on the
  /// returned struct are mutually consistent even while other threads keep
  /// evaluating - never read the two counters through separate calls. The
  /// same events also stream into the global MetricsRegistry as the
  /// "selection.cache.hits" / "selection.cache.misses" counters when
  /// instrumentation is compiled in.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    double hit_rate() const {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) /
                                    static_cast<double>(total);
    }
  };

  std::size_t universe_size() const override { return base_->universe_size(); }
  double Profit(const std::vector<SourceHandle>& set) const override;
  double Gain(const std::vector<SourceHandle>& set) const override;
  double Cost(const std::vector<SourceHandle>& set) const override;
  double budget() const override;
  bool thread_safe() const override { return base_->thread_safe(); }

  /// This decorator when the wrapped oracle has a gain/cost
  /// decomposition, else null (so `SelectSources` refuses BudgetedGreedy
  /// over a plain-profit base instead of failing inside `budget()`).
  const GainCostFunction* gain_cost() const override {
    return gain_cost_ != nullptr ? this : nullptr;
  }

  /// Forwards the wrapped oracle's submodularity: memoizing changes no
  /// value, so the serve path keeps CELF for submodular profits.
  bool submodular() const override { return base_->submodular(); }

  /// A caching context: evaluations delegate to the wrapped oracle's
  /// context and are memoized into the shared profit/gain caches under the
  /// same canonical sorted-set keys the plain calls use, so context and
  /// plain evaluations of the same set share one entry.
  std::unique_ptr<MarginalEvalContext> MakeContext() const override;

  /// One consistent snapshot of the hit/miss tallies across all three
  /// cached evaluations (see Stats).
  Stats stats() const;

  /// Lock-free running hit tally (equals stats().hits, read without the
  /// cache mutex). The selection decision log samples this once per
  /// accepted round to attribute cache hits to rounds (see
  /// selection/audit.h); a mutexed read there would put lock traffic on
  /// the audit path the lock-free DecisionLog exists to avoid.
  std::uint64_t hit_count() const {
    return hit_events_.load(std::memory_order_relaxed);
  }

  /// Drops every memoized value and zeroes the tallies (the wrapped
  /// oracle's call counter is left alone).
  void ClearCaches();

 private:
  class CachedContext;

  struct SetHash {
    std::size_t operator()(const std::vector<SourceHandle>& set) const;
  };
  using Cache =
      std::unordered_map<std::vector<SourceHandle>, double, SetHash>;

  /// Which of the three memo maps an evaluation lands in. Selected *under*
  /// the cache mutex (CacheFor) so the guarded maps are never referenced
  /// unlocked — the thread-safety analysis checks this (DESIGN.md §12).
  enum class CacheKind { kProfit, kGain, kCost };
  Cache& CacheFor(CacheKind kind) const FRESHSEL_REQUIRES(mutex_);

  template <typename Eval>
  double Memoize(CacheKind kind, const std::vector<SourceHandle>& set,
                 const Eval& eval) const FRESHSEL_EXCLUDES(mutex_);

  const ProfitFunction* base_;
  const GainCostFunction* gain_cost_;  // Null when base is profit-only.

  mutable Mutex mutex_;
  mutable Cache profit_cache_ FRESHSEL_GUARDED_BY(mutex_);
  mutable Cache gain_cache_ FRESHSEL_GUARDED_BY(mutex_);
  mutable Cache cost_cache_ FRESHSEL_GUARDED_BY(mutex_);
  mutable Stats stats_ FRESHSEL_GUARDED_BY(mutex_);
  /// Mirrors stats_.hits for the lock-free hit_count() reader.
  mutable std::atomic<std::uint64_t> hit_events_{0};
};

}  // namespace freshsel::selection
