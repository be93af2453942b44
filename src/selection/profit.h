#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/result.h"
#include "estimation/quality_estimator.h"
#include "selection/gain.h"

namespace freshsel::selection {

using SourceHandle = estimation::QualityEstimator::SourceHandle;

class GainCostFunction;

/// The one scoring path of the selection algorithms: a context holds a
/// *current* set S and scores S, or S plus one candidate, counting one
/// oracle call per evaluation exactly like `Profit`/`Gain` (infeasible
/// `ProfitWith`/`CurrentProfit` return -infinity without counting). Every
/// oracle hands one out (`ProfitFunction::MakeContext`):
///
///  - the base default keeps the sorted set and answers with `Profit`/
///    `Gain` on it or on `WithAdded(set, x)`, so a synthetic oracle needs
///    nothing more;
///  - the estimator-backed `ProfitOracle` carries the estimator's running
///    state, so `ProfitWith`/`GainWith` cost O(steps * |T_f| + domain
///    words) instead of O(|S|) times that, and `Reset` keeps the prefix
///    it already holds and pushes only the sources after it.
///
/// The greedy family re-roots the context with `Reset` after each accepted
/// move and scores candidates with `ProfitWith`/`GainWith`; those agree
/// with the plain oracle to ulp precision (the candidate's factors are
/// multiplied last, not at its sorted position). The local searches score
/// a full-set move as `Reset(sorted set)` plus `CurrentProfit()`, which is
/// bit-identical to `Profit(set)`.
///
/// Contexts are single-threaded; parallel evaluation paths create one per
/// worker chunk (`MakeContext` itself is safe to call concurrently on a
/// thread-safe oracle).
class MarginalEvalContext {
 public:
  virtual ~MarginalEvalContext() = default;

  /// Makes the current set `set`, which must be canonically sorted (the
  /// representation the selection layer maintains, see set_util.h). The
  /// resulting state is the same as building it from empty.
  virtual void Reset(const std::vector<SourceHandle>& set) = 0;
  /// The current set, canonically sorted.
  virtual const std::vector<SourceHandle>& set() const = 0;

  /// Value of the current set S (counts one oracle call, -infinity when S
  /// is over budget).
  virtual double CurrentProfit() = 0;
  /// Gain component of S (counts one oracle call).
  virtual double CurrentGain() = 0;
  /// Value of S + {handle} without mutating the context.
  virtual double ProfitWith(SourceHandle handle) = 0;
  /// Gain of S + {handle} without mutating the context.
  virtual double GainWith(SourceHandle handle) = 0;
};

/// Abstract set-function oracle the selection algorithms maximize. Concrete
/// instances: `ProfitOracle` (the real estimator-backed profit) and the
/// synthetic submodular functions used by the tests and microbenches.
/// Implementations count their oracle calls for the runtime experiments;
/// the counter is atomic so one oracle can be shared by the parallel
/// candidate-evaluation paths without losing counts.
class ProfitFunction {
 public:
  virtual ~ProfitFunction() = default;

  /// Number of selectable elements (handles are 0..n-1).
  virtual std::size_t universe_size() const = 0;

  /// Value of a set; -infinity marks an infeasible set.
  virtual double Profit(const std::vector<SourceHandle>& set) const = 0;

  /// True when `Profit` (and `Gain`/`Cost` where present) may be called
  /// concurrently from several threads. The parallel evaluation paths
  /// consult this before fanning out; implementations with unguarded
  /// mutable scratch state must leave it false.
  virtual bool thread_safe() const { return false; }

  /// True only when the profit - and, for a `GainCostFunction`, the gain -
  /// is known to be submodular: a marginal gain never grows as the set
  /// grows. The greedy rounds trust stale marginals as upper bounds (CELF,
  /// the stochastic stale-bound skip) only then, so the default is the
  /// conservative false and a wrong true changes selections.
  virtual bool submodular() const { return false; }

  /// A fresh context over the empty set; never null. The default scores
  /// with this oracle's own `Profit` and `Gain` (the latter needs a
  /// `gain_cost()`), so call counts equal the plain calls'. Oracles with
  /// cheaper incremental state override it.
  virtual std::unique_ptr<MarginalEvalContext> MakeContext() const;

  /// This oracle's gain/cost decomposition, or null when it has none.
  /// Ask this rather than `dynamic_cast`: a decorator may be a
  /// `GainCostFunction` by type over a base that is not one.
  virtual const GainCostFunction* gain_cost() const { return nullptr; }

  std::uint64_t call_count() const {
    return calls_.load(std::memory_order_relaxed);
  }
  void ResetCallCount() const {
    calls_.store(0, std::memory_order_relaxed);
  }

 protected:
  ProfitFunction() = default;
  // std::atomic is neither copyable nor movable; oracles are moved through
  // Result<T>, so transfer the counter value by hand.
  ProfitFunction(const ProfitFunction& other)
      : calls_(other.call_count()) {}
  ProfitFunction& operator=(const ProfitFunction& other) {
    calls_.store(other.call_count(), std::memory_order_relaxed);
    return *this;
  }

  mutable std::atomic<std::uint64_t> calls_{0};
};

/// Profit oracles that additionally expose the gain/cost decomposition
/// profit = gain - weight * cost and a cost budget. `BudgetedGreedy` and
/// the cached decorator operate on this interface so they work with both
/// the estimator-backed `ProfitOracle` and synthetic test functions.
class GainCostFunction : public ProfitFunction {
 public:
  /// Gain component of a set (monotone submodular for the paper's
  /// coverage / global-freshness metrics).
  virtual double Gain(const std::vector<SourceHandle>& set) const = 0;

  /// Additive cost of a set.
  virtual double Cost(const std::vector<SourceHandle>& set) const = 0;

  /// Budget on `Cost`; +infinity when unconstrained.
  virtual double budget() const = 0;

  const GainCostFunction* gain_cost() const override { return this; }
};

/// How per-time-point gains are aggregated over T_f (the paper's A in
/// Section 2.2, "e.g., average or max"). Only kAverage preserves
/// submodularity (Section 5's condition): a max or min of submodular
/// functions need not be submodular.
enum class AggregateMode {
  kAverage,
  kMax,
  kMin,
};

/// The value oracle the selection algorithms maximize:
///   profit(S) = gain(S) - cost_weight * cost(S),
/// with gain(S) the aggregate over the eval times T_f of the gain model
/// applied to the estimated quality (the paper's A; average by default),
/// and cost(S) the sum of the selected sources' costs. Gain and cost are
/// both rescaled to [0, 1] as in Section 6.1: gain by its maximum
/// attainable value, cost by the total cost of the whole universe.
///
/// Sets over the cost budget evaluate to -infinity (infeasible).
///
/// Oracle calls are counted for the runtime/telemetry experiments.
///
/// Thread-safe once construction finishes: `Profit`/`Gain`/`Cost` only
/// read oracle state and the estimator's evaluation path is internally
/// synchronized, so the parallel selection paths may share one oracle.
class ProfitOracle : public GainCostFunction {
 public:
  struct Config {
    GainModel gain{GainFamily::kLinear, QualityMetric::kCoverage};
    /// Budget on *normalized* cost (1.0 = cost of acquiring everything).
    double budget = std::numeric_limits<double>::infinity();
    double cost_weight = 1.0;
    AggregateMode aggregate = AggregateMode::kAverage;
  };

  /// `costs[h]` is the (already divisor-discounted) cost of the estimator's
  /// source handle h; must cover every registered handle. Returns
  /// InvalidArgument on size mismatch.
  static Result<ProfitOracle> Create(
      const estimation::QualityEstimator* estimator,
      std::vector<double> costs, Config config);

  /// Number of selectable sources (== estimator handles).
  std::size_t universe_size() const override { return costs_.size(); }

  /// Normalized cost of a set.
  double Cost(const std::vector<SourceHandle>& set) const override;

  /// Normalized average gain of a set over the eval times.
  double Gain(const std::vector<SourceHandle>& set) const override;

  /// profit = Gain - cost_weight * Cost, or -infinity over budget.
  double Profit(const std::vector<SourceHandle>& set) const override;

  bool thread_safe() const override { return true; }

  /// True for the combinations the paper proves submodular (Thms. 1-2),
  /// averaged over T_f: the Linear gain of coverage, global freshness or
  /// their mix, and the Data gain. Accuracy, local freshness, the
  /// Quadratic and Step curves, the max/min aggregates and an estimator
  /// that models the capture backlog report false.
  /// The budget does not enter: a budget is a constraint, not part of the
  /// set function.
  bool submodular() const override;

  /// A context backed by the estimator's `EvalContext`: `ProfitWith`/
  /// `GainWith` score S + {x} in O(steps * |T_f| + domain words),
  /// independent of |S|; `Reset(set)` pops back to the longest common
  /// prefix of the pushed sources and `set` and pushes the rest, each push
  /// costing O(nonzero signature words of the source + steps * |T_f|).
  std::unique_ptr<MarginalEvalContext> MakeContext() const override;

  /// Budget on normalized cost (from the config; +infinity by default).
  double budget() const override { return config_.budget; }

  bool WithinBudget(const std::vector<SourceHandle>& set) const {
    return Cost(set) <= config_.budget + 1e-12;
  }

  const estimation::QualityEstimator& estimator() const {
    return *estimator_;
  }
  const Config& config() const { return config_; }

 private:
  class IncrementalContext;

  ProfitOracle() = default;

  /// Folds per-eval-time qualities into the configured aggregate with the
  /// exact arithmetic of `Gain` (shared by the plain and delta paths).
  double AggregateGain(
      const std::vector<estimation::EstimatedQuality>& qualities) const;

  const estimation::QualityEstimator* estimator_ = nullptr;
  std::vector<double> costs_;      // Normalized per-handle costs.
  Config config_;
  double gain_scale_ = 1.0;        // 1 / max raw gain.
};

}  // namespace freshsel::selection
