#include "selection/profit.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "selection/set_util.h"

namespace freshsel::selection {

namespace {

/// The base default context: keeps the sorted set and scores it, or it
/// plus one candidate, with the oracle's own full-set calls.
class SetContext final : public MarginalEvalContext {
 public:
  explicit SetContext(const ProfitFunction* oracle) : oracle_(oracle) {}

  void Reset(const std::vector<SourceHandle>& set) override {
    FRESHSEL_DCHECK(std::is_sorted(set.begin(), set.end()))
        << "Reset expects a canonically sorted set";
    set_ = set;
  }
  const std::vector<SourceHandle>& set() const override { return set_; }

  double CurrentProfit() override { return oracle_->Profit(set_); }
  double CurrentGain() override { return GainCost().Gain(set_); }
  double ProfitWith(SourceHandle handle) override {
    return oracle_->Profit(internal::WithAdded(set_, handle));
  }
  double GainWith(SourceHandle handle) override {
    return GainCost().Gain(internal::WithAdded(set_, handle));
  }

 private:
  const GainCostFunction& GainCost() const {
    const GainCostFunction* gain_cost = oracle_->gain_cost();
    FRESHSEL_CHECK(gain_cost != nullptr)
        << "scoring a gain needs a GainCostFunction oracle";
    return *gain_cost;
  }

  const ProfitFunction* oracle_;
  std::vector<SourceHandle> set_;
};

}  // namespace

std::unique_ptr<MarginalEvalContext> ProfitFunction::MakeContext() const {
  return std::make_unique<SetContext>(this);
}

Result<ProfitOracle> ProfitOracle::Create(
    const estimation::QualityEstimator* estimator, std::vector<double> costs,
    Config config) {
  if (estimator == nullptr) {
    return Status::InvalidArgument("estimator must not be null");
  }
  if (costs.size() != estimator->source_count()) {
    return Status::InvalidArgument(
        "need one cost per registered estimator source");
  }
  ProfitOracle oracle;
  oracle.estimator_ = estimator;
  oracle.config_ = config;

  // Normalize costs so the whole universe costs 1.
  double total_cost = 0.0;
  for (double c : costs) {
    if (!std::isfinite(c) || c < 0.0) {
      return Status::InvalidArgument("source costs must be finite and >= 0");
    }
    total_cost += c;
  }
  if (total_cost > 0.0) {
    for (double& c : costs) c /= total_cost;
  }
  oracle.costs_ = std::move(costs);

  // Normalize gain by its maximum attainable raw value; for DataGain that
  // depends on the expected world size, bounded by the largest eval time.
  // One pass over the empty set; the fold keeps the order of the
  // average-then-per-time maximum it replaces.
  std::vector<estimation::EstimatedQuality> empty;
  estimator->EstimateAllTimes({}, empty);
  double max_world = 1.0;
  if (!empty.empty()) {
    double world_sum = 0.0;
    for (const estimation::EstimatedQuality& q : empty) {
      world_sum += q.expected_world;
    }
    max_world = std::max(
        max_world, world_sum / static_cast<double>(empty.size()));
  }
  for (const estimation::EstimatedQuality& q : empty) {
    max_world = std::max(max_world, q.expected_world);
  }
  const double max_gain = config.gain.MaxGain(max_world);
  oracle.gain_scale_ = max_gain > 0.0 ? 1.0 / max_gain : 1.0;
  return oracle;
}

double ProfitOracle::Cost(const std::vector<SourceHandle>& set) const {
  double total = 0.0;
  for (SourceHandle h : set) {
    FRESHSEL_DCHECK(h < costs_.size()) << "unknown source handle " << h;
    total += costs_[h];
  }
  return total;
}

double ProfitOracle::AggregateGain(
    const std::vector<estimation::EstimatedQuality>& qualities) const {
  if (qualities.empty()) return 0.0;
  double total = 0.0;
  double best = -std::numeric_limits<double>::infinity();
  double worst = std::numeric_limits<double>::infinity();
  for (const estimation::EstimatedQuality& q : qualities) {
    const double gain = config_.gain.Evaluate(q);
    FRESHSEL_DCHECK_FINITE(gain);
    total += gain;
    best = std::max(best, gain);
    worst = std::min(worst, gain);
  }
  switch (config_.aggregate) {
    case AggregateMode::kMax:
      return gain_scale_ * best;
    case AggregateMode::kMin:
      return gain_scale_ * worst;
    case AggregateMode::kAverage:
      break;
  }
  return gain_scale_ * total / static_cast<double>(qualities.size());
}

double ProfitOracle::Gain(const std::vector<SourceHandle>& set) const {
  calls_.fetch_add(1, std::memory_order_relaxed);
  // One batched estimator pass shares the union-signature work across the
  // eval times; the per-time results (and therefore the aggregate) are
  // bit-identical to per-time Estimate calls. The thread-local buffer
  // keeps the hot path allocation-free.
  static thread_local std::vector<estimation::EstimatedQuality> qualities;
  estimator_->EstimateAllTimes(set, qualities);
  return AggregateGain(qualities);
}

double ProfitOracle::Profit(const std::vector<SourceHandle>& set) const {
  const double cost = Cost(set);
  if (cost > config_.budget + 1e-12) {
    return -std::numeric_limits<double>::infinity();
  }
  return Gain(set) - config_.cost_weight * cost;
}

/// The estimator-backed context: wraps a QualityEstimator::EvalContext
/// (running union signatures + per-tau miss products of the current set).
/// Costs are summed over the sorted set in exactly the order the plain
/// `Cost` would, so budget feasibility can never flip between the plain
/// and delta paths.
class ProfitOracle::IncrementalContext final : public MarginalEvalContext {
 public:
  explicit IncrementalContext(const ProfitOracle* oracle)
      : oracle_(oracle), ctx_(oracle->estimator_->MakeEvalContext()) {}

  /// Keeps the prefix the context already holds: after an accepted move
  /// only the sources sorting after it are pushed again.
  void Reset(const std::vector<SourceHandle>& set) override {
    FRESHSEL_DCHECK(std::is_sorted(set.begin(), set.end()))
        << "Reset expects a canonically sorted set";
    ctx_.Reset(set);
  }

  /// Sorted, because Reset is the only way in and pushes in set order.
  const std::vector<SourceHandle>& set() const override {
    return ctx_.pushed();
  }

  double CurrentGain() override {
    oracle_->calls_.fetch_add(1, std::memory_order_relaxed);
    ctx_.EstimateAllTimes(qualities_);
    return oracle_->AggregateGain(qualities_);
  }

  double CurrentProfit() override {
    const double cost = oracle_->Cost(set());
    if (cost > oracle_->config_.budget + 1e-12) {
      return -std::numeric_limits<double>::infinity();
    }
    return CurrentGain() - oracle_->config_.cost_weight * cost;
  }

  double GainWith(SourceHandle handle) override {
    oracle_->calls_.fetch_add(1, std::memory_order_relaxed);
    ctx_.EstimateAllTimesWith(handle, qualities_);
    return oracle_->AggregateGain(qualities_);
  }

  double ProfitWith(SourceHandle handle) override {
    const double cost = CostWith(handle);
    if (cost > oracle_->config_.budget + 1e-12) {
      return -std::numeric_limits<double>::infinity();
    }
    return GainWith(handle) - oracle_->config_.cost_weight * cost;
  }

 private:
  /// Cost of set() + {handle}, summed in canonical sorted order with the
  /// candidate at its sorted position - bit-identical to
  /// Cost(WithAdded(set, handle)).
  double CostWith(SourceHandle handle) const {
    FRESHSEL_DCHECK(handle < oracle_->costs_.size())
        << "unknown source handle " << handle;
    double total = 0.0;
    bool inserted = false;
    for (SourceHandle h : set()) {
      if (!inserted && handle < h) {
        total += oracle_->costs_[handle];
        inserted = true;
      }
      total += oracle_->costs_[h];
    }
    if (!inserted) total += oracle_->costs_[handle];
    return total;
  }

  const ProfitOracle* oracle_;
  estimation::QualityEstimator::EvalContext ctx_;
  std::vector<estimation::EstimatedQuality> qualities_;
};

bool ProfitOracle::submodular() const {
  if (config_.aggregate != AggregateMode::kAverage) return false;
  // The capture-backlog term is only approximately submodular.
  if (estimator_->options().model_capture_backlog) return false;
  switch (config_.gain.family()) {
    case GainFamily::kData:
      return true;
    case GainFamily::kLinear:
      switch (config_.gain.metric()) {
        case QualityMetric::kCoverage:
        case QualityMetric::kGlobalFreshness:
        case QualityMetric::kCoverageFreshnessMix:
          return true;
        case QualityMetric::kAccuracy:
        case QualityMetric::kLocalFreshness:
          return false;
      }
      return false;
    case GainFamily::kQuadratic:
    case GainFamily::kStep:
      return false;
  }
  return false;
}

std::unique_ptr<MarginalEvalContext> ProfitOracle::MakeContext() const {
  return std::make_unique<IncrementalContext>(this);
}

}  // namespace freshsel::selection
