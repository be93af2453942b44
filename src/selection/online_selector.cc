#include "selection/online_selector.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>

#include "selection/set_util.h"

namespace freshsel::selection {

Result<OnlineSelector> OnlineSelector::Create(
    estimation::QualityEstimator* estimator, Config config) {
  if (estimator == nullptr) {
    return Status::InvalidArgument("estimator must not be null");
  }
  if (estimator->source_count() != 0) {
    return Status::FailedPrecondition(
        "the online selector must own the estimator's registrations from "
        "the start");
  }
  if (config.reoptimize_every < 0) {
    return Status::InvalidArgument("reoptimize_every must be >= 0");
  }
  return OnlineSelector(estimator, std::move(config));
}

Status OnlineSelector::RebuildOracle() {
  ProfitOracle::Config oracle_config;
  oracle_config.gain = config_.gain;
  oracle_config.budget = config_.budget;
  oracle_config.cost_weight = config_.cost_weight;
  FRESHSEL_ASSIGN_OR_RETURN(
      ProfitOracle oracle,
      ProfitOracle::Create(estimator_, raw_costs_, oracle_config));
  oracle_ = std::make_unique<ProfitOracle>(std::move(oracle));
  return Status::OK();
}

Result<SourceHandle> OnlineSelector::AddSource(
    const estimation::SourceProfile* profile, double cost,
    std::int64_t divisor) {
  FRESHSEL_ASSIGN_OR_RETURN(SourceHandle handle,
                            estimator_->AddSource(profile, divisor));
  raw_costs_.push_back(cost);
  // Cost normalization changed: the oracle must be rebuilt and the running
  // profit re-based before comparing candidate moves.
  FRESHSEL_RETURN_IF_ERROR(RebuildOracle());
  ++arrivals_;

  IncrementalUpdate(handle);
  if (config_.reoptimize_every > 0 &&
      arrivals_ % config_.reoptimize_every == 0) {
    Reoptimize();
  }
  return handle;
}

void OnlineSelector::IncrementalUpdate(SourceHandle newcomer) {
  const std::uint64_t calls_before = oracle_->call_count();
  const std::unique_ptr<MarginalEvalContext> ctx = oracle_->MakeContext();
  double current = internal::ScoreSet(*ctx, selection_);

  // Candidate 1: add the newcomer.
  std::vector<SourceHandle> best_set =
      internal::WithAdded(selection_, newcomer);
  double best = internal::ScoreSet(*ctx, best_set);

  // Candidates 2..k: swap the newcomer for one incumbent.
  for (SourceHandle incumbent : selection_) {
    std::vector<SourceHandle> swapped = internal::WithAdded(
        internal::WithRemoved(selection_, incumbent), newcomer);
    const double profit = internal::ScoreSet(*ctx, swapped);
    if (profit > best) {
      best = profit;
      best_set = std::move(swapped);
    }
  }

  if (best > current + 1e-12) {
    selection_ = std::move(best_set);
    profit_ = best;
  } else {
    profit_ = current;
  }
  total_calls_ += oracle_->call_count() - calls_before;
}

void OnlineSelector::Reoptimize() {
  if (oracle_ == nullptr) return;
  const std::uint64_t calls_before = oracle_->call_count();
  SelectionResult refreshed =
      MaxSubFrom(*oracle_, selection_, config_.epsilon);
  if (refreshed.profit >= profit_ ||
      !std::isfinite(profit_)) {
    selection_ = std::move(refreshed.selected);
    profit_ = refreshed.profit;
  }
  total_calls_ += oracle_->call_count() - calls_before;
}

}  // namespace freshsel::selection
