#include "stats/kaplan_meier.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/check.h"

namespace freshsel::stats {

std::vector<KaplanMeierEstimator::KnotWithError>
KaplanMeierEstimator::ProductLimit() const {
  std::vector<KnotWithError> knots;
  double survival = 1.0;
  double greenwood = 0.0;  // Running sum d_i / (n_i (n_i - d_i)).
  std::size_t at_risk = sample_size();
  const std::int64_t last_day =
      std::max(events_.max_value(), censorings_.max_value());
  // Ascending days; at each day the events leave before the censorings (a
  // subject censored on an event day is still at risk at that event).
  for (std::int64_t day = 0; day <= last_day; ++day) {
    const std::size_t events = events_.CountOf(day);
    if (events > 0) {
      const double n = static_cast<double>(at_risk);
      const double d = static_cast<double>(events);
      survival *= 1.0 - d / n;
      if (n > d) greenwood += d / (n * (n - d));
      // The KM estimate must stay a monotone step function in [0, 1]
      // (Section 4.1.2): each factor is in [0, 1), so survival only falls.
      FRESHSEL_DCHECK_PROB(survival);
      const double variance =
          survival * survival * greenwood;  // Greenwood's formula.
      knots.push_back(
          {static_cast<double>(day), 1.0 - survival, std::sqrt(variance)});
    }
    at_risk -= events + censorings_.CountOf(day);
  }
  return knots;
}

Result<std::vector<KaplanMeierEstimator::KnotWithError>>
KaplanMeierEstimator::FitWithStdError() const {
  if (sample_size() == 0) {
    return Status::FailedPrecondition("Kaplan-Meier fit needs observations");
  }
  if (observed_events() == 0) {
    // Fully right-censored sample: there is no event-time knot to attach a
    // Greenwood error to, so report that instead of an empty band.
    return Status::FailedPrecondition(
        "Kaplan-Meier standard errors need at least one observed event");
  }
  return ProductLimit();
}

Result<StepFunction> KaplanMeierEstimator::Fit() const {
  if (sample_size() == 0) {
    return Status::FailedPrecondition("Kaplan-Meier fit needs observations");
  }
  if (observed_events() == 0) {
    return StepFunction::Constant(0.0);
  }
  std::vector<std::pair<double, double>> knots;
  for (const KnotWithError& knot : ProductLimit()) {
    knots.emplace_back(knot.time, knot.cdf);
  }
  return StepFunction::FromKnots(std::move(knots), /*initial=*/0.0);
}

}  // namespace freshsel::stats
