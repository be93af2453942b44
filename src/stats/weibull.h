#pragma once

#include <vector>

#include "common/result.h"
#include "stats/exponential.h"

namespace freshsel::stats {

/// Weibull(shape k, scale lambda) distribution. The paper *assumes*
/// exponential lifespans (Weibull with k = 1); this class exists to test
/// that assumption on data and to stress the estimator with worlds that
/// violate it (see bench_model_robustness).
class WeibullDistribution {
 public:
  /// Returns InvalidArgument unless shape > 0 and scale > 0.
  static Result<WeibullDistribution> Create(double shape, double scale);

  double shape() const { return shape_; }
  double scale() const { return scale_; }
  /// scale * Gamma(1 + 1/shape).
  double Mean() const;

  double Pdf(double x) const;
  double Cdf(double x) const;
  double Survival(double x) const;

 private:
  WeibullDistribution(double shape, double scale)
      : shape_(shape), scale_(scale) {}
  double shape_;
  double scale_;
};

/// Maximum-likelihood Weibull fit under right censoring, solved by
/// bisection on the shape's profile-likelihood score. Returns
/// FailedPrecondition when no event was observed or all durations are
/// zero, InvalidArgument on negative durations.
Result<WeibullDistribution> FitWeibullCensoredMle(
    const std::vector<CensoredObservation>& observations);

/// Censored log-likelihood of `observations` under Weibull(shape, scale);
/// pass shape = 1 to score the exponential fit on the same footing.
/// Durations of zero are clamped to a small epsilon.
double WeibullCensoredLogLikelihood(
    const std::vector<CensoredObservation>& observations, double shape,
    double scale);

}  // namespace freshsel::stats
