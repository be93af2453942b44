#pragma once

#include <vector>

#include "common/result.h"

namespace freshsel::stats {

/// Exponential(rate) distribution: the paper's model for entity lifespans and
/// inter-update gaps (Section 4.1.1).
class ExponentialDistribution {
 public:
  /// Returns InvalidArgument unless rate > 0.
  static Result<ExponentialDistribution> Create(double rate);

  double rate() const { return rate_; }
  double mean() const { return 1.0 / rate_; }

  /// f(x) = rate * exp(-rate x) for x >= 0, else 0.
  double Pdf(double x) const;
  /// F(x) = 1 - exp(-rate x) for x >= 0, else 0.
  double Cdf(double x) const;
  /// S(x) = 1 - F(x).
  double Survival(double x) const;

 private:
  explicit ExponentialDistribution(double rate) : rate_(rate) {}
  double rate_;
};

/// One duration observation for censored fitting: `duration` is either the
/// full lifespan (event observed) or a lower bound (right-censored at the end
/// of the historical window T).
struct CensoredObservation {
  double duration = 0.0;
  bool observed = true;  ///< false => right-censored.
};

/// MLE of the exponential rate under right censoring (the paper's
/// Equation 7):
///   rate^-1 = (total duration of all observations) / (#observed events).
/// Returns FailedPrecondition when no event was observed or total duration is
/// zero (the rate would be degenerate).
Result<double> FitExponentialCensoredMle(
    const std::vector<CensoredObservation>& observations);

/// Convenience overload for fully observed samples.
Result<double> FitExponentialMle(const std::vector<double>& durations);

/// Kolmogorov-Smirnov distance between the empirical CDF of the *observed*
/// durations and Exponential(rate); a cheap goodness-of-fit signal for the
/// Figure 5(b) experiment.
Result<double> ExponentialKsDistance(const std::vector<double>& durations,
                                     double rate);

}  // namespace freshsel::stats
