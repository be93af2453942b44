#pragma once

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "common/time_types.h"
#include "stats/histogram.h"
#include "stats/step_function.h"

namespace freshsel::stats {

/// Kaplan-Meier product-limit estimator over exact and right-censored
/// whole-day delays (Kaplan & Meier 1958), used by the paper to learn the
/// source-effectiveness distributions G_i, G_d, G_u from the exact and
/// right-censored delay histograms of Section 4.1.2 / Figure 7.
///
/// The estimated CDF F(t) = 1 - S(t) where
///   S(t) = prod_{t_i <= t} (1 - d_i / n_i),
/// d_i = #events at distinct event time t_i and n_i = #subjects still at
/// risk just before t_i. Censoring ties at an event time are conventionally
/// treated as still at risk at that time (censored after the event).
///
/// Observations are kept as two day histograms (events and censorings), so
/// a fit is one ascending walk over days 0..D, D the longest delay:
/// O(n + D) for n observations, with no copy and no sort.
class KaplanMeierEstimator {
 public:
  /// Adds one delay of `days` whole days (negative values clamp to 0);
  /// `observed` == false marks a right-censored observation (the event had
  /// not happened by the end of the window).
  void Add(TimePoint days, bool observed) {
    (observed ? events_ : censorings_).Add(days);
  }

  std::size_t sample_size() const {
    return events_.total() + censorings_.total();
  }
  std::size_t observed_events() const { return events_.total(); }

  /// Fits the product-limit CDF. Returns FailedPrecondition when there is no
  /// observation at all; with zero *observed* events it returns the constant
  /// zero function (nothing is ever captured, matching the paper's G = 0
  /// fallback for sources that never pick up a change type).
  Result<StepFunction> Fit() const;

  /// One knot of the product-limit estimate with its Greenwood standard
  /// error: Var[S(t)] = S(t)^2 * sum_{t_i <= t} d_i / (n_i (n_i - d_i)).
  struct KnotWithError {
    double time = 0.0;
    double cdf = 0.0;
    double std_error = 0.0;
  };

  /// Fit() plus Greenwood standard errors per event-time knot - the
  /// uncertainty band around a learned effectiveness distribution. Returns
  /// FailedPrecondition when there is no observation or when every
  /// observation is right-censored (no event-time knot exists).
  Result<std::vector<KnotWithError>> FitWithStdError() const;

 private:
  /// The product-limit walk shared by both fits: one knot per day with at
  /// least one event.
  std::vector<KnotWithError> ProductLimit() const;

  CountHistogram events_;      // Exact delays, by day.
  CountHistogram censorings_;  // Right-censored delays, by day.
};

}  // namespace freshsel::stats
