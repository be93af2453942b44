#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "stats/histogram.h"

namespace freshsel::stats {

/// Poisson(lambda) distribution: the paper's model for the number of entity
/// appearances / disappearances / value changes per time unit (Section 4.1.1,
/// Equation 6).
class PoissonDistribution {
 public:
  /// Returns InvalidArgument when lambda < 0.
  static Result<PoissonDistribution> Create(double lambda);

  double lambda() const { return lambda_; }
  double mean() const { return lambda_; }
  double variance() const { return lambda_; }

  /// P[N = k]; 0 for negative k. Computed in log space for stability.
  double Pmf(std::int64_t k) const;

  /// P[N <= k]; 0 for negative k.
  double Cdf(std::int64_t k) const;

 private:
  explicit PoissonDistribution(double lambda) : lambda_(lambda) {}
  double lambda_;
};

/// Maximum-likelihood estimate of the Poisson intensity: the sample mean of
/// per-interval counts (the paper's "average rate of data appearances").
/// Returns InvalidArgument for an empty sample.
Result<double> FitPoissonMle(const std::vector<std::int64_t>& counts);

/// Result of a chi-square goodness-of-fit test of observed counts against a
/// Poisson model.
struct ChiSquareResult {
  double statistic = 0.0;       ///< Sum of (obs-exp)^2/exp over merged cells.
  std::int64_t dof = 0;         ///< Cells - 1 - #fitted params.
  double reduced = 0.0;         ///< statistic / dof (1 ~= good fit).
  std::size_t cells = 0;        ///< Number of (merged) cells used.
};

/// Chi-square GoF of `observed` per-outcome frequencies against
/// Poisson(`lambda`); adjacent outcomes are merged until each expected cell
/// count is at least `min_expected`. `fitted_params` is subtracted from the
/// degrees of freedom (1 when lambda was estimated from the same data).
/// Returns FailedPrecondition when fewer than 3 cells survive merging.
Result<ChiSquareResult> PoissonChiSquare(const CountHistogram& observed,
                                         double lambda,
                                         double min_expected = 5.0,
                                         int fitted_params = 1);

}  // namespace freshsel::stats
