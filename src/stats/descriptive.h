#pragma once

#include <cstddef>
#include <vector>

namespace freshsel::stats {

/// Arithmetic mean; 0 for an empty input.
double Mean(const std::vector<double>& values);

/// Unbiased sample variance (n-1 denominator); 0 when n < 2.
double Variance(const std::vector<double>& values);

/// Population standard deviation of `values` around their mean.
double StdDev(const std::vector<double>& values);

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty input.
double Quantile(std::vector<double> values, double q);

/// |predicted - actual| / max(|actual|, epsilon): the paper's relative
/// prediction error (Figures 9-11).
double RelativeError(double predicted, double actual,
                     double epsilon = 1e-12);

/// Streaming accumulator for mean/min/max/variance without storing samples.
class RunningStats {
 public:
  void Add(double value);

  /// Pools another accumulator into this one (parallel-merge of Welford
  /// state).
  void Merge(const RunningStats& other);

  std::size_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  /// Unbiased sample variance; 0 when count < 2.
  double variance() const;
  double sum() const { return count_ > 0 ? mean_ * count_ : 0.0; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace freshsel::stats
