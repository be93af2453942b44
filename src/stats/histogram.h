#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"

namespace freshsel::stats {

/// Fixed-width-bin histogram over [lo, hi); values outside the range are
/// clamped into the first/last bin. Used for the paper's delay histograms
/// (Figure 7) and the appearance-count fits (Figures 5, 6).
class Histogram {
 public:
  /// Returns InvalidArgument unless lo < hi and bin_count > 0.
  static Result<Histogram> Create(double lo, double hi,
                                  std::size_t bin_count);

  void Add(double value, double weight = 1.0);

  std::size_t bin_count() const { return counts_.size(); }
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  double bin_width() const { return width_; }
  double total_weight() const { return total_; }

  /// Raw weight in bin `index`.
  double BinWeight(std::size_t index) const { return counts_[index]; }
  /// Inclusive lower edge of bin `index`.
  double BinLowerEdge(std::size_t index) const {
    return lo_ + static_cast<double>(index) * width_;
  }
  /// Midpoint of bin `index`.
  double BinCenter(std::size_t index) const {
    return BinLowerEdge(index) + width_ / 2.0;
  }

  /// Probability mass per bin (weights normalized to sum 1); all zeros when
  /// the histogram is empty.
  std::vector<double> NormalizedMass() const;

  /// Probability density per bin (mass / bin width).
  std::vector<double> Density() const;

 private:
  Histogram(double lo, double hi, std::size_t bin_count);

  double lo_;
  double hi_;
  double width_;
  double total_ = 0.0;
  std::vector<double> counts_;
};

/// Histogram over non-negative integer outcomes (counts per day); convenient
/// for Poisson goodness-of-fit.
class CountHistogram {
 public:
  void Add(std::int64_t value);

  /// Largest value observed (0 when empty).
  std::int64_t max_value() const;
  std::size_t total() const { return total_; }

  /// Observed frequency of outcome `value` (0 when unobserved).
  std::size_t CountOf(std::int64_t value) const;

  /// Empirical probability of each outcome in [0, max_value()].
  std::vector<double> EmpiricalPmf() const;

 private:
  std::vector<std::size_t> counts_;  // counts_[v] = #observations equal to v.
  std::size_t total_ = 0;
};

}  // namespace freshsel::stats
