#pragma once

#include <utility>
#include <vector>

#include "common/result.h"

namespace freshsel::stats {

/// A right-continuous non-decreasing step function on [0, +inf), used for
/// empirical CDFs: the Kaplan-Meier effectiveness distributions G_i, G_d,
/// G_u of Section 4.1.2 are StepFunctions.
///
/// Value is `initial` on [0, x_0), then jumps to y_k at each knot x_k.
/// Evaluate(x) for x < 0 returns 0 (nothing is captured before it happens).
class StepFunction {
 public:
  /// The identically-`value` function (clamped to [0, 1]).
  static StepFunction Constant(double value);

  /// Builds from knots (x_k, y_k). Returns InvalidArgument unless the x_k
  /// are strictly increasing and non-negative and the y_k are non-decreasing
  /// within [0, 1].
  static Result<StepFunction> FromKnots(
      std::vector<std::pair<double, double>> knots, double initial = 0.0);

  /// f(x): 0 for x < 0; `initial` on [0, x_0); y_k on [x_k, x_{k+1}).
  double Evaluate(double x) const;

  /// Limit value as x -> +inf (the plateau; < 1 when some events are never
  /// captured).
  double FinalValue() const;

  const std::vector<std::pair<double, double>>& knots() const {
    return knots_;
  }
  double initial() const { return initial_; }

 private:
  StepFunction(std::vector<std::pair<double, double>> knots, double initial)
      : knots_(std::move(knots)), initial_(initial) {}

  std::vector<std::pair<double, double>> knots_;
  double initial_ = 0.0;
};

}  // namespace freshsel::stats
