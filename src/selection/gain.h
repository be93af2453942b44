#pragma once

#include "estimation/quality_estimator.h"

namespace freshsel::selection {

/// Which estimated quality metric drives the gain (Section 6.1).
enum class QualityMetric {
  kCoverage,
  kAccuracy,
  kGlobalFreshness,
  kLocalFreshness,
  /// alpha * coverage + (1 - alpha) * global freshness: a non-negative
  /// linear combination of the two submodular estimates, so the Section 5
  /// guarantees still apply - unlike accuracy or local freshness (see
  /// ProfitOracle::submodular).
  kCoverageFreshnessMix,
};

/// The gain families of Section 6.1. Linear/Quadratic/Step are
/// quality-driven; Data pays per covered item.
enum class GainFamily {
  kLinear,     ///< G(Q) = 100 Q.
  kQuadratic,  ///< G(Q) = 100 Q^2.
  kStep,       ///< Piecewise linear with milestone bonuses (paper table).
  kData,       ///< G = item_value * Cov* * E[|Omega|_t].
};

/// A gain model: maps the estimated quality of an integration result at one
/// time point to a dollar gain, plus the normalization used to rescale gains
/// into [0, 1] as the paper does.
class GainModel {
 public:
  /// `mix_alpha` is only read for QualityMetric::kCoverageFreshnessMix
  /// (clamped to [0, 1]).
  GainModel(GainFamily family, QualityMetric metric,
            double mix_alpha = 0.5)
      : family_(family), metric_(metric), mix_alpha_(mix_alpha) {}

  GainFamily family() const { return family_; }
  QualityMetric metric() const { return metric_; }
  double mix_alpha() const { return mix_alpha_; }

  /// The quality value the model reads from an estimate.
  double MetricValue(const estimation::EstimatedQuality& q) const;

  /// Raw (unnormalized) gain at one time point.
  double Evaluate(const estimation::EstimatedQuality& q) const;

  /// Upper bound of the raw gain given the largest expected world size
  /// across eval times; used to rescale gains to [0, 1].
  double MaxGain(double max_expected_world) const;

  /// Quality-driven gain curve G(Q) for Q in [0, 1].
  static double Curve(GainFamily family, double quality);

  /// Dollar value per covered item for kData (the paper's $10).
  static constexpr double kItemValue = 10.0;
  /// Scale of the quality-driven curves (the paper's 100).
  static constexpr double kQualityScale = 100.0;

 private:
  GainFamily family_;
  QualityMetric metric_;
  double mix_alpha_;
};

}  // namespace freshsel::selection
