#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/result.h"
#include "estimation/quality_estimator.h"
#include "selection/algorithms.h"
#include "selection/profit.h"

namespace freshsel::selection {

/// Online source selection: the paper's future-work scenario where new
/// sources appear over time ("examine scenarios where new sources appear
/// over time", Section 8).
///
/// The selector maintains a running selection. When a new source is
/// registered it performs a cheap incremental update (try adding the
/// newcomer; try swapping it for each incumbent), and every
/// `reoptimize_every` arrivals it refreshes the whole selection with a
/// warm-started MaxSub local search. Incremental updates cost O(|S|)
/// oracle calls per arrival instead of the O(n^3 log n) of a from-scratch
/// run, while the periodic refresh bounds the drift from the offline
/// optimum.
///
/// The selector owns its profit oracle (rebuilt on arrival because cost
/// normalization depends on the universe) but not the estimator, which the
/// caller keeps and may share.
class OnlineSelector {
 public:
  struct Config {
    GainModel gain{GainFamily::kLinear, QualityMetric::kCoverage};
    double budget = std::numeric_limits<double>::infinity();
    double cost_weight = 1.0;
    double epsilon = 0.5;
    /// Full warm-started refresh every k arrivals; 0 disables refreshes.
    int reoptimize_every = 8;
  };

  /// `estimator` must outlive the selector and must not be mutated except
  /// through this selector.
  static Result<OnlineSelector> Create(
      estimation::QualityEstimator* estimator, Config config);

  OnlineSelector(OnlineSelector&&) noexcept = default;
  OnlineSelector& operator=(OnlineSelector&&) noexcept = default;

  /// Registers a newly appeared source (raw, unnormalized cost) and
  /// updates the running selection. Returns the source's handle.
  Result<SourceHandle> AddSource(const estimation::SourceProfile* profile,
                                 double cost, std::int64_t divisor = 1);

  const std::vector<SourceHandle>& selection() const { return selection_; }
  double profit() const { return profit_; }
  std::size_t universe_size() const { return raw_costs_.size(); }
  /// Total oracle calls spent across all updates (for the cost comparison
  /// against from-scratch reruns).
  std::uint64_t total_oracle_calls() const { return total_calls_; }
  /// Arrivals since construction.
  int arrivals() const { return arrivals_; }

  /// Forces a full warm-started refresh now.
  void Reoptimize();

 private:
  OnlineSelector(estimation::QualityEstimator* estimator, Config config)
      : estimator_(estimator), config_(std::move(config)) {}

  Status RebuildOracle();
  void IncrementalUpdate(SourceHandle newcomer);

  estimation::QualityEstimator* estimator_ = nullptr;
  Config config_;
  std::vector<double> raw_costs_;
  std::unique_ptr<ProfitOracle> oracle_;
  std::vector<SourceHandle> selection_;
  double profit_ = 0.0;
  int arrivals_ = 0;
  std::uint64_t total_calls_ = 0;
};

}  // namespace freshsel::selection
