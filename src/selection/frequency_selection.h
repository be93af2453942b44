#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/result.h"
#include "estimation/quality_estimator.h"
#include "selection/cost.h"
#include "selection/matroid.h"

namespace freshsel::selection {

/// The augmented ground set S_aug of Section 5: every source S_i expands
/// into versions S_i^1 .. S_i^{max_divisor}, version j acquiring only every
/// j-th source update at cost c_i / (1 + j/10). "Select at most one version
/// per source" is the rank-1 partition matroid the varying-frequency
/// selection optimizes under.
struct AugmentedUniverse {
  /// Estimator handle of each augmented element (dense, 0..n-1).
  std::vector<estimation::QualityEstimator::SourceHandle> handles;
  /// Original source index of each element.
  std::vector<std::uint32_t> source_of;
  /// Frequency divisor of each element.
  std::vector<std::int64_t> divisor_of;
  /// Divisor-discounted cost of each element (unnormalized).
  std::vector<double> costs;
  /// One group per original source, capacity 1.
  PartitionMatroid matroid;
};

/// Registers every (source, divisor) version into `estimator` and builds
/// the augmented universe. `base_costs[i]` is the base cost of source i
/// (e.g. from CostModel::ItemShareCosts). Returns InvalidArgument on size
/// mismatches or max_divisor < 1.
Result<AugmentedUniverse> BuildAugmentedUniverse(
    estimation::QualityEstimator& estimator,
    const std::vector<const estimation::SourceProfile*>& profiles,
    const std::vector<double>& base_costs, std::int64_t max_divisor);

/// The ground set one selection runs over, by element (estimator handle
/// order): the augmented universe when max_divisor > 1, else every source
/// once at divisor 1 at its base cost and no matroid, so MaxSub stays the
/// paper's Algorithm 1.
struct SelectionUniverse {
  std::vector<std::uint32_t> source_of;
  std::vector<std::int64_t> divisor_of;
  std::vector<double> costs;
  std::optional<PartitionMatroid> matroid;
};

/// Registers `profiles` into the empty `estimator` and builds the ground
/// set: `BuildAugmentedUniverse` when max_divisor > 1, else each profile
/// once at divisor 1. Returns InvalidArgument on size mismatches.
Result<SelectionUniverse> BuildSelectionUniverse(
    estimation::QualityEstimator& estimator,
    const std::vector<const estimation::SourceProfile*>& profiles,
    const std::vector<double>& base_costs, std::int64_t max_divisor);

}  // namespace freshsel::selection
