#pragma once

#include <cstdint>
#include <vector>

#include "estimation/source_profile.h"

namespace freshsel::selection {

/// The paper's additive cost model (Section 6.1): every item has a base
/// price, an item's actual cost is price / (#sources mentioning it), and a
/// source costs the sum of its items' costs. Acquiring a source at
/// frequency divisor m discounts its cost to c / (1 + m / 10).
class CostModel {
 public:
  static constexpr double kItemPrice = 10.0;

  /// Computes per-source base costs from the sources' full (unrestricted)
  /// t0 signatures: cost_s = sum over items of S of price / n_mentions.
  /// All profiles must share one signature width.
  static std::vector<double> ItemShareCosts(
      const std::vector<const estimation::SourceProfile*>& profiles,
      double item_price = kItemPrice);

  /// The frequency discount c' = c / (1 + m / 10).
  static double DiscountForDivisor(double base_cost, std::int64_t divisor);
};

}  // namespace freshsel::selection
