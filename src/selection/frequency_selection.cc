#include "selection/frequency_selection.h"

#include <cstdint>
#include <utility>

namespace freshsel::selection {

Result<AugmentedUniverse> BuildAugmentedUniverse(
    estimation::QualityEstimator& estimator,
    const std::vector<const estimation::SourceProfile*>& profiles,
    const std::vector<double>& base_costs, std::int64_t max_divisor) {
  if (profiles.size() != base_costs.size()) {
    return Status::InvalidArgument("need one base cost per profile");
  }
  if (max_divisor < 1) {
    return Status::InvalidArgument("max_divisor must be >= 1");
  }
  std::vector<estimation::QualityEstimator::SourceHandle> handles;
  std::vector<std::uint32_t> source_of;
  std::vector<std::int64_t> divisor_of;
  std::vector<double> costs;
  std::vector<std::uint32_t> group_of;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    for (std::int64_t divisor = 1; divisor <= max_divisor; ++divisor) {
      FRESHSEL_ASSIGN_OR_RETURN(
          estimation::QualityEstimator::SourceHandle handle,
          estimator.AddSource(profiles[i], divisor));
      handles.push_back(handle);
      source_of.push_back(static_cast<std::uint32_t>(i));
      divisor_of.push_back(divisor);
      costs.push_back(CostModel::DiscountForDivisor(base_costs[i], divisor));
      group_of.push_back(static_cast<std::uint32_t>(i));
    }
  }
  FRESHSEL_ASSIGN_OR_RETURN(
      PartitionMatroid matroid,
      PartitionMatroid::Create(
          std::move(group_of),
          std::vector<std::uint32_t>(profiles.size(), 1)));
  return AugmentedUniverse{std::move(handles), std::move(source_of),
                           std::move(divisor_of), std::move(costs),
                           std::move(matroid)};
}

Result<SelectionUniverse> BuildSelectionUniverse(
    estimation::QualityEstimator& estimator,
    const std::vector<const estimation::SourceProfile*>& profiles,
    const std::vector<double>& base_costs, std::int64_t max_divisor) {
  if (profiles.size() != base_costs.size()) {
    return Status::InvalidArgument("need one base cost per profile");
  }
  SelectionUniverse out;
  if (max_divisor > 1) {
    FRESHSEL_ASSIGN_OR_RETURN(
        AugmentedUniverse universe,
        BuildAugmentedUniverse(estimator, profiles, base_costs, max_divisor));
    out.source_of = std::move(universe.source_of);
    out.divisor_of = std::move(universe.divisor_of);
    out.costs = std::move(universe.costs);
    out.matroid = std::move(universe.matroid);
    return out;
  }
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    FRESHSEL_ASSIGN_OR_RETURN(estimation::QualityEstimator::SourceHandle handle,
                              estimator.AddSource(profiles[i], 1));
    (void)handle;
    out.source_of.push_back(static_cast<std::uint32_t>(i));
    out.divisor_of.push_back(1);
    out.costs.push_back(base_costs[i]);
  }
  return out;
}

}  // namespace freshsel::selection
