#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "workloads/blplus_generator.h"
#include "workloads/scenario.h"

namespace freshsel::workloads {

/// Which dimension to slice sources along.
enum class SliceDimension {
  kDim1,  ///< One micro-source per location the parent covers.
  kDim2,  ///< One micro-source per category / event type.
};

/// Decomposes every source of `base` into elemental micro-sources, one per
/// distinct dimension value in its scope - the "micro-source" view of
/// Definition 5 (Slice Time-Aware Source Selection). Empty slices are
/// dropped. The returned roster shares `base`'s world; micro-sources are
/// named "<parent>-<dim><value>" and every entry records its parent index.
struct SliceRoster {
  std::vector<source::SourceHistory> sources;
  std::vector<SourceClass> classes;            ///< All kMicro.
  std::vector<std::uint32_t> parent_of;        ///< Parent source index.
  std::vector<std::uint32_t> dimension_value;  ///< Sliced dim value.
};
Result<SliceRoster> BuildSliceRoster(const Scenario& base,
                                     SliceDimension dimension);

}  // namespace freshsel::workloads
