#pragma once

#include <cstdint>
#include <vector>

#include "common/time_types.h"
#include "source/source_history.h"
#include "world/world.h"

namespace freshsel::workloads {

/// Coarse source shape, mirroring the scatter of Figure 8: large sources
/// spanning most of the domain, specialists covering one dimension slice,
/// and medium generalists in between. Used by the Table 7 / Figure 12
/// experiments to split selected sources into "uniform" vs "specialized".
enum class SourceClass {
  kUniform,             ///< Near-complete scope.
  kLocationSpecialist,  ///< Few dim-1 values, all dim-2 values.
  kCategorySpecialist,  ///< Few dim-2 values, all dim-1 values.
  kMedium,              ///< Random mid-sized scope.
  kMicro,               ///< BL+ micro-source (slice of a parent source).
};

const char* SourceClassName(SourceClass source_class);

/// A complete experiment scenario: the simulated world, the roster of
/// simulated sources (with their class labels), and the train/eval cutoff
/// t0 — everything the estimation and selection layers consume.
struct Scenario {
  world::World world;
  std::vector<source::SourceHistory> sources;
  std::vector<SourceClass> classes;
  TimePoint t0 = 0;

  std::size_t source_count() const { return sources.size(); }
  const world::DataDomain& domain() const { return world.domain(); }

  /// Indices of the `k` sources with the largest content at t0 (descending).
  std::vector<std::size_t> LargestSources(std::size_t k) const;
};

}  // namespace freshsel::workloads
