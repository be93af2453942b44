#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "workloads/scenario.h"

namespace freshsel::workloads {

/// A BL+ source roster: the base scenario's sources plus the generated
/// micro-sources, with class labels. Shares the base scenario's world.
struct MicroRoster {
  std::vector<source::SourceHistory> sources;
  std::vector<SourceClass> classes;
};

/// Builds a BL+ scalability roster (Section 6.1): starting from a BL-like
/// scenario, decomposes every source into `micro_per_source` overlapping
/// micro-sources, each covering a uniformly random subset of the parent
/// source's locations of size U(0.2 |L|, 0.5 |L|). The original sources are
/// kept, so the roster grows from 43 to 43 * (1 + micro_per_source)
/// (43 -> 8643 at 200 micro-sources, as in the paper).
///
/// The paper's micro counts are {0, 1, 2, 5, 10, 20, 50, 100, 200}.
Result<MicroRoster> GenerateBlPlusRoster(const Scenario& base,
                                         std::uint32_t micro_per_source,
                                         std::uint64_t seed);

}  // namespace freshsel::workloads
