#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/time_types.h"
#include "estimation/degradation.h"
#include "estimation/source_profile.h"
#include "estimation/world_change_model.h"
#include "fault/retry.h"
#include "source/source_history.h"
#include "world/world.h"

namespace freshsel::serve {

/// Scenario ingestion, split out of the CLI so batch commands and the
/// selection daemon share one input path (DESIGN.md §15: determinism
/// starts at input - a query answered by the daemon must see exactly the
/// scenario bytes a batch run would load).

/// Raw contents of a scenario directory written by `freshsel simulate`:
/// world.csv + source_*.csv (sorted by filename) + optional manifest t0.
struct ScenarioDirData {
  world::World world;
  std::vector<source::SourceHistory> sources;
  TimePoint manifest_t0 = 0;  ///< 0 when no manifest was found.
};

/// Loads a scenario directory. All file reads go through `retry` and the
/// io.read failpoints, so injected I/O faults surface as Status errors.
Result<ScenarioDirData> ReadScenarioDir(const std::string& dir,
                                        const fault::RetryPolicy& retry);

/// A scenario resident in daemon memory: loaded and learned once, then
/// queried concurrently. Immutable after ingestion (shared via
/// `std::shared_ptr<const ResidentScenario>`), so readers need no lock.
struct ResidentScenario {
  std::string name;
  std::uint64_t epoch = 0;  ///< Registry load counter; bumped on re-load.
  world::World world;
  TimePoint t0 = 0;  ///< Manifest training cutoff (scenario default).
  estimation::WorldChangeModel world_model;
  std::vector<estimation::SourceProfile> profiles;
  estimation::DegradationReport degradation;
};

struct IngestOptions {
  fault::RetryPolicy retry;
  estimation::DegradationMode degradation_mode =
      estimation::DegradationMode::kDegrade;
  /// Overrides the manifest t0 when > 0.
  TimePoint t0 = 0;
};

/// Learns the world model + source profiles of already-loaded data at the
/// training cutoff (the manifest t0 unless `options.t0` overrides it).
/// Split from IngestScenario so the batch CLI can time load and learn as
/// separate report stages.
Result<ResidentScenario> LearnScenario(const std::string& name,
                                       ScenarioDirData data,
                                       const IngestOptions& options);

/// Reads `dir` and learns the world model + source profiles at the
/// training cutoff (the manifest t0 unless `options.t0` overrides it).
/// Fails cleanly - never partially - on unreadable files, an unresolvable
/// t0, or (in strict mode) unfittable sources.
Result<ResidentScenario> IngestScenario(const std::string& name,
                                        const std::string& dir,
                                        const IngestOptions& options);

}  // namespace freshsel::serve
