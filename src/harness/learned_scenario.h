#pragma once

#include <vector>

#include "common/result.h"
#include "estimation/degradation.h"
#include "estimation/source_profile.h"
#include "estimation/world_change_model.h"
#include "workloads/scenario.h"

namespace freshsel::harness {

/// A scenario plus everything the estimation layer learned from its
/// historical window: the per-subdomain world change models and one profile
/// per source. The referenced scenario must outlive this object.
struct LearnedScenario {
  const workloads::Scenario* scenario = nullptr;
  estimation::WorldChangeModel world_model;
  std::vector<estimation::SourceProfile> profiles;
  /// Substitutions performed when learned via LearnScenarioRobust in
  /// degrade mode; empty for the plain pipeline.
  estimation::DegradationReport degradation;

  const world::World& world() const { return scenario->world; }
  TimePoint t0() const { return scenario->t0; }
};

/// Runs the full preprocessing pipeline of Figure 3 on `scenario`: learns
/// the world change models and all source profiles at scenario.t0.
Result<LearnedScenario> LearnScenario(const workloads::Scenario& scenario);

/// Variant for rosters that share a scenario's world (BL+ micro-sources).
Result<LearnedScenario> LearnScenarioWithSources(
    const workloads::Scenario& scenario,
    const std::vector<source::SourceHistory>& sources);

/// Degradation-aware pipeline (DESIGN.md §11): profiles are learned via
/// estimation::LearnSourceProfilesRobust. kStrict aborts when any source
/// is unfittable; kDegrade substitutes subdomain-prior profiles and
/// records them in `degradation`.
Result<LearnedScenario> LearnScenarioRobust(const workloads::Scenario& scenario,
                                            estimation::DegradationMode mode);

}  // namespace freshsel::harness
