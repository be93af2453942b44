#pragma once

#include "integration/history_integration.h"
#include "world/world.h"

namespace freshsel::integration {

/// How faithfully a history-integrated world reproduces the gold standard
/// (the validation the paper performs against its BL gold subset).
struct ReconstructionQuality {
  /// Fraction of gold entities mentioned by the reconstruction.
  double entity_recall = 0.0;
  /// Fraction of gold appearance events whose reconstructed time is within
  /// `appearance_tolerance` days.
  double appearance_accuracy = 0.0;
  /// Mean |reconstructed birth - true birth| over matched entities (days).
  double mean_appearance_delay = 0.0;
  /// Among gold entities that died, the fraction the reconstruction also
  /// marks dead.
  double disappearance_recall = 0.0;
  /// Among reconstructed deaths of truly dead entities, mean
  /// |reconstructed death - true death| (days).
  double mean_disappearance_delay = 0.0;
  /// Fraction of gold value updates matched by a reconstructed update
  /// within `update_tolerance` days.
  double update_recall = 0.0;
  /// Mean relative population error over sampled days.
  double mean_population_error = 0.0;
};

struct ReconstructionQualityOptions {
  double appearance_tolerance = 7.0;
  double update_tolerance = 7.0;
  /// Sample the population curve every `population_stride` days.
  TimePoint population_stride = 30;
};

/// Scores `result` against the gold-standard `truth` (both over the same
/// original entity-id space).
ReconstructionQuality EvaluateReconstruction(
    const world::World& truth, const ReconstructionResult& result,
    const ReconstructionQualityOptions& options =
        ReconstructionQualityOptions());

}  // namespace freshsel::integration
