#pragma once

#include <string>
#include <vector>

#include "harness/learned_scenario.h"

namespace freshsel::harness {

/// One row of the per-source characterization report: everything the paper
/// measures about a source in Sections 1 and 4, computed from the learned
/// profile and the scenario's ground truth at t0.
struct SourceCharacterization {
  std::string name;
  workloads::SourceClass source_class = workloads::SourceClass::kMedium;
  std::size_t items_at_t0 = 0;      ///< |B_S| at t0.
  double coverage = 0.0;            ///< Over the whole domain, at t0.
  double local_freshness = 0.0;
  double accuracy = 0.0;
  double update_interval = 0.0;     ///< Learned u_S (days).
  double update_frequency = 0.0;    ///< 1 / u_S.
  double insert_g_week = 0.0;       ///< G_i(7 days).
  double insert_g_plateau = 0.0;    ///< G_i(inf): long-run capture prob.
  double delete_g_plateau = 0.0;    ///< G_d(inf).
  std::size_t scope_subdomains = 0;
};

/// Characterizes every learned source of `learned` at t0. `classes` must
/// parallel `learned.profiles` (pass scenario.classes, or all-kMedium for
/// external data).
std::vector<SourceCharacterization> CharacterizeSources(
    const LearnedScenario& learned,
    const std::vector<workloads::SourceClass>& classes);

}  // namespace freshsel::harness
