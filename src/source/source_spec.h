#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "source/schedule.h"
#include "world/domain.h"

namespace freshsel::source {

/// How effectively a source captures one type of world change: with
/// probability `miss_prob` the change is never captured; otherwise it is
/// noticed after an Exponential(1/delay_mean_days) delay and published at the
/// source's next update day.
///
/// This parametric ground truth generates the delay observations from which
/// the estimation layer learns the *nonparametric* Kaplan-Meier
/// effectiveness distributions G_i, G_d, G_u — the library never hands the
/// true parameters to the estimator.
struct CaptureSpec {
  double miss_prob = 0.0;        ///< In [0, 1].
  double delay_mean_days = 1.0;  ///< Mean of the exponential delay; >= 0.
};

/// Full ground-truth specification of one dynamic data source.
struct SourceSpec {
  std::string name;
  /// Subdomains this source observes (its slice of Omega, cf. Figure 2).
  std::vector<world::SubdomainId> scope;
  UpdateSchedule schedule;
  CaptureSpec insert_capture;
  CaptureSpec update_capture;
  CaptureSpec delete_capture;
  /// Probability that an entity alive at day 0 in scope is already in the
  /// source (up to date) at day 0.
  double initial_awareness = 1.0;
  /// Correlated-coverage knob: every entity has a fixed "obscurity" in
  /// [0, 1) (a deterministic hash of its id, identical for all sources),
  /// and this source can only ever capture entities with obscurity below
  /// `visibility`. Obscure entities are thus hard for *every* mainstream
  /// source - the correlated coverage gaps real corpora exhibit (the
  /// paper's union coverage climbs slowly from 0.80 to 0.97 across 43
  /// sources precisely because source misses are not independent).
  double visibility = 1.0;
};

}  // namespace freshsel::source
