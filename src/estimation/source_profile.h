#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/time_types.h"
#include "integration/signatures.h"
#include "source/source_history.h"
#include "stats/step_function.h"
#include "world/world.h"

namespace freshsel::estimation {

/// Everything the estimation layer knows about one source, learned purely
/// from data up to the end t0 of the historical window (Section 4.1.2):
///
///  * `sig_t0` — the B_up / B_cov / B_S signatures at t0 (Section 4.2.1);
///  * `g_insert` / `g_update` / `g_delete` — Kaplan-Meier effectiveness
///    distributions over capture delays, built from exact and right-censored
///    delay observations (Figure 7);
///  * `update_interval` / `anchor` — the learned mean update interval u_S
///    (frequency f_S = 1/u_S) and the last observed update day t_S0, which
///    together define the schedule-alignment operator T_S(t) of Equation 8;
///  * `observed_scope` — the subdomains in which the source was ever seen
///    to carry an entity.
///
/// Captures that happen after t0 are invisible to the learner (they enter
/// the delay samples as right-censored observations).
struct SourceProfile {
  std::string name;
  integration::SourceSignatures sig_t0;
  std::vector<world::SubdomainId> observed_scope;
  double update_interval = 1.0;
  TimePoint anchor = 0;
  stats::StepFunction g_insert = stats::StepFunction::Constant(0.0);
  stats::StepFunction g_update = stats::StepFunction::Constant(0.0);
  stats::StepFunction g_delete = stats::StepFunction::Constant(0.0);

  /// The paper's T_S(t) for this profile at acquisition divisor `divisor`
  /// (frequency f_S / divisor): the latest acquisition instant at or before
  /// t, anchored at the last observed update day.
  double LatestAcquisitionAt(double t, std::int64_t divisor = 1) const;

  /// Equation 8: the probability that a change occurring at `event_time`
  /// has been captured and published by time `t`, given distribution `g`
  /// and the acquisition schedule. Zero when no acquisition happened
  /// between the event and t.
  double Effectiveness(const stats::StepFunction& g, double t,
                       double event_time, std::int64_t divisor = 1) const;
};

/// Sample bookkeeping for the three Kaplan-Meier fits behind a profile.
/// The degradation layer (degradation.h) uses it to decide whether a
/// learned profile carries real capture signal: a component with zero
/// samples or zero observed (uncensored) events fits to the constant-zero
/// distribution, and a source where *every* component is in that state is
/// indistinguishable from a source that captures nothing.
struct SourceProfileFitStats {
  std::size_t insert_samples = 0;
  std::size_t insert_events = 0;
  std::size_t update_samples = 0;
  std::size_t update_events = 0;
  std::size_t delete_samples = 0;
  std::size_t delete_events = 0;

  std::size_t total_samples() const {
    return insert_samples + update_samples + delete_samples;
  }
  std::size_t total_events() const {
    return insert_events + update_events + delete_events;
  }
  /// True when at least one component observed an actual capture, i.e. the
  /// KM fits contain signal rather than all-zero fallbacks.
  bool fittable() const { return total_events() > 0; }
};

/// Learns a source profile from the world evolution and the source's
/// observed stream, using only information available at t0.
/// Returns InvalidArgument unless 0 < t0 <= world.horizon().
Result<SourceProfile> LearnSourceProfile(
    const world::World& world, const source::SourceHistory& history,
    TimePoint t0);

/// As above, additionally reporting the KM sample counts behind the fit.
/// `stats` may be null.
Result<SourceProfile> LearnSourceProfile(
    const world::World& world, const source::SourceHistory& history,
    TimePoint t0, SourceProfileFitStats* stats);

/// Learns profiles for a whole roster.
Result<std::vector<SourceProfile>> LearnSourceProfiles(
    const world::World& world,
    const std::vector<source::SourceHistory>& histories, TimePoint t0);

}  // namespace freshsel::estimation
