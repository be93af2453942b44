#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/time_types.h"
#include "estimation/source_profile.h"
#include "source/source_history.h"
#include "stats/step_function.h"
#include "world/world.h"

namespace freshsel::estimation {

/// Graceful degradation for the profile-learning stage (DESIGN.md §11).
///
/// A source whose capture stream contains no observed (uncensored) event by
/// t0 fits to all-zero effectiveness distributions: the selector would
/// treat it as worthless even when the real cause is a short observation
/// window or a feed that was down during training. Instead of silently
/// carrying the zero profile, the robust learner either
///
///  * aborts with FailedPrecondition naming every unfittable source
///    (kStrict), or
///  * substitutes a *subdomain-prior profile* — the average effectiveness
///    of successfully fitted peer sources overlapping the source's declared
///    scope — and reports the substitution (kDegrade).

enum class DegradationMode {
  kStrict,   ///< Unfittable sources abort the pipeline.
  kDegrade,  ///< Unfittable sources fall back to subdomain priors.
};

const char* DegradationModeName(DegradationMode mode);

/// One substituted source, with a human-readable reason for the run report.
struct DegradedSource {
  std::size_t index = 0;  ///< Position in the input roster.
  std::string name;
  std::string reason;
};

/// Per-run record of every substitution the robust learner performed.
struct DegradationReport {
  std::size_t total_sources = 0;
  std::vector<DegradedSource> degraded;

  bool any() const { return !degraded.empty(); }
};

/// Pointwise average of step functions over the union of their knots.
/// The average of right-continuous non-decreasing [0,1] functions is again
/// one, so this never fails. Returns the constant zero for an empty input.
stats::StepFunction AverageStepFunctions(
    const std::vector<const stats::StepFunction*>& fns);

/// Builds the fallback profile for an unfittable source: keeps the raw
/// profile's name and t0 signatures, adopts the declared scope, and
/// averages the effectiveness distributions and update intervals of
/// `peers` (successfully fitted profiles). With no peers the raw profile's
/// zero distributions are retained; the anchor is always reset to t0 (the
/// source has no observed update day to anchor on).
SourceProfile MakePriorProfile(const SourceProfile& raw,
                               const std::vector<world::SubdomainId>& scope,
                               const std::vector<const SourceProfile*>& peers,
                               TimePoint t0);

struct RobustProfiles {
  std::vector<SourceProfile> profiles;
  DegradationReport report;
};

/// Learns profiles for a whole roster with degradation handling. In
/// kStrict mode any unfittable source yields FailedPrecondition listing
/// every offender; in kDegrade mode each is replaced by MakePriorProfile
/// built from the fitted peers sharing a declared subdomain (all fitted
/// peers when none overlap), bumping the obs counter
/// `estimation.degraded.sources` once per substitution.
Result<RobustProfiles> LearnSourceProfilesRobust(
    const world::World& world,
    const std::vector<source::SourceHistory>& histories, TimePoint t0,
    DegradationMode mode);

}  // namespace freshsel::estimation
