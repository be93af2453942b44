// Must-fail fixture for the compile-time name checks, try_compiled by the
// root CMakeLists.txt. It uses each of the six macros that name a metric
// or a failpoint. FRESHSEL_BAD_NAME_SITE selects one site (1-6) to get a
// malformed name instead of its well-formed one. Site 0 (the control) must
// build and every other site must be rejected, or the configure aborts.

#include "common/status.h"
#include "fault/failpoint.h"
#include "obs/macros.h"

#ifndef FRESHSEL_BAD_NAME_SITE
#define FRESHSEL_BAD_NAME_SITE 0
#endif

// `good` unless site `n` is the one selected for the malformed `bad`.
#define FIXTURE_NAME(n, good, bad) (FRESHSEL_BAD_NAME_SITE == (n) ? bad : good)

freshsel::Status NamedSites() {
  FRESHSEL_OBS_COUNT(FIXTURE_NAME(1, "fixture.sites.counted", "fixture.sites"),
                     1);
  FRESHSEL_OBS_GAUGE_SET(
      FIXTURE_NAME(2, "fixture.sites.gauged", "Fixture.sites.gauged"), 1.0);
  FRESHSEL_OBS_HISTOGRAM_RECORD(
      FIXTURE_NAME(3, "fixture.sites.recorded", "fixture..sites.recorded"),
      1.0);
  FRESHSEL_OBS_SCOPED_LATENCY(
      FIXTURE_NAME(4, "fixture.sites.timed", "fixture.sites-timed.seconds"));
  FRESHSEL_FAILPOINT(FIXTURE_NAME(5, "fixture.hit", "fixture"));
  FRESHSEL_FAILPOINT_RETURN(FIXTURE_NAME(6, "fixture.fail", "fixture.fail."),
                            freshsel::Status::Unavailable("fixture"));
  return freshsel::Status::OK();
}
