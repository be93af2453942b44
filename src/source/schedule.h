#pragma once

#include <cstdint>

#include "common/check.h"
#include "common/time_types.h"

namespace freshsel::source {

/// A source's fixed update schedule: the source refreshes its content on days
/// phase, phase + period, phase + 2*period, ...
///
/// `LatestUpdateAt` is the paper's T_S(t) operator (Equation 8): the latest
/// update day at or before t. `WithDivisor(m)` models acquiring only every
/// m-th update (the varying-frequency selection of Definition 4): the
/// acquisition schedule has period m * period and the same phase.
struct UpdateSchedule {
  std::int64_t period = 1;  ///< Days between updates; >= 1.
  TimePoint phase = 0;      ///< First update day; in [0, period).

  double frequency() const {
    FRESHSEL_DCHECK(period >= 1);
    return 1.0 / static_cast<double>(period);
  }

  /// Latest update day <= t; may be negative (phase - period) when the
  /// source has not updated yet by t.
  TimePoint LatestUpdateAt(TimePoint t) const {
    FRESHSEL_DCHECK(period >= 1);
    // Floor division that is correct for t < phase.
    TimePoint diff = t - phase;
    TimePoint q = diff >= 0 ? diff / period : -((-diff + period - 1) / period);
    return phase + q * period;
  }

  /// Earliest update day >= t.
  TimePoint NextUpdateAtOrAfter(TimePoint t) const {
    TimePoint latest = LatestUpdateAt(t);
    return latest >= t ? latest : latest + period;
  }

  bool IsUpdateDay(TimePoint t) const { return LatestUpdateAt(t) == t; }

  /// Schedule of acquiring every `divisor`-th update. Pre: divisor >= 1.
  UpdateSchedule WithDivisor(std::int64_t divisor) const {
    FRESHSEL_CHECK(divisor >= 1) << "divisor=" << divisor;
    return UpdateSchedule{period * divisor, phase};
  }
};

}  // namespace freshsel::source
