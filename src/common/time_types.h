#pragma once

#include <cstdint>
#include <vector>

namespace freshsel {

/// The library's time axis is discrete: one unit is one day, matching the
/// daily snapshots of the paper's BL and GDELT corpora. Negative values are
/// legal (times before the observation origin).
using TimePoint = std::int64_t;

/// A half-open-start, inclusive-end window (begin, end] as used by the
/// paper's interval notation (t, t + tau]. For iteration convenience we also
/// expose first()/last() giving the inclusive day range [begin + 1, end].
struct TimeWindow {
  TimePoint begin = 0;  ///< Exclusive start.
  TimePoint end = 0;    ///< Inclusive end.

  TimePoint first() const { return begin + 1; }
  TimePoint last() const { return end; }
  /// Number of days in the window; zero when degenerate.
  std::int64_t length() const { return end > begin ? end - begin : 0; }
  bool Contains(TimePoint t) const { return t > begin && t <= end; }
};

/// An ordered list of future time points of interest (the paper's T_f).
using TimePoints = std::vector<TimePoint>;

/// Builds {start, start + stride, ...} with `count` elements.
inline TimePoints MakeTimePoints(TimePoint start, std::int64_t count,
                                 std::int64_t stride = 1) {
  TimePoints points;
  points.reserve(count > 0 ? static_cast<std::size_t>(count) : 0);
  for (std::int64_t i = 0; i < count; ++i) {
    points.push_back(start + i * stride);
  }
  return points;
}

}  // namespace freshsel
