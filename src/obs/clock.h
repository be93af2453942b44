#pragma once

#include <chrono>
#include <cstdint>

namespace freshsel::obs {

/// The one place in the tree that reads the monotonic clock. Everything
/// else (timers, trace spans, histogram-recording scopes) goes through
/// `NowNs` so timing stays mockable-in-principle and the freshsel_lint
/// `obs-clock` rule can ban raw std::chrono::steady_clock reads outside
/// src/obs.
inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Nanoseconds -> seconds.
inline double NsToSeconds(std::uint64_t ns) {
  return static_cast<double>(ns) * 1e-9;
}

}  // namespace freshsel::obs
