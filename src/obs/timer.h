#pragma once

#include <cstdint>

#include "obs/clock.h"

namespace freshsel::obs {

/// Monotonic wall-clock stopwatch (Table 2/3, Figure 13 runtime
/// measurements). Lives in the obs layer so that all timing flows through
/// `obs::NowNs`.
class WallTimer {
 public:
  WallTimer() : start_ns_(NowNs()) {}

  void Restart() { start_ns_ = NowNs(); }

  std::uint64_t ElapsedNs() const { return NowNs() - start_ns_; }

  double ElapsedSeconds() const { return NsToSeconds(ElapsedNs()); }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  std::uint64_t start_ns_;
};

}  // namespace freshsel::obs
