#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/time_types.h"
#include "world/domain.h"

namespace freshsel::world {

/// Dense global entity identifier; doubles as the bit index in signature
/// BitVectors.
using EntityId = std::uint32_t;

/// Sentinel for "never happened / still alive".
inline constexpr TimePoint kNever = std::numeric_limits<TimePoint>::max();

/// The ground-truth evolution of one entity in the world.
///
/// The entity is present in the world on days [birth, death); `death` is
/// kNever while alive. `update_times` holds the days of its value changes,
/// strictly increasing, all within [birth, death). The entity's *version* at
/// time t is the number of updates at or before t (version 0 is the value it
/// appeared with).
struct EntityRecord {
  EntityId id = 0;
  SubdomainId subdomain = 0;
  TimePoint birth = 0;
  TimePoint death = kNever;
  std::vector<TimePoint> update_times;

  bool ExistsAt(TimePoint t) const { return t >= birth && t < death; }

  /// Number of updates with time <= t (0 before any update).
  std::uint32_t VersionAt(TimePoint t) const {
    std::uint32_t version = 0;
    for (TimePoint u : update_times) {
      if (u > t) break;
      ++version;
    }
    return version;
  }

  /// Time of the latest change (appearance or update) at or before t.
  /// Pre: t >= birth.
  TimePoint LatestChangeAt(TimePoint t) const {
    TimePoint latest = birth;
    for (TimePoint u : update_times) {
      if (u > t) break;
      latest = u;
    }
    return latest;
  }
};

}  // namespace freshsel::world
