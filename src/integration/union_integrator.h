#pragma once

#include <cstdint>
#include <vector>

#include "common/time_types.h"
#include "source/source_history.h"
#include "world/entity.h"

namespace freshsel::integration {

/// One entity's integrated reference at a point in time, produced by the
/// union-semantics integration scheme of Section 2.3: each source
/// contributes its latest action (insert/update/delete) for the entity, and
/// conflicts are resolved by keeping the reference with the most recent
/// timestamp. A winning deletion removes the entity from the result.
struct IntegratedReference {
  world::EntityId entity = 0;
  bool present = false;          ///< False when the winning action is delete.
  std::uint32_t version = 0;     ///< Displayed version when present.
  TimePoint reference_time = 0;  ///< Timestamp of the winning action.
};

/// The integration result F(S_I) at day t: the integrated reference of every
/// entity any source has ever mentioned by t.
class IntegratedSnapshot {
 public:
  const std::vector<IntegratedReference>& references() const {
    return references_;
  }
  /// Number of entities present in the result.
  std::size_t PresentCount() const;

  friend IntegratedSnapshot IntegrateAt(
      const std::vector<const source::SourceHistory*>& sources, TimePoint t);

 private:
  std::vector<IntegratedReference> references_;
};

/// Integrates `sources` at day `t` under union semantics with
/// most-recent-timestamp conflict resolution.
IntegratedSnapshot IntegrateAt(
    const std::vector<const source::SourceHistory*>& sources, TimePoint t);

}  // namespace freshsel::integration
