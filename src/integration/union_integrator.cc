#include "integration/union_integrator.h"

#include <cstdint>
#include <unordered_map>

namespace freshsel::integration {

std::size_t IntegratedSnapshot::PresentCount() const {
  std::size_t count = 0;
  for (const IntegratedReference& ref : references_) {
    if (ref.present) ++count;
  }
  return count;
}

IntegratedSnapshot IntegrateAt(
    const std::vector<const source::SourceHistory*>& sources, TimePoint t) {
  // entity -> best reference so far.
  std::unordered_map<world::EntityId, IntegratedReference> best;

  auto consider = [&](const IntegratedReference& candidate) {
    auto [it, inserted] = best.try_emplace(candidate.entity, candidate);
    if (inserted) return;
    IntegratedReference& current = it->second;
    // Most recent timestamp wins; at equal timestamps a deletion wins (it is
    // strictly newer knowledge about the entity), then the higher version.
    if (candidate.reference_time > current.reference_time ||
        (candidate.reference_time == current.reference_time &&
         (current.present && !candidate.present)) ||
        (candidate.reference_time == current.reference_time &&
         current.present == candidate.present &&
         candidate.version > current.version)) {
      current = candidate;
    }
  };

  for (const source::SourceHistory* history : sources) {
    for (const source::CaptureRecord& rec : history->records()) {
      if (rec.inserted > t) continue;  // Never mentioned by t.
      IntegratedReference ref;
      ref.entity = rec.entity;
      if (rec.deleted <= t) {
        ref.present = false;
        ref.version = 0;
        ref.reference_time = rec.deleted;
      } else {
        ref.present = true;
        // Displayed version and the day the source learned it.
        std::uint32_t version = 0;
        TimePoint version_day = rec.inserted;
        for (const auto& [v, day] : history->captures(rec)) {
          if (day > t) break;
          if (v >= version) {
            version = v;
            version_day = day;
          }
        }
        ref.version = version;
        ref.reference_time = version_day;
      }
      consider(ref);
    }
  }

  IntegratedSnapshot snapshot;
  snapshot.references_.reserve(best.size());
  for (auto& [entity, ref] : best) snapshot.references_.push_back(ref);
  return snapshot;
}

}  // namespace freshsel::integration
