#include "integration/history_integration.h"

#include <algorithm>
#include <cstdint>
#include <map>

namespace freshsel::integration {

namespace {

/// Accumulated evidence about one entity across all sources.
struct EntityEvidence {
  world::SubdomainId subdomain = 0;
  TimePoint first_mention = world::kNever;
  /// version -> earliest capture day.
  std::map<std::uint32_t, TimePoint> version_days;
  std::size_t mentions = 0;
  std::size_t deletions = 0;
  TimePoint latest_deletion = 0;
};

}  // namespace

Result<ReconstructionResult> ReconstructWorld(
    const world::DataDomain& domain,
    const std::vector<const source::SourceHistory*>& sources,
    TimePoint horizon, std::size_t original_entity_count) {
  std::map<world::EntityId, EntityEvidence> evidence;
  for (const source::SourceHistory* history : sources) {
    for (const source::CaptureRecord& rec : history->records()) {
      if (rec.entity >= original_entity_count) {
        return Status::InvalidArgument(
            "capture record entity id exceeds original_entity_count");
      }
      EntityEvidence& ev = evidence[rec.entity];
      ev.subdomain = rec.subdomain;
      ev.mentions += 1;
      ev.first_mention = std::min(ev.first_mention, rec.inserted);
      for (const auto& [version, day] : history->captures(rec)) {
        auto [it, inserted] = ev.version_days.try_emplace(version, day);
        if (!inserted) it->second = std::min(it->second, day);
      }
      if (rec.deleted != world::kNever) {
        ev.deletions += 1;
        ev.latest_deletion = std::max(ev.latest_deletion, rec.deleted);
      }
    }
  }

  world::World reconstructed(domain, horizon);
  ReconstructionResult result{std::move(reconstructed), {},
                              std::vector<std::int32_t>(
                                  original_entity_count, -1)};
  world::EntityId next_id = 0;
  for (const auto& [original_id, ev] : evidence) {
    world::EntityRecord record;
    record.id = next_id;
    record.subdomain = ev.subdomain;
    record.birth = ev.first_mention;

    // Version times must be strictly increasing and after birth; drop
    // stragglers whose earliest capture is out of order.
    TimePoint prev = record.birth;
    for (const auto& [version, day] : ev.version_days) {
      if (version == 0) continue;  // The appearance value, not an update.
      if (day <= prev) continue;
      record.update_times.push_back(day);
      prev = day;
    }

    // Deleted only when every mentioning source has deleted it.
    if (ev.deletions == ev.mentions && ev.mentions > 0) {
      record.death = std::max(ev.latest_deletion, prev + 1);
    } else {
      record.death = world::kNever;
    }

    FRESHSEL_RETURN_IF_ERROR(result.world.AddEntity(std::move(record)));
    result.to_original.push_back(original_id);
    result.from_original[original_id] = static_cast<std::int32_t>(next_id);
    ++next_id;
  }
  FRESHSEL_RETURN_IF_ERROR(result.world.Finalize());
  return result;
}

}  // namespace freshsel::integration
