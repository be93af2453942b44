#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/time_types.h"
#include "source/source_spec.h"
#include "world/entity.h"

namespace freshsel::source {

/// The full observed stream of one source: when each world change was
/// captured and published by the source. This is the "daily snapshots"
/// substrate of the paper — the source's content at any day t is derivable
/// from these capture times.
struct CaptureRecord {
  world::EntityId entity = 0;
  /// Subdomain of the entity (an observable attribute of the data item,
  /// e.g. a listing's (location, category) pair).
  world::SubdomainId subdomain = 0;
  /// Day the entity first appeared in the source's content; world::kNever if
  /// the source never picked it up.
  TimePoint inserted = world::kNever;
  /// Day the source removed the entity; world::kNever if never removed.
  TimePoint deleted = world::kNever;
  /// (world version, capture day) pairs for the value versions the source
  /// captured. Version 0 is the appearance value. Sorted by capture day.
  std::vector<std::pair<std::uint32_t, TimePoint>> version_captures;

  bool ContainsAt(TimePoint t) const { return inserted <= t && t < deleted; }

  /// Highest world version the source knows at t (the version it displays).
  /// Pre: ContainsAt(t).
  std::uint32_t KnownVersionAt(TimePoint t) const {
    std::uint32_t version = 0;
    for (const auto& [v, day] : version_captures) {
      if (day > t) break;
      if (v > version) version = v;
    }
    return version;
  }
};

/// A source's complete simulated (or replayed) history plus its ground-truth
/// spec. Entity lookups are O(1) via a dense index over world entity ids.
class SourceHistory {
 public:
  /// `world_entity_count` sizes the entity -> record index.
  SourceHistory(SourceSpec spec, std::size_t world_entity_count);

  const SourceSpec& spec() const { return spec_; }
  const std::string& name() const { return spec_.name; }
  const UpdateSchedule& schedule() const { return spec_.schedule; }

  /// Adds a capture record; entries with inserted == kNever are skipped
  /// (entity never made it into the source). Returns InvalidArgument on a
  /// duplicate entity.
  Status AddRecord(CaptureRecord record);

  const std::vector<CaptureRecord>& records() const { return records_; }

  /// nullptr when the source never carried `entity`.
  const CaptureRecord* Find(world::EntityId entity) const;

  bool ContainsAt(world::EntityId entity, TimePoint t) const {
    const CaptureRecord* rec = Find(entity);
    return rec != nullptr && rec->ContainsAt(t);
  }

  /// Number of entities in the source's content at day t.
  std::int64_t ContentCountAt(TimePoint t) const;

  /// The micro-source covering only `subdomains` (the slice decomposition
  /// of Definition 5 / the BL+ datasets): keeps the records whose entity
  /// lies in the given subdomains, with the scope restricted accordingly
  /// and `suffix` appended to the name.
  SourceHistory RestrictedTo(const std::vector<world::SubdomainId>& subdomains,
                             const std::string& suffix) const;

  /// Re-aligns every capture day to the coarser acquisition schedule of
  /// taking only every `divisor`-th source update: the history an integrator
  /// sees when it deliberately acquires the source at frequency f_S/divisor
  /// (Example 4 / Definition 4). Pre: divisor >= 1.
  SourceHistory WithAcquisitionDivisor(std::int64_t divisor) const;

  std::size_t world_entity_count() const { return entity_index_.size(); }

 private:
  SourceSpec spec_;
  std::vector<CaptureRecord> records_;
  std::vector<std::int32_t> entity_index_;  // entity id -> records_ index.
};

}  // namespace freshsel::source
