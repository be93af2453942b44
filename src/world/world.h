#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/time_types.h"
#include "world/domain.h"
#include "world/entity.h"

namespace freshsel::world {

/// The evolving data domain Omega: every entity's ground-truth lifespan and
/// update history, with fast per-day population counts.
///
/// Two producers fill a `World`:
///  * `SimulateWorld` (world_simulator.h) — synthetic ground truth;
///  * `integration::ReconstructWorld` — the paper's history-integration
///    preprocessing, which rebuilds the world evolution from source streams.
///
/// Usage: construct, `AddEntity` records, then `Finalize()` once before any
/// query. Entity ids must be dense 0..n-1 (they double as signature bit
/// indices).
class World {
 public:
  /// `horizon` is the last simulated/observed day; per-day count queries are
  /// valid on [0, horizon].
  World(DataDomain domain, TimePoint horizon);

  World(const World&) = delete;
  World& operator=(const World&) = delete;
  World(World&&) noexcept = default;
  World& operator=(World&&) noexcept = default;

  const DataDomain& domain() const { return domain_; }
  TimePoint horizon() const { return horizon_; }

  /// Appends an entity record. Returns InvalidArgument when the id is not
  /// the next dense id, the subdomain is out of range, or the record's
  /// times are inconsistent. Must be called before Finalize().
  Status AddEntity(EntityRecord record);

  /// Builds the per-day population prefix arrays. Idempotent.
  Status Finalize();
  bool finalized() const { return finalized_; }

  std::size_t entity_count() const { return entities_.size(); }
  const EntityRecord& entity(EntityId id) const {
    FRESHSEL_DCHECK(id < entities_.size())
        << "entity " << id << " out of range (" << entities_.size() << ")";
    return entities_[id];
  }
  const std::vector<EntityRecord>& entities() const { return entities_; }

  /// Ids of entities whose subdomain is `sub` (any lifetime).
  const std::vector<EntityId>& EntitiesInSubdomain(SubdomainId sub) const;

  /// |Omega|_t restricted to one subdomain. Pre: Finalize()d, t clamped to
  /// [0, horizon].
  std::int64_t CountAt(SubdomainId sub, TimePoint t) const;

  /// |Omega|_t over a set of subdomains.
  std::int64_t CountAtIn(const std::vector<SubdomainId>& subs,
                         TimePoint t) const;

  /// |Omega|_t over the whole domain.
  std::int64_t TotalCountAt(TimePoint t) const;

 private:
  TimePoint ClampDay(TimePoint t) const;

  DataDomain domain_;
  TimePoint horizon_;
  bool finalized_ = false;
  std::vector<EntityRecord> entities_;
  std::vector<std::vector<EntityId>> by_subdomain_;
  // counts_[sub][d] = #entities of `sub` existing on day d, d in [0,horizon].
  std::vector<std::vector<std::int32_t>> counts_;
  std::vector<std::int64_t> total_counts_;
};

}  // namespace freshsel::world
