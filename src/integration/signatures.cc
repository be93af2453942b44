#include "integration/signatures.h"

namespace freshsel::integration {

SourceSignatures BuildSignatures(const world::World& world,
                                 const source::SourceHistory& history,
                                 TimePoint t) {
  SourceSignatures sig{BitVector(world.entity_count()),
                       BitVector(world.entity_count()),
                       BitVector(world.entity_count())};
  for (const source::CaptureRecord& rec : history.records()) {
    if (!rec.ContainsAt(t)) continue;
    sig.all.Set(rec.entity);
    const world::EntityRecord& entity = world.entity(rec.entity);
    if (!entity.ExistsAt(t)) continue;  // Non-deleted ghost.
    sig.cov.Set(rec.entity);
    if (source::KnownVersionAt(history.captures(rec), t) ==
        entity.VersionAt(t)) {
      sig.up.Set(rec.entity);
    }
  }
  return sig;
}

BitVector DomainMask(const world::World& world,
                     const std::vector<world::SubdomainId>& subdomains) {
  BitVector mask(world.entity_count());
  for (world::SubdomainId sub : subdomains) {
    for (world::EntityId id : world.EntitiesInSubdomain(sub)) {
      mask.Set(id);
    }
  }
  return mask;
}

}  // namespace freshsel::integration
