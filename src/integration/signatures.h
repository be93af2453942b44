#pragma once

#include <vector>

#include "common/bit_vector.h"
#include "source/source_history.h"
#include "world/world.h"

namespace freshsel::integration {

/// The per-source bit-array signatures of Section 4.2.1, built by comparing
/// the source content with the world at a fixed day t:
///  * `up`  — B_S^up:  entities the source carries whose displayed version
///            matches the world's current version (up-to-date);
///  * `cov` — B_S^cov: up-to-date plus out-of-date entities (carried and
///            still existing in the world);
///  * `all` — B_S:     everything the source carries, including non-deleted
///            ghosts of entities that left the world.
///
/// Bit index == world entity id, so unions across sources are word-wise ORs.
struct SourceSignatures {
  BitVector up;
  BitVector cov;
  BitVector all;
};

/// Builds the three signatures of `history` at day `t`.
SourceSignatures BuildSignatures(const world::World& world,
                                 const source::SourceHistory& history,
                                 TimePoint t);

/// Bit mask of all entities (of any lifetime) belonging to the given
/// subdomains; AND-ing signatures with such a mask restricts every quality
/// metric to one data-domain point, as the experiments in Section 6 do.
BitVector DomainMask(const world::World& world,
                     const std::vector<world::SubdomainId>& subdomains);

}  // namespace freshsel::integration
