#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "source/source_history.h"
#include "world/world.h"

namespace freshsel::integration {

/// Output of history integration: a reconstructed `World` plus the id
/// mapping between the reconstruction's dense ids and the original entity
/// ids (entities never mentioned by any source are absent from the
/// reconstruction).
struct ReconstructionResult {
  world::World world;
  std::vector<world::EntityId> to_original;   ///< new id -> original id.
  std::vector<std::int32_t> from_original;    ///< original id -> new or -1.
};

/// The paper's history-integration preprocessing (Section 4.1): unifies the
/// per-source entity streams into a single stream approximating the
/// evolution of the world.
///
/// Per entity (matched across sources by exact id — the entity dictionary
/// performs the canonicalization / matching step upstream):
///  * appearance time = earliest capture day across sources;
///  * each value version's time = earliest capture day of that version
///    (non-monotone stragglers are dropped);
///  * disappearance = the latest deletion day, but only once *every* source
///    mentioning the entity has deleted it — mirroring "the timestamp of the
///    latest snapshot mentioning it".
///
/// The reconstruction is biased late by the sources' capture delays; tests
/// validate it against simulator ground truth the way the paper validated
/// against its gold standard.
///
/// `original_entity_count` sizes the `from_original` mapping; it must be at
/// least every mentioned entity id + 1.
Result<ReconstructionResult> ReconstructWorld(
    const world::DataDomain& domain,
    const std::vector<const source::SourceHistory*>& sources,
    TimePoint horizon, std::size_t original_entity_count);

}  // namespace freshsel::integration
