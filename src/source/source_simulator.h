#pragma once

#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "source/source_history.h"
#include "world/world.h"

namespace freshsel::world {
class World;
}

namespace freshsel::source {

/// Plays the world's ground-truth change stream through a source
/// specification, producing the source's observed history:
///
///  * every world change to an entity in the source's scope is either missed
///    (with the spec's per-change-type miss probability) or noticed after an
///    exponential delay and *published at the source's next update day* —
///    capture times are therefore always aligned to the source schedule,
///    exactly the structure the paper's T_S(t) operator models;
///  * entities alive at day 0 are seeded into the source with probability
///    `initial_awareness`;
///  * an update capture also inserts the entity if the appearance itself was
///    missed; captures that would land at or after the source's deletion of
///    the entity are dropped;
///  * captures falling beyond `world.horizon()` are treated as never
///    happening (right-censored, as in the paper's fixed observation
///    window).
///
/// Returns InvalidArgument on malformed specs (empty scope, bad
/// probabilities, period < 1).
Result<SourceHistory> SimulateSource(const world::World& world,
                                     const SourceSpec& spec, Rng& rng);

/// Simulates a whole roster of sources, forking an independent RNG stream
/// per source.
Result<std::vector<SourceHistory>> SimulateSources(
    const world::World& world, const std::vector<SourceSpec>& specs,
    Rng& rng);

}  // namespace freshsel::source
