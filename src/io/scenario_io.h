#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/result.h"
#include "fault/retry.h"
#include "source/source_history.h"
#include "world/world.h"

namespace freshsel::io {

/// CSV persistence for worlds and source histories, so scenarios can be
/// exported for offline analysis / plotting and real snapshot corpora can
/// be loaded into the library.
///
/// World file format (one header block, then one line per entity):
///   #world,<dim1_name>,<dim1_size>,<dim2_name>,<dim2_size>,<horizon>
///   id,subdomain,birth,death,updates
///   0,3,0,512,10|40|200
/// `death` is empty for still-alive entities; `updates` is a '|'-separated
/// day list (possibly empty).
///
/// Source file format:
///   #source,<name>,<period>,<phase>,<world_entity_count>
///   #scope,<subdomain>|<subdomain>|...
///   entity,subdomain,inserted,deleted,captures
///   17,3,12,,0:12|1:40
/// `captures` holds version:day pairs; `deleted` is empty when the source
/// never removed the entity.

/// Largest horizon (days) a world file may declare, about 2.9k years.
inline constexpr std::int64_t kMaxWorldHorizon = std::int64_t{1} << 20;
/// Most subdomains a world file may declare. `World` keeps two vectors per
/// subdomain (about 80 bytes with their heap blocks) whatever the horizon,
/// so this bounds that part of a header's allocation at about 80 MB.
inline constexpr std::int64_t kMaxWorldSubdomains = std::int64_t{1} << 20;
/// Largest per-day count table a world file may size: `World::Finalize`
/// allocates (subdomains + 1) * (horizon + 2) int32 cells, so this caps
/// that allocation at 1 GiB before any row is read.
inline constexpr std::int64_t kMaxWorldCountCells = std::int64_t{1} << 28;

/// Writes `world` to `path`. Returns IoError on filesystem failure.
Status WriteWorldCsv(const world::World& world, const std::string& path);

/// Reads a world written by WriteWorldCsv. The returned world is
/// finalized. Returns IoError / InvalidArgument on malformed input,
/// including a horizon outside [0, kMaxWorldHorizon], a dimension size
/// outside 32 bits, more than kMaxWorldSubdomains subdomains, or a count
/// table past kMaxWorldCountCells.
Result<world::World> ReadWorldCsv(const std::string& path);

/// Writes `history` to `path` (spec capture parameters other than the
/// schedule are not persisted - they are simulator internals the
/// estimation layer never sees).
Status WriteSourceHistoryCsv(const source::SourceHistory& history,
                             const std::string& path);

/// Reads a source history written by WriteSourceHistoryCsv. Returns
/// InvalidArgument on malformed input, including an entity count outside
/// world::EntityId.
Result<source::SourceHistory> ReadSourceHistoryCsv(const std::string& path);

/// Retrying variants for flaky storage (see DESIGN.md §11): the plain
/// loaders above carry `io.read` / `io.write` failpoints at their entry,
/// and these wrappers drive them through `retry` — transient failures
/// (IoError, Unavailable) are reattempted under the policy's capped
/// exponential backoff, each retry bumping the obs counter `io.retry.attempts`.
/// The source reader also refuses a file whose entity count is not
/// `world_entity_count`, before it sizes the history's entity index.
Result<world::World> ReadWorldCsv(const std::string& path,
                                  const fault::RetryPolicy& retry);
Result<source::SourceHistory> ReadSourceHistoryCsv(
    const std::string& path, std::size_t world_entity_count,
    const fault::RetryPolicy& retry);
Status WriteWorldCsv(const world::World& world, const std::string& path,
                     const fault::RetryPolicy& retry);
Status WriteSourceHistoryCsv(const source::SourceHistory& history,
                             const std::string& path,
                             const fault::RetryPolicy& retry);

}  // namespace freshsel::io
