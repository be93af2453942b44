#pragma once

#include <cstdint>
#include <vector>

#include "common/bit_vector.h"
#include "integration/signatures.h"
#include "source/source_history.h"
#include "world/world.h"

namespace freshsel::metrics {

/// Entity tallies of an integration result F(S_I) at a day t, following the
/// categories of Section 3: up-to-date, covered (= up-to-date +
/// out-of-date), everything in the result (adds non-deleted ghosts), and
/// the size of the (possibly domain-restricted) world |Omega|_t.
struct QualityCounts {
  std::int64_t up = 0;
  std::int64_t covered = 0;
  std::int64_t in_result = 0;
  std::int64_t world_total = 0;
};

/// The four quality metrics of Equations 1-5, derived from counts.
struct QualityMetrics {
  double coverage = 0.0;         ///< Eq. 1: covered / |Omega|.
  double local_freshness = 0.0;  ///< Eq. 2: up / |F(S_I)|.
  double global_freshness = 0.0; ///< Eq. 3: up / |Omega|.
  double accuracy = 0.0;         ///< Eq. 4/5: up / |F(S_I) union Omega|.
};

/// Derives metrics from counts; all metrics are 0 when the denominators are
/// degenerate (empty world / empty result).
QualityMetrics MetricsFromCounts(const QualityCounts& counts);

/// Exact counts for integrating `sources` at day `t` under the paper's
/// signature/union semantics (Section 4.2.1): up / covered / result counts
/// are popcounts of the OR-ed per-source signatures.
///
/// `mask` (optional) restricts every count — including |Omega|_t — to the
/// entities it covers; pass `integration::DomainMask(...)` to evaluate
/// quality on one data-domain point. `mask_world_total` must then be the
/// world count within the mask at `t` (use `world.CountAtIn(...)`).
QualityCounts ComputeCounts(
    const world::World& world,
    const std::vector<const source::SourceHistory*>& sources, TimePoint t,
    const BitVector* mask = nullptr, std::int64_t mask_world_total = -1);

/// Convenience: metrics of a single source at day t over the whole domain.
QualityMetrics SourceQualityAt(const world::World& world,
                               const source::SourceHistory& history,
                               TimePoint t);

/// Counts computed from prebuilt signatures (used when signatures at a fixed
/// t are reused across many source subsets, e.g. inside estimators and
/// tests).
QualityCounts CountsFromSignatures(
    const std::vector<const integration::SourceSignatures*>& signatures,
    std::int64_t world_total, const BitVector* mask = nullptr);

/// Average capture freshness of one source over the days in (window.begin,
/// window.end]: mean over days of LF(source, day). Used by the Figure 1(a)
/// motivation experiment.
double AverageLocalFreshness(const world::World& world,
                             const source::SourceHistory& history,
                             const TimeWindow& window);

/// Average delay statistics of a source's insertions within a window: mean
/// capture delay (days) of captured appearances and the fraction of
/// appearances in scope that were not captured within `delay_threshold`
/// days (the paper's "delayed items", Figure 1(d)).
struct DelayStats {
  double mean_delay = 0.0;
  double delayed_fraction = 0.0;
  std::int64_t observed = 0;
};
DelayStats InsertionDelayStats(const world::World& world,
                               const source::SourceHistory& history,
                               const TimeWindow& window,
                               double delay_threshold);

}  // namespace freshsel::metrics
