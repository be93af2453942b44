#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "source/source_history.h"
#include "world/world.h"

namespace freshsel::testing {

/// The captures of `rec`, one of `history`'s records, as a vector.
inline std::vector<source::VersionCapture> CapturesOf(
    const source::SourceHistory& history, const source::CaptureRecord& rec) {
  const source::CaptureRange captures = history.captures(rec);
  return {captures.begin(), captures.end()};
}

/// A capture record spelled out together with its captures.
struct RecordWithCaptures {
  source::CaptureRecord header;
  std::vector<source::VersionCapture> captures;
};

/// Builds a tiny deterministic 2x2-subdomain world used across test suites.
///
/// Horizon 100. Subdomains: (loc, cat) with 2 locations x 2 categories.
/// Entities (id: subdomain, birth, death, updates):
///   0: sub 0, born 0,  dies 50,   updates {10, 30}
///   1: sub 0, born 0,  alive,     updates {20}
///   2: sub 1, born 5,  dies 80,   updates {}
///   3: sub 2, born 15, alive,     updates {40, 60}
///   4: sub 3, born 25, dies 90,   updates {45}
///   5: sub 0, born 60, alive,     updates {70}
inline world::World MakeTestWorld() {
  world::DataDomain domain =
      world::DataDomain::Create("loc", 2, "cat", 2).value();
  world::World w(std::move(domain), /*horizon=*/100);
  auto add = [&](world::EntityId id, world::SubdomainId sub, TimePoint birth,
                 TimePoint death, std::vector<TimePoint> updates) {
    world::EntityRecord rec;
    rec.id = id;
    rec.subdomain = sub;
    rec.birth = birth;
    rec.death = death;
    rec.update_times = std::move(updates);
    Status status = w.AddEntity(std::move(rec));
    (void)status;
  };
  add(0, 0, 0, 50, {10, 30});
  add(1, 0, 0, world::kNever, {20});
  add(2, 1, 5, 80, {});
  add(3, 2, 15, world::kNever, {40, 60});
  add(4, 3, 25, 90, {45});
  add(5, 0, 60, world::kNever, {70});
  Status status = w.Finalize();
  (void)status;
  return w;
}

/// A hand-built source over MakeTestWorld():
///   * carries entity 0 from day 2 (v0), learns v1 at 12, v2 at 35,
///     deletes it at day 55;
///   * carries entity 1 from day 0 (v0) and learns v1 at day 25;
///   * carries entity 2 from day 8, never deletes it (ghost after 80);
///   * never carries entities 3, 4, 5.
inline source::SourceHistory MakeTestSource(const world::World& w,
                                            std::int64_t period = 1) {
  source::SourceSpec spec;
  spec.name = "test-source";
  spec.scope = {0, 1};
  spec.schedule.period = period;
  spec.schedule.phase = 0;
  source::SourceHistory history(spec, w.entity_count());
  auto add = [&](world::EntityId id, world::SubdomainId sub,
                 TimePoint inserted, TimePoint deleted,
                 std::vector<std::pair<std::uint32_t, TimePoint>> captures) {
    source::CaptureRecord rec;
    rec.entity = id;
    rec.subdomain = sub;
    rec.inserted = inserted;
    rec.deleted = deleted;
    Status status = history.AddRecord(rec, captures);
    (void)status;
  };
  add(0, 0, 2, 55, {{0, 2}, {1, 12}, {2, 35}});
  add(1, 0, 0, world::kNever, {{0, 0}, {1, 25}});
  add(2, 1, 8, world::kNever, {{0, 8}});
  return history;
}

}  // namespace freshsel::testing
