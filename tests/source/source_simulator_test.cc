#include "source/source_simulator.h"

#include <cstdint>
#include <gtest/gtest.h>

#include "world/world_simulator.h"

namespace freshsel::source {
namespace {

world::World MakeSimWorld(std::uint64_t seed = 21) {
  world::DataDomain domain =
      world::DataDomain::Create("loc", 2, "cat", 2).value();
  world::WorldSpec spec{std::move(domain), {}, 400};
  for (int i = 0; i < 4; ++i) {
    spec.rates.push_back({0.5, 0.01, 0.02, 50});
  }
  Rng rng(seed);
  return world::SimulateWorld(spec, rng).value();
}

SourceSpec PerfectSpec() {
  SourceSpec spec;
  spec.name = "perfect";
  spec.scope = {0, 1, 2, 3};
  spec.schedule = {1, 0};
  spec.insert_capture = {0.0, 0.0};
  spec.update_capture = {0.0, 0.0};
  spec.delete_capture = {0.0, 0.0};
  spec.initial_awareness = 1.0;
  return spec;
}

TEST(SourceSimulatorTest, ValidatesSpec) {
  world::World w = MakeSimWorld();
  Rng rng(1);

  SourceSpec empty_scope = PerfectSpec();
  empty_scope.scope.clear();
  EXPECT_FALSE(SimulateSource(w, empty_scope, rng).ok());

  SourceSpec bad_sub = PerfectSpec();
  bad_sub.scope = {99};
  EXPECT_FALSE(SimulateSource(w, bad_sub, rng).ok());

  SourceSpec bad_period = PerfectSpec();
  bad_period.schedule.period = 0;
  EXPECT_FALSE(SimulateSource(w, bad_period, rng).ok());

  SourceSpec bad_phase = PerfectSpec();
  bad_phase.schedule.phase = 5;
  EXPECT_FALSE(SimulateSource(w, bad_phase, rng).ok());

  SourceSpec bad_miss = PerfectSpec();
  bad_miss.insert_capture.miss_prob = 1.5;
  EXPECT_FALSE(SimulateSource(w, bad_miss, rng).ok());

  SourceSpec bad_delay = PerfectSpec();
  bad_delay.update_capture.delay_mean_days = -1.0;
  EXPECT_FALSE(SimulateSource(w, bad_delay, rng).ok());

  SourceSpec bad_awareness = PerfectSpec();
  bad_awareness.initial_awareness = -0.1;
  EXPECT_FALSE(SimulateSource(w, bad_awareness, rng).ok());
}

TEST(SourceSimulatorTest, PerfectDailySourceTracksWorldExactly) {
  world::World w = MakeSimWorld();
  Rng rng(2);
  SourceHistory history = SimulateSource(w, PerfectSpec(), rng).value();
  // With zero delay, no misses and a daily schedule, the source content
  // matches the world exactly on every day.
  for (TimePoint t = 0; t <= 400; t += 37) {
    std::int64_t world_count = w.TotalCountAt(t);
    EXPECT_EQ(history.ContentCountAt(t), world_count) << "t=" << t;
  }
  // Every version is captured the day it happens.
  for (const CaptureRecord& rec : history.records()) {
    const world::EntityRecord& entity = w.entity(rec.entity);
    EXPECT_EQ(rec.inserted, std::max<TimePoint>(entity.birth, 0));
    if (entity.death != world::kNever && entity.death <= 400) {
      EXPECT_EQ(rec.deleted, entity.death);
    }
  }
}

TEST(SourceSimulatorTest, CapturesAlignToSchedule) {
  world::World w = MakeSimWorld();
  SourceSpec spec = PerfectSpec();
  spec.schedule = {7, 3};
  spec.initial_awareness = 0.0;
  Rng rng(3);
  SourceHistory history = SimulateSource(w, spec, rng).value();
  for (const CaptureRecord& rec : history.records()) {
    for (const auto& [version, day] : history.captures(rec)) {
      EXPECT_TRUE(spec.schedule.IsUpdateDay(day))
          << "capture at non-update day " << day;
    }
    if (rec.deleted != world::kNever) {
      EXPECT_TRUE(spec.schedule.IsUpdateDay(rec.deleted));
    }
  }
}

TEST(SourceSimulatorTest, CapturesNeverPrecedeEvents) {
  world::World w = MakeSimWorld();
  SourceSpec spec = PerfectSpec();
  spec.insert_capture = {0.1, 5.0};
  spec.update_capture = {0.2, 8.0};
  spec.delete_capture = {0.1, 10.0};
  spec.initial_awareness = 0.0;
  Rng rng(4);
  SourceHistory history = SimulateSource(w, spec, rng).value();
  for (const CaptureRecord& rec : history.records()) {
    const world::EntityRecord& entity = w.entity(rec.entity);
    for (const auto& [version, day] : history.captures(rec)) {
      const TimePoint event_time =
          version == 0 ? entity.birth : entity.update_times[version - 1];
      EXPECT_GE(day, event_time);
      EXPECT_LT(day, rec.deleted);
    }
    if (rec.deleted != world::kNever) {
      EXPECT_GE(rec.deleted, entity.death);
    }
    EXPECT_LE(rec.inserted, 400);
  }
}

TEST(SourceSimulatorTest, FullMissProbabilityCapturesNothingNew) {
  world::World w = MakeSimWorld();
  SourceSpec spec = PerfectSpec();
  spec.insert_capture.miss_prob = 1.0;
  spec.update_capture.miss_prob = 1.0;
  spec.initial_awareness = 0.0;
  Rng rng(5);
  SourceHistory history = SimulateSource(w, spec, rng).value();
  EXPECT_EQ(history.records().size(), 0u);
}

TEST(SourceSimulatorTest, InitialAwarenessSeedsDayZeroContent) {
  world::World w = MakeSimWorld();
  SourceSpec spec = PerfectSpec();
  spec.insert_capture.miss_prob = 1.0;  // Only seeded content possible.
  spec.update_capture.miss_prob = 1.0;
  spec.initial_awareness = 1.0;
  Rng rng(6);
  SourceHistory history = SimulateSource(w, spec, rng).value();
  EXPECT_EQ(history.ContentCountAt(0), w.TotalCountAt(0));
  for (const CaptureRecord& rec : history.records()) {
    EXPECT_EQ(rec.inserted, 0);
  }
}

TEST(SourceSimulatorTest, ScopeRestrictsContent) {
  world::World w = MakeSimWorld();
  SourceSpec spec = PerfectSpec();
  spec.scope = {1};
  Rng rng(7);
  SourceHistory history = SimulateSource(w, spec, rng).value();
  for (const CaptureRecord& rec : history.records()) {
    EXPECT_EQ(w.entity(rec.entity).subdomain, 1u);
    EXPECT_EQ(rec.subdomain, 1u);
  }
}

TEST(SourceSimulatorTest, DelayReducesFreshCaptures) {
  world::World w = MakeSimWorld();
  SourceSpec fast = PerfectSpec();
  fast.initial_awareness = 0.0;
  SourceSpec slow = fast;
  slow.insert_capture.delay_mean_days = 40.0;
  Rng rng_fast(8);
  Rng rng_slow(8);
  SourceHistory fast_history = SimulateSource(w, fast, rng_fast).value();
  SourceHistory slow_history = SimulateSource(w, slow, rng_slow).value();
  // The delayed source holds fewer items at mid-simulation.
  EXPECT_LT(slow_history.ContentCountAt(200),
            fast_history.ContentCountAt(200));
}

TEST(SourceSimulatorTest, SimulateSourcesForksIndependentStreams) {
  world::World w = MakeSimWorld();
  SourceSpec spec = PerfectSpec();
  spec.insert_capture = {0.3, 10.0};
  spec.initial_awareness = 0.5;
  Rng rng(9);
  std::vector<SourceHistory> histories =
      SimulateSources(w, {spec, spec}, rng).value();
  ASSERT_EQ(histories.size(), 2u);
  // Same spec, different random streams: the capture patterns must differ.
  auto fingerprint = [](const SourceHistory& h) {
    std::int64_t sum = 0;
    for (const CaptureRecord& rec : h.records()) {
      sum += rec.inserted * 31 + rec.entity;
    }
    return sum;
  };
  EXPECT_NE(fingerprint(histories[0]), fingerprint(histories[1]));
}

}  // namespace
}  // namespace freshsel::source
