#include "estimation/source_profile.h"

#include <cstdint>
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "source/source_simulator.h"
#include "testing/test_world.h"
#include "world/world_simulator.h"

namespace freshsel::estimation {
namespace {

world::World MakeSimWorld(TimePoint horizon = 600, std::uint64_t seed = 61) {
  world::DataDomain domain =
      world::DataDomain::Create("loc", 2, "cat", 1).value();
  world::WorldSpec spec{std::move(domain), {}, horizon};
  spec.rates.push_back({2.0, 0.005, 0.01, 300});
  spec.rates.push_back({1.0, 0.005, 0.01, 200});
  Rng rng(seed);
  return world::SimulateWorld(spec, rng).value();
}

TEST(SourceProfileTest, LearnValidatesT0) {
  world::World w = testing::MakeTestWorld();
  source::SourceHistory s = testing::MakeTestSource(w);
  EXPECT_FALSE(LearnSourceProfile(w, s, 0).ok());
  EXPECT_FALSE(LearnSourceProfile(w, s, 200).ok());
  EXPECT_TRUE(LearnSourceProfile(w, s, 100).ok());
}

TEST(SourceProfileTest, LearnsUpdateIntervalAndAnchor) {
  world::World w = MakeSimWorld();
  source::SourceSpec spec;
  spec.name = "weekly";
  spec.scope = {0, 1};
  spec.schedule = {7, 3};
  spec.insert_capture = {0.0, 2.0};
  spec.update_capture = {0.0, 2.0};
  spec.delete_capture = {0.0, 2.0};
  Rng rng(67);
  source::SourceHistory h = source::SimulateSource(w, spec, rng).value();
  SourceProfile profile = LearnSourceProfile(w, h, 400).value();
  // With many entities nearly every update day carries a capture.
  EXPECT_NEAR(profile.update_interval, 7.0, 0.5);
  // Anchor: the last update day <= 400 is 397 (3 + 56*7 = 395? 3+56*7=395,
  // +7=402 > 400). Whatever the exact day, it must be a schedule day.
  EXPECT_TRUE(spec.schedule.IsUpdateDay(profile.anchor));
  EXPECT_LE(profile.anchor, 400);
}

TEST(SourceProfileTest, ObservedScopeMatchesActual) {
  world::World w = MakeSimWorld();
  source::SourceSpec spec;
  spec.name = "loc0";
  spec.scope = {0};
  spec.schedule = {1, 0};
  spec.insert_capture = {0.0, 1.0};
  Rng rng(71);
  source::SourceHistory h = source::SimulateSource(w, spec, rng).value();
  SourceProfile profile = LearnSourceProfile(w, h, 400).value();
  EXPECT_EQ(profile.observed_scope, (std::vector<world::SubdomainId>{0}));
}

TEST(SourceProfileTest, InsertEffectivenessPlateauTracksMissProb) {
  world::World w = MakeSimWorld();
  source::SourceSpec spec;
  spec.name = "lossy";
  spec.scope = {0, 1};
  spec.schedule = {1, 0};
  spec.insert_capture = {0.3, 2.0};  // 30% missed forever.
  // Disable update captures: they would re-insert missed entities and lift
  // the plateau above the pure-insert capture probability.
  spec.update_capture = {1.0, 1.0};
  Rng rng(73);
  source::SourceHistory h = source::SimulateSource(w, spec, rng).value();
  SourceProfile profile = LearnSourceProfile(w, h, 500).value();
  // The KM plateau should approach the capture probability 0.7. Censoring
  // keeps it from reaching it exactly; evaluate well inside the window.
  EXPECT_NEAR(profile.g_insert.Evaluate(100.0), 0.7, 0.06);
}

TEST(SourceProfileTest, InsertEffectivenessTracksExponentialDelay) {
  world::World w = MakeSimWorld();
  source::SourceSpec spec;
  spec.name = "delayed";
  spec.scope = {0, 1};
  spec.schedule = {1, 0};
  spec.insert_capture = {0.0, 10.0};  // Mean 10-day delay.
  Rng rng(79);
  source::SourceHistory h = source::SimulateSource(w, spec, rng).value();
  SourceProfile profile = LearnSourceProfile(w, h, 500).value();
  // G(tau) ~ 1 - exp(-tau/10) (publication rounds delays up to the next
  // day, shifting the curve slightly left/up; allow slack).
  for (double tau : {5.0, 10.0, 20.0, 40.0}) {
    const double expected = 1.0 - std::exp(-tau / 10.0);
    EXPECT_NEAR(profile.g_insert.Evaluate(tau), expected, 0.08)
        << "tau=" << tau;
  }
}

TEST(SourceProfileTest, LearnerIsCensoredAtT0) {
  // Learn at a very early cutoff: barely any capture is observed yet, so
  // the learned G must be far below the long-run capture probability.
  world::World w = MakeSimWorld();
  source::SourceSpec spec;
  spec.name = "slow";
  spec.scope = {0, 1};
  spec.schedule = {1, 0};
  spec.insert_capture = {0.0, 50.0};  // Very slow captures.
  Rng rng(83);
  source::SourceHistory h = source::SimulateSource(w, spec, rng).value();
  SourceProfile early = LearnSourceProfile(w, h, 30).value();
  SourceProfile late = LearnSourceProfile(w, h, 550).value();
  EXPECT_LT(early.g_insert.FinalValue(), late.g_insert.Evaluate(200.0));
}

TEST(SourceProfileTest, SignaturesBuiltAtT0) {
  world::World w = testing::MakeTestWorld();
  source::SourceHistory s = testing::MakeTestSource(w);
  SourceProfile profile = LearnSourceProfile(w, s, 40).value();
  // Day 40: source holds entities 0 (v2 known at 35 == world v2), 1, 2.
  EXPECT_TRUE(profile.sig_t0.up.Test(0));
  EXPECT_TRUE(profile.sig_t0.up.Test(1));
  EXPECT_TRUE(profile.sig_t0.up.Test(2));
  EXPECT_EQ(profile.sig_t0.all.Count(), 3u);
}

TEST(SourceProfileEffectivenessTest, EquationEightSemantics) {
  SourceProfile profile;
  profile.update_interval = 10.0;
  profile.anchor = 100;
  profile.g_insert =
      stats::StepFunction::FromKnots({{0.0, 0.2}, {5.0, 0.6}, {15.0, 0.9}})
          .value();

  // t = 117 -> latest acquisition at 110. Event at 108: G(110-108)=G(2)=0.2.
  EXPECT_DOUBLE_EQ(profile.Effectiveness(profile.g_insert, 117.0, 108.0),
                   0.2);
  // Event at 104: G(6) = 0.6.
  EXPECT_DOUBLE_EQ(profile.Effectiveness(profile.g_insert, 117.0, 104.0),
                   0.6);
  // Event at 90: G(20) = 0.9.
  EXPECT_DOUBLE_EQ(profile.Effectiveness(profile.g_insert, 117.0, 90.0),
                   0.9);
  // Event after the latest acquisition (112 > 110): nothing published yet.
  EXPECT_DOUBLE_EQ(profile.Effectiveness(profile.g_insert, 117.0, 112.0),
                   0.0);
}

TEST(SourceProfileEffectivenessTest, DivisorCoarsensAcquisition) {
  SourceProfile profile;
  profile.update_interval = 10.0;
  profile.anchor = 100;
  profile.g_insert = stats::StepFunction::FromKnots({{0.0, 1.0}}).value();

  // Divisor 1: acquisition at 110 covers an event at 105 by t=117.
  EXPECT_DOUBLE_EQ(profile.Effectiveness(profile.g_insert, 117.0, 105.0, 1),
                   1.0);
  // Divisor 2: acquisitions at 100, 120 - nothing between 105 and 117.
  EXPECT_DOUBLE_EQ(profile.Effectiveness(profile.g_insert, 117.0, 105.0, 2),
                   0.0);
  // By t=121 the divisor-2 acquisition at 120 has happened.
  EXPECT_DOUBLE_EQ(profile.Effectiveness(profile.g_insert, 121.0, 105.0, 2),
                   1.0);
}

TEST(SourceProfileTest, LearnSourceProfilesBatch) {
  world::World w = testing::MakeTestWorld();
  std::vector<source::SourceHistory> histories;
  histories.push_back(testing::MakeTestSource(w));
  histories.push_back(testing::MakeTestSource(w, /*period=*/2));
  std::vector<SourceProfile> profiles =
      LearnSourceProfiles(w, histories, 60).value();
  ASSERT_EQ(profiles.size(), 2u);
  EXPECT_EQ(profiles[0].name, "test-source");
}

/// A history over MakeTestWorld() (six entities, four subdomains, horizon
/// 100) holding exactly `records`.
source::SourceHistory MakeEdgeHistory(
    const std::vector<testing::RecordWithCaptures>& records) {
  source::SourceSpec spec;
  spec.name = "edge";
  spec.scope = {0, 1, 2, 3};
  source::SourceHistory history(spec, 6);
  for (const testing::RecordWithCaptures& rec : records) {
    EXPECT_TRUE(history.AddRecord(rec.header, rec.captures).ok());
  }
  return history;
}

testing::RecordWithCaptures Captured(
    world::EntityId entity, world::SubdomainId sub, TimePoint deleted,
    std::vector<source::VersionCapture> captures) {
  source::CaptureRecord rec;
  rec.entity = entity;
  rec.subdomain = sub;
  rec.inserted = captures.front().second;
  rec.deleted = deleted;
  return {rec, std::move(captures)};
}

/// Scope, interval and anchor at the edges of the window: events at day 0
/// and at t0 count, events after t0 do not, a deletion is an update day,
/// days before 0 still count, and a source with no event by t0 falls back
/// to daily refresh anchored at t0. Expected values are worked by hand.
TEST(SourceProfileTest, ScopeIntervalAndAnchorAtWindowEdges) {
  const world::World w = testing::MakeTestWorld();
  const source::SourceHistory edges = MakeEdgeHistory({
      // Days 0, 12, 35; a deletion at 50.
      Captured(0, 0, 50, {{0, 0}, {1, 12}, {2, 35}}),
      // Day 0 again, and 22.
      Captured(1, 0, world::kNever, {{0, 0}, {1, 22}}),
      // Day 8; the deletion at 81 is after every t0 below.
      Captured(2, 1, 81, {{0, 8}}),
      // A day before 0, then 41; 61 is after every t0 below.
      Captured(3, 2, world::kNever, {{0, -3}, {1, 41}, {2, 61}}),
      // Only after t0: subdomain 3 stays out of the observed scope.
      Captured(4, 3, world::kNever, {{0, 51}}),
  });
  // t0 = 50: update days {-3, 0, 8, 12, 22, 35, 41, 50}.
  SourceProfile at_50 = LearnSourceProfile(w, edges, 50).value();
  EXPECT_EQ(at_50.observed_scope,
            (std::vector<world::SubdomainId>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(at_50.update_interval, 53.0 / 7.0);
  EXPECT_EQ(at_50.anchor, 50);
  // t0 = 49: the deletion at 50 drops out; {-3, 0, 8, 12, 22, 35, 41}.
  SourceProfile at_49 = LearnSourceProfile(w, edges, 49).value();
  EXPECT_EQ(at_49.observed_scope,
            (std::vector<world::SubdomainId>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(at_49.update_interval, 44.0 / 6.0);
  EXPECT_EQ(at_49.anchor, 41);
  // t0 = 51: subdomain 3 joins through its capture at 51.
  SourceProfile at_51 = LearnSourceProfile(w, edges, 51).value();
  EXPECT_EQ(at_51.observed_scope,
            (std::vector<world::SubdomainId>{0, 1, 2, 3}));
  EXPECT_DOUBLE_EQ(at_51.update_interval, 54.0 / 8.0);
  EXPECT_EQ(at_51.anchor, 51);

  // Captures at day 0 and at t0 only.
  const source::SourceHistory ends =
      MakeEdgeHistory({Captured(1, 0, world::kNever, {{0, 0}, {1, 50}})});
  SourceProfile both_ends = LearnSourceProfile(w, ends, 50).value();
  EXPECT_EQ(both_ends.observed_scope, (std::vector<world::SubdomainId>{0}));
  EXPECT_DOUBLE_EQ(both_ends.update_interval, 50.0);
  EXPECT_EQ(both_ends.anchor, 50);

  // Only days before 0, one of them twice: {-7, -2}, anchored at the last.
  const source::SourceHistory early = MakeEdgeHistory({
      Captured(0, 0, world::kNever, {{0, -7}}),
      Captured(3, 2, world::kNever, {{0, -7}, {1, -2}}),
  });
  SourceProfile before_zero = LearnSourceProfile(w, early, 50).value();
  EXPECT_EQ(before_zero.observed_scope,
            (std::vector<world::SubdomainId>{0, 2}));
  EXPECT_DOUBLE_EQ(before_zero.update_interval, 5.0);
  EXPECT_EQ(before_zero.anchor, -2);

  // No event by t0 at all.
  const source::SourceHistory late = MakeEdgeHistory({
      Captured(4, 3, world::kNever, {{0, 51}}),
      Captured(2, 1, 75, {{0, 70}}),
  });
  SourceProfile silent = LearnSourceProfile(w, late, 50).value();
  EXPECT_TRUE(silent.observed_scope.empty());
  EXPECT_DOUBLE_EQ(silent.update_interval, 1.0);
  EXPECT_EQ(silent.anchor, 50);
}

/// A replayed file can name a subdomain the world does not have; once
/// such a record is seen by t0 it is an error, not an out-of-range index.
TEST(SourceProfileTest, SubdomainOutsideTheWorldIsRejected) {
  const world::World w = testing::MakeTestWorld();
  const source::SourceHistory outside =
      MakeEdgeHistory({Captured(1, 9, world::kNever, {{0, 60}})});
  EXPECT_TRUE(LearnSourceProfile(w, outside, 50).ok());
  const Result<SourceProfile> seen = LearnSourceProfile(w, outside, 60);
  EXPECT_EQ(seen.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(seen.status().message().find("subdomain 9"), std::string::npos)
      << seen.status().ToString();
}

}  // namespace
}  // namespace freshsel::estimation
