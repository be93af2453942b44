#include "estimation/degradation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "estimation/source_profile.h"
#include "obs/metrics.h"
#include "testing/test_world.h"

namespace freshsel::estimation {
namespace {

constexpr TimePoint kT0 = 70;

/// A source with a declared scope but no capture at all: unfittable.
source::SourceHistory MakeDeadSource(const world::World& w, std::string name,
                                     std::vector<world::SubdomainId> scope) {
  source::SourceSpec spec;
  spec.name = std::move(name);
  spec.scope = std::move(scope);
  spec.schedule = {1, 0};
  return source::SourceHistory(spec, w.entity_count());
}

/// A fitted source confined to subdomain 3: carries entity 4 (born 25,
/// update at 45) with real capture events before kT0.
source::SourceHistory MakeSub3Source(const world::World& w) {
  source::SourceSpec spec;
  spec.name = "sub3-source";
  spec.scope = {3};
  spec.schedule = {1, 0};
  source::SourceHistory history(spec, w.entity_count());
  source::CaptureRecord rec;
  rec.entity = 4;
  rec.subdomain = 3;
  rec.inserted = 26;
  rec.deleted = world::kNever;
  rec.version_captures = {{0, 26}, {1, 47}};
  EXPECT_TRUE(history.AddRecord(std::move(rec)).ok());
  return history;
}

TEST(FitStatsTest, FittedSourceReportsEvents) {
  const world::World w = testing::MakeTestWorld();
  SourceProfileFitStats stats;
  const Result<SourceProfile> profile =
      LearnSourceProfile(w, testing::MakeTestSource(w), kT0, &stats);
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_GT(stats.insert_samples, 0u);
  EXPECT_GT(stats.insert_events, 0u);
  EXPECT_GT(stats.update_events, 0u);
  EXPECT_GT(stats.delete_events, 0u);
  EXPECT_EQ(stats.total_samples(), stats.insert_samples +
                                       stats.update_samples +
                                       stats.delete_samples);
  EXPECT_TRUE(stats.fittable());
}

TEST(FitStatsTest, DeadSourceIsUnfittable) {
  const world::World w = testing::MakeTestWorld();
  SourceProfileFitStats stats;
  const Result<SourceProfile> profile = LearnSourceProfile(
      w, MakeDeadSource(w, "dead", {0, 1}), kT0, &stats);
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(stats.total_events(), 0u);
  EXPECT_FALSE(stats.fittable());
  // No observed scope, zero-effectiveness distributions.
  EXPECT_TRUE(profile->observed_scope.empty());
  EXPECT_DOUBLE_EQ(profile->g_insert.FinalValue(), 0.0);
}

TEST(FitStatsTest, NullStatsPointerIsAccepted) {
  const world::World w = testing::MakeTestWorld();
  EXPECT_TRUE(
      LearnSourceProfile(w, testing::MakeTestSource(w), kT0, nullptr).ok());
}

TEST(AverageStepFunctionsTest, EmptyInputIsZero) {
  const stats::StepFunction averaged = AverageStepFunctions({});
  EXPECT_DOUBLE_EQ(averaged.Evaluate(10.0), 0.0);
  EXPECT_DOUBLE_EQ(averaged.FinalValue(), 0.0);
}

TEST(AverageStepFunctionsTest, SingleFunctionIsIdentityPointwise) {
  const stats::StepFunction fn =
      stats::StepFunction::FromKnots({{1.0, 0.25}, {4.0, 0.75}}).value();
  const stats::StepFunction averaged = AverageStepFunctions({&fn});
  for (double x : {-1.0, 0.0, 0.5, 1.0, 2.0, 4.0, 100.0}) {
    EXPECT_DOUBLE_EQ(averaged.Evaluate(x), fn.Evaluate(x)) << "x=" << x;
  }
}

TEST(AverageStepFunctionsTest, AveragesOverUnionOfKnots) {
  const stats::StepFunction a =
      stats::StepFunction::FromKnots({{1.0, 0.5}, {3.0, 1.0}}).value();
  const stats::StepFunction b =
      stats::StepFunction::FromKnots({{2.0, 0.4}}).value();
  const stats::StepFunction averaged = AverageStepFunctions({&a, &b});
  EXPECT_DOUBLE_EQ(averaged.Evaluate(0.5), 0.0);
  EXPECT_DOUBLE_EQ(averaged.Evaluate(1.0), 0.25);  // (0.5 + 0) / 2.
  EXPECT_DOUBLE_EQ(averaged.Evaluate(2.0), 0.45);  // (0.5 + 0.4) / 2.
  EXPECT_DOUBLE_EQ(averaged.Evaluate(3.5), 0.7);   // (1.0 + 0.4) / 2.
  EXPECT_DOUBLE_EQ(averaged.FinalValue(), 0.7);
}

TEST(AverageStepFunctionsTest, ConstantPeersAverageToConstant) {
  const stats::StepFunction zero = stats::StepFunction::Constant(0.0);
  const stats::StepFunction one = stats::StepFunction::Constant(1.0);
  const stats::StepFunction averaged = AverageStepFunctions({&zero, &one});
  EXPECT_DOUBLE_EQ(averaged.Evaluate(5.0), 0.5);
}

TEST(MakePriorProfileTest, NoPeersRetainsZeroProfileWithDailyInterval) {
  const world::World w = testing::MakeTestWorld();
  const SourceProfile raw =
      LearnSourceProfile(w, MakeDeadSource(w, "dead", {2, 0}), kT0).value();
  const SourceProfile prior = MakePriorProfile(raw, {2, 0}, {}, kT0);
  EXPECT_EQ(prior.name, "dead");
  EXPECT_EQ(prior.observed_scope,
            (std::vector<world::SubdomainId>{0, 2}));  // Sorted.
  EXPECT_EQ(prior.anchor, kT0);
  EXPECT_DOUBLE_EQ(prior.update_interval, 1.0);
  EXPECT_DOUBLE_EQ(prior.g_insert.FinalValue(), 0.0);
}

TEST(MakePriorProfileTest, PeersContributeAveragedDistributions) {
  const world::World w = testing::MakeTestWorld();
  const SourceProfile peer1 =
      LearnSourceProfile(w, testing::MakeTestSource(w), kT0).value();
  const SourceProfile peer2 =
      LearnSourceProfile(w, MakeSub3Source(w), kT0).value();
  const SourceProfile raw =
      LearnSourceProfile(w, MakeDeadSource(w, "dead", {1}), kT0).value();
  const SourceProfile prior =
      MakePriorProfile(raw, {1}, {&peer1, &peer2}, kT0);
  EXPECT_EQ(prior.anchor, kT0);
  EXPECT_DOUBLE_EQ(
      prior.update_interval,
      (peer1.update_interval + peer2.update_interval) / 2.0);
  for (double x : {0.0, 1.0, 5.0, 20.0, 60.0}) {
    EXPECT_DOUBLE_EQ(
        prior.g_insert.Evaluate(x),
        (peer1.g_insert.Evaluate(x) + peer2.g_insert.Evaluate(x)) / 2.0)
        << "x=" << x;
    EXPECT_DOUBLE_EQ(
        prior.g_update.Evaluate(x),
        (peer1.g_update.Evaluate(x) + peer2.g_update.Evaluate(x)) / 2.0)
        << "x=" << x;
  }
  // Signatures carry over from the raw learn (they are fit-independent).
  EXPECT_EQ(prior.sig_t0.up.Count(), raw.sig_t0.up.Count());
  EXPECT_EQ(prior.sig_t0.all.Count(), raw.sig_t0.all.Count());
}

TEST(RobustLearnTest, AllFittableRosterIsUntouched) {
  const world::World w = testing::MakeTestWorld();
  const std::vector<source::SourceHistory> histories = {
      testing::MakeTestSource(w), MakeSub3Source(w)};
  const Result<RobustProfiles> robust = LearnSourceProfilesRobust(
      w, histories, kT0, DegradationMode::kDegrade);
  ASSERT_TRUE(robust.ok()) << robust.status().ToString();
  EXPECT_FALSE(robust->report.any());
  EXPECT_EQ(robust->report.total_sources, 2u);
  const std::vector<SourceProfile> plain =
      LearnSourceProfiles(w, histories, kT0).value();
  ASSERT_EQ(robust->profiles.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(robust->profiles[i].g_update.knots(),
              plain[i].g_update.knots());
    EXPECT_EQ(robust->profiles[i].anchor, plain[i].anchor);
  }
}

TEST(RobustLearnTest, StrictModeNamesEveryOffender) {
  const world::World w = testing::MakeTestWorld();
  const std::vector<source::SourceHistory> histories = {
      testing::MakeTestSource(w), MakeDeadSource(w, "dead-a", {0}),
      MakeDeadSource(w, "dead-b", {1})};
  const Result<RobustProfiles> robust = LearnSourceProfilesRobust(
      w, histories, kT0, DegradationMode::kStrict);
  ASSERT_FALSE(robust.ok());
  EXPECT_EQ(robust.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(robust.status().message().find("dead-a"), std::string::npos);
  EXPECT_NE(robust.status().message().find("dead-b"), std::string::npos);
}

TEST(RobustLearnTest, DegradeModeSubstitutesAndReports) {
  const world::World w = testing::MakeTestWorld();
  obs::MetricsRegistry::Global().ResetAll();
  const std::vector<source::SourceHistory> histories = {
      testing::MakeTestSource(w), MakeDeadSource(w, "dead", {0, 1})};
  const Result<RobustProfiles> robust = LearnSourceProfilesRobust(
      w, histories, kT0, DegradationMode::kDegrade);
  ASSERT_TRUE(robust.ok()) << robust.status().ToString();
  ASSERT_EQ(robust->report.degraded.size(), 1u);
  EXPECT_EQ(robust->report.degraded[0].index, 1u);
  EXPECT_EQ(robust->report.degraded[0].name, "dead");
  EXPECT_NE(robust->report.degraded[0].reason.find("subdomain-prior"),
            std::string::npos);
  // The substituted profile equals the manual prior built from the one
  // fitted peer.
  const SourceProfile peer =
      LearnSourceProfile(w, histories[0], kT0).value();
  const SourceProfile raw =
      LearnSourceProfile(w, histories[1], kT0).value();
  const SourceProfile expected =
      MakePriorProfile(raw, {0, 1}, {&peer}, kT0);
  EXPECT_EQ(robust->profiles[1].observed_scope, expected.observed_scope);
  EXPECT_DOUBLE_EQ(robust->profiles[1].update_interval,
                   expected.update_interval);
  EXPECT_EQ(robust->profiles[1].g_insert.knots(), expected.g_insert.knots());
  EXPECT_EQ(robust->profiles[1].g_update.knots(), expected.g_update.knots());
  EXPECT_EQ(robust->profiles[1].g_delete.knots(), expected.g_delete.knots());
  // The fitted source is untouched.
  EXPECT_EQ(robust->profiles[0].g_update.knots(), peer.g_update.knots());
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().TakeSnapshot();
  EXPECT_EQ(snapshot.counters.at("estimation.degraded.sources"), 1u);
}

TEST(RobustLearnTest, PeersRestrictedToOverlappingScope) {
  const world::World w = testing::MakeTestWorld();
  // Peer A observes subdomains {0, 1}; peer B observes {3}. A dead source
  // declared in {3} must inherit B's distributions alone.
  const std::vector<source::SourceHistory> histories = {
      testing::MakeTestSource(w), MakeSub3Source(w),
      MakeDeadSource(w, "dead-sub3", {3})};
  const Result<RobustProfiles> robust = LearnSourceProfilesRobust(
      w, histories, kT0, DegradationMode::kDegrade);
  ASSERT_TRUE(robust.ok()) << robust.status().ToString();
  const SourceProfile peer_b = LearnSourceProfile(w, histories[1], kT0).value();
  EXPECT_EQ(robust->profiles[2].g_insert.knots(), peer_b.g_insert.knots());
  EXPECT_DOUBLE_EQ(robust->profiles[2].update_interval,
                   peer_b.update_interval);
}

TEST(RobustLearnTest, NoOverlapFallsBackToAllFittedPeers) {
  const world::World w = testing::MakeTestWorld();
  // Declared scope {2} overlaps no fitted peer (A observes {0,1}, B {3}),
  // so the prior averages both.
  const std::vector<source::SourceHistory> histories = {
      testing::MakeTestSource(w), MakeSub3Source(w),
      MakeDeadSource(w, "dead-sub2", {2})};
  const Result<RobustProfiles> robust = LearnSourceProfilesRobust(
      w, histories, kT0, DegradationMode::kDegrade);
  ASSERT_TRUE(robust.ok()) << robust.status().ToString();
  const SourceProfile peer_a = LearnSourceProfile(w, histories[0], kT0).value();
  const SourceProfile peer_b = LearnSourceProfile(w, histories[1], kT0).value();
  EXPECT_DOUBLE_EQ(
      robust->profiles[2].update_interval,
      (peer_a.update_interval + peer_b.update_interval) / 2.0);
  for (double x : {1.0, 10.0, 50.0}) {
    EXPECT_DOUBLE_EQ(
        robust->profiles[2].g_insert.Evaluate(x),
        (peer_a.g_insert.Evaluate(x) + peer_b.g_insert.Evaluate(x)) / 2.0);
  }
}

TEST(RobustLearnTest, AllUnfittableRosterKeepsZeroProfiles) {
  const world::World w = testing::MakeTestWorld();
  const std::vector<source::SourceHistory> histories = {
      MakeDeadSource(w, "dead-a", {0}), MakeDeadSource(w, "dead-b", {1})};
  const Result<RobustProfiles> robust = LearnSourceProfilesRobust(
      w, histories, kT0, DegradationMode::kDegrade);
  ASSERT_TRUE(robust.ok()) << robust.status().ToString();
  EXPECT_EQ(robust->report.degraded.size(), 2u);
  for (const DegradedSource& degraded : robust->report.degraded) {
    EXPECT_NE(degraded.reason.find("no fitted peers"), std::string::npos)
        << degraded.reason;
  }
  for (const SourceProfile& profile : robust->profiles) {
    EXPECT_DOUBLE_EQ(profile.g_insert.FinalValue(), 0.0);
    EXPECT_DOUBLE_EQ(profile.update_interval, 1.0);
    EXPECT_EQ(profile.anchor, kT0);
  }
}

TEST(RobustLearnTest, ModeNames) {
  EXPECT_STREQ(DegradationModeName(DegradationMode::kStrict), "strict");
  EXPECT_STREQ(DegradationModeName(DegradationMode::kDegrade), "degrade");
}

}  // namespace
}  // namespace freshsel::estimation
