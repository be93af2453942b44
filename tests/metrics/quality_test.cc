#include "metrics/quality.h"

#include <cstdint>
#include <gtest/gtest.h>

#include "source/source_simulator.h"
#include "testing/test_world.h"
#include "world/world_simulator.h"

namespace freshsel::metrics {
namespace {

TEST(MetricsFromCountsTest, FormulasMatchDefinitions) {
  // 10 world entities; result holds 6 of which 5 covered and 3 up-to-date.
  QualityCounts counts{3, 5, 6, 10};
  QualityMetrics m = MetricsFromCounts(counts);
  EXPECT_DOUBLE_EQ(m.coverage, 0.5);          // Eq. 1.
  EXPECT_DOUBLE_EQ(m.local_freshness, 0.5);   // Eq. 2: 3/6.
  EXPECT_DOUBLE_EQ(m.global_freshness, 0.3);  // Eq. 3.
  // |F u Omega| = 10 + (6 - 5) = 11 -> accuracy 3/11 (Eq. 4).
  EXPECT_DOUBLE_EQ(m.accuracy, 3.0 / 11.0);
}

TEST(MetricsFromCountsTest, AccuracyEquationFiveEquivalence) {
  // Eq. 5: Acc = GF / (1 - Cov + GF/LF). Verify against the count form.
  QualityCounts counts{4, 7, 9, 20};
  QualityMetrics m = MetricsFromCounts(counts);
  const double eq5 = m.global_freshness /
                     (1.0 - m.coverage +
                      m.global_freshness / m.local_freshness);
  EXPECT_NEAR(m.accuracy, eq5, 1e-12);
}

TEST(MetricsFromCountsTest, DegenerateDenominators) {
  QualityMetrics empty = MetricsFromCounts({0, 0, 0, 0});
  EXPECT_DOUBLE_EQ(empty.coverage, 0.0);
  EXPECT_DOUBLE_EQ(empty.local_freshness, 0.0);
  EXPECT_DOUBLE_EQ(empty.accuracy, 0.0);

  QualityMetrics no_world = MetricsFromCounts({2, 0, 3, 0});
  EXPECT_DOUBLE_EQ(no_world.coverage, 0.0);
  EXPECT_DOUBLE_EQ(no_world.local_freshness, 2.0 / 3.0);
}

TEST(ComputeCountsTest, HandBuiltScenario) {
  world::World w = testing::MakeTestWorld();
  source::SourceHistory s = testing::MakeTestSource(w);

  // Day 11: source holds {0 (out: world v1, source v0), 1 (up), 2 (up)}.
  // World at day 11: entities 0, 1, 2 alive (3 of 6; entity 3 born at 15).
  QualityCounts counts = ComputeCounts(w, {&s}, 11);
  EXPECT_EQ(counts.up, 2);
  EXPECT_EQ(counts.covered, 3);
  EXPECT_EQ(counts.in_result, 3);
  EXPECT_EQ(counts.world_total, 3);

  // Day 52: entity 0 dead in world (50) but still in source -> ghost.
  counts = ComputeCounts(w, {&s}, 52);
  EXPECT_EQ(counts.in_result, 3);
  EXPECT_EQ(counts.covered, 2);
}

TEST(ComputeCountsTest, UnionAcrossSources) {
  world::World w = testing::MakeTestWorld();
  source::SourceHistory s1 = testing::MakeTestSource(w);

  // A second source carrying only entity 3 (subdomain 2), up to date.
  source::SourceSpec spec;
  spec.name = "s2";
  spec.scope = {2};
  source::SourceHistory s2(spec, w.entity_count());
  source::CaptureRecord rec;
  rec.entity = 3;
  rec.subdomain = 2;
  rec.inserted = 15;
  ASSERT_TRUE(s2.AddRecord(rec, {{0, 15}, {1, 40}, {2, 60}}).ok());

  QualityCounts single = ComputeCounts(w, {&s1}, 45);
  QualityCounts both = ComputeCounts(w, {&s1, &s2}, 45);
  EXPECT_EQ(both.in_result, single.in_result + 1);
  EXPECT_EQ(both.up, single.up + 1);
  EXPECT_EQ(both.world_total, single.world_total);
}

TEST(ComputeCountsTest, MaskRestrictsCounts) {
  world::World w = testing::MakeTestWorld();
  source::SourceHistory s = testing::MakeTestSource(w);
  BitVector mask = integration::DomainMask(w, {0});
  const std::int64_t world_in_mask = w.CountAtIn({0}, 11);
  QualityCounts counts = ComputeCounts(w, {&s}, 11, &mask, world_in_mask);
  // Only entities 0, 1 (subdomain 0) counted; entity 2 excluded.
  EXPECT_EQ(counts.in_result, 2);
  EXPECT_EQ(counts.covered, 2);
  EXPECT_EQ(counts.up, 1);
  EXPECT_EQ(counts.world_total, 2);
}

TEST(CountsFromSignaturesTest, MatchesComputeCounts) {
  world::World w = testing::MakeTestWorld();
  source::SourceHistory s = testing::MakeTestSource(w);
  integration::SourceSignatures sig =
      integration::BuildSignatures(w, s, 30);
  QualityCounts from_sig =
      CountsFromSignatures({&sig}, w.TotalCountAt(30));
  QualityCounts direct = ComputeCounts(w, {&s}, 30);
  EXPECT_EQ(from_sig.up, direct.up);
  EXPECT_EQ(from_sig.covered, direct.covered);
  EXPECT_EQ(from_sig.in_result, direct.in_result);
}

TEST(CoverageMonotonicityProperty, CoverageNeverDropsWhenAddingSources) {
  // Simulated world + several random sources; coverage of a union must be
  // monotone in the source set (the paper's Example 5 behaviour).
  world::DataDomain domain =
      world::DataDomain::Create("loc", 2, "cat", 2).value();
  world::WorldSpec spec{domain, {}, 200};
  for (int i = 0; i < 4; ++i) spec.rates.push_back({0.5, 0.01, 0.02, 50});
  Rng rng(23);
  world::World w = world::SimulateWorld(spec, rng).value();

  std::vector<source::SourceSpec> specs;
  for (int i = 0; i < 4; ++i) {
    source::SourceSpec s;
    s.name = "s" + std::to_string(i);
    s.scope = {0, 1, 2, 3};
    s.schedule = {1 + i, 0};
    s.insert_capture = {0.1 * i, 5.0 + 3.0 * i};
    s.update_capture = {0.1, 6.0};
    s.delete_capture = {0.1, 8.0};
    s.initial_awareness = 0.4 + 0.1 * i;
    specs.push_back(s);
  }
  std::vector<source::SourceHistory> histories =
      source::SimulateSources(w, specs, rng).value();

  for (TimePoint t : {50, 100, 150}) {
    double prev_cov = 0.0;
    std::vector<const source::SourceHistory*> set;
    for (const auto& h : histories) {
      set.push_back(&h);
      QualityMetrics m = MetricsFromCounts(ComputeCounts(w, set, t));
      EXPECT_GE(m.coverage, prev_cov - 1e-12);
      prev_cov = m.coverage;
    }
  }
}

TEST(SourceQualityAtTest, PerfectSourceHasPerfectQuality) {
  world::DataDomain domain =
      world::DataDomain::Create("loc", 1, "cat", 1).value();
  world::WorldSpec spec{domain, {{1.0, 0.01, 0.02, 50}}, 100};
  Rng rng(29);
  world::World w = world::SimulateWorld(spec, rng).value();
  source::SourceSpec s;
  s.name = "perfect";
  s.scope = {0};
  s.schedule = {1, 0};
  s.insert_capture = {0.0, 0.0};
  s.update_capture = {0.0, 0.0};
  s.delete_capture = {0.0, 0.0};
  s.initial_awareness = 1.0;
  source::SourceHistory h = source::SimulateSource(w, s, rng).value();
  QualityMetrics m = SourceQualityAt(w, h, 60);
  EXPECT_DOUBLE_EQ(m.coverage, 1.0);
  EXPECT_DOUBLE_EQ(m.local_freshness, 1.0);
  EXPECT_DOUBLE_EQ(m.accuracy, 1.0);
}

TEST(InsertionDelayStatsTest, PerfectSourceHasZeroDelay) {
  world::World w = testing::MakeTestWorld();
  // Hand-built source captured entity 5? No - it only carries 0,1,2.
  source::SourceHistory s = testing::MakeTestSource(w);
  // Window (0, 100]: births at 5 (e2), 15 (e3), 25 (e4), 60 (e5). In the
  // source scope {0, 1}: e2 (sub 1, born 5, captured day 8, delay 3) and
  // e5 (sub 0, born 60, never captured).
  DelayStats stats = InsertionDelayStats(w, s, TimeWindow{0, 100}, 10.0);
  EXPECT_EQ(stats.observed, 2);
  EXPECT_DOUBLE_EQ(stats.mean_delay, 3.0);
  EXPECT_DOUBLE_EQ(stats.delayed_fraction, 0.5);  // e5 never captured.
}

TEST(AverageLocalFreshnessTest, PerfectSourceIsFullyFresh) {
  world::DataDomain domain =
      world::DataDomain::Create("loc", 1, "cat", 1).value();
  world::WorldSpec spec{domain, {{0.5, 0.01, 0.05, 30}}, 100};
  Rng rng(31);
  world::World w = world::SimulateWorld(spec, rng).value();
  source::SourceSpec s;
  s.name = "perfect";
  s.scope = {0};
  s.schedule = {1, 0};
  s.insert_capture = {0.0, 0.0};
  s.update_capture = {0.0, 0.0};
  s.delete_capture = {0.0, 0.0};
  source::SourceHistory h = source::SimulateSource(w, s, rng).value();
  EXPECT_NEAR(AverageLocalFreshness(w, h, TimeWindow{0, 100}), 1.0, 1e-12);
}

}  // namespace
}  // namespace freshsel::metrics
