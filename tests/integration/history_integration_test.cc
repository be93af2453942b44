#include "integration/history_integration.h"

#include <gtest/gtest.h>

#include "source/source_simulator.h"
#include "testing/test_world.h"
#include "world/world_simulator.h"

namespace freshsel::integration {
namespace {

TEST(HistoryIntegrationTest, ReconstructsFromHandBuiltSource) {
  world::World w = testing::MakeTestWorld();
  source::SourceHistory s = testing::MakeTestSource(w);
  world::DataDomain domain =
      world::DataDomain::Create("loc", 2, "cat", 2).value();
  ReconstructionResult result =
      ReconstructWorld(domain, {&s}, 100, w.entity_count()).value();

  // The source mentions entities 0, 1, 2 only.
  EXPECT_EQ(result.world.entity_count(), 3u);
  EXPECT_EQ(result.to_original.size(), 3u);
  EXPECT_EQ(result.from_original[0], 0);
  EXPECT_EQ(result.from_original[3], -1);

  // Entity 0: first mention day 2, updates learned at 12 and 35, deleted
  // by its only source at 55.
  const world::EntityRecord& e0 = result.world.entity(0);
  EXPECT_EQ(e0.birth, 2);
  EXPECT_EQ(e0.update_times, (std::vector<TimePoint>{12, 35}));
  EXPECT_EQ(e0.death, 55);

  // Entity 1 is never deleted anywhere: alive.
  const world::EntityRecord& e1 =
      result.world.entity(result.from_original[1]);
  EXPECT_EQ(e1.death, world::kNever);
}

TEST(HistoryIntegrationTest, EarliestMentionAcrossSourcesWins) {
  world::World w = testing::MakeTestWorld();
  source::SourceHistory late = testing::MakeTestSource(w);

  // A second source that saw entity 0 earlier (day 1) and deleted at 52.
  source::SourceSpec spec;
  spec.name = "early";
  source::SourceHistory early(spec, w.entity_count());
  source::CaptureRecord rec;
  rec.entity = 0;
  rec.subdomain = 0;
  rec.inserted = 1;
  rec.deleted = 52;
  ASSERT_TRUE(early.AddRecord(rec, {{0, 1}, {1, 11}}).ok());

  world::DataDomain domain =
      world::DataDomain::Create("loc", 2, "cat", 2).value();
  ReconstructionResult result =
      ReconstructWorld(domain, {&late, &early}, 100, w.entity_count())
          .value();
  const world::EntityRecord& e0 =
      result.world.entity(result.from_original[0]);
  EXPECT_EQ(e0.birth, 1);                       // Earliest mention.
  EXPECT_EQ(e0.update_times.front(), 11);       // Earliest v1 capture.
  EXPECT_EQ(e0.death, 55);                      // Latest deletion.
}

TEST(HistoryIntegrationTest, AliveWhileAnySourceStillCarries) {
  world::World w = testing::MakeTestWorld();
  // The test source never deletes entity 2 -> entity 2 stays alive even
  // though a second source deleted it.
  source::SourceHistory keeper = testing::MakeTestSource(w);
  source::SourceSpec spec;
  source::SourceHistory deleter(spec, w.entity_count());
  source::CaptureRecord rec;
  rec.entity = 2;
  rec.subdomain = 1;
  rec.inserted = 10;
  rec.deleted = 85;
  ASSERT_TRUE(deleter.AddRecord(rec, {{0, 10}}).ok());

  world::DataDomain domain =
      world::DataDomain::Create("loc", 2, "cat", 2).value();
  ReconstructionResult result =
      ReconstructWorld(domain, {&keeper, &deleter}, 100, w.entity_count())
          .value();
  const world::EntityRecord& e2 =
      result.world.entity(result.from_original[2]);
  EXPECT_EQ(e2.death, world::kNever);
}

TEST(HistoryIntegrationTest, RejectsOutOfRangeIds) {
  world::World w = testing::MakeTestWorld();
  source::SourceHistory s = testing::MakeTestSource(w);
  world::DataDomain domain =
      world::DataDomain::Create("loc", 2, "cat", 2).value();
  EXPECT_FALSE(ReconstructWorld(domain, {&s}, 100, 1).ok());
}

TEST(HistoryIntegrationTest, ReconstructionTracksSimulatedWorldCounts) {
  // End-to-end: simulate a world and several good sources, reconstruct, and
  // compare population curves (the paper's gold-standard validation).
  world::DataDomain domain =
      world::DataDomain::Create("loc", 2, "cat", 2).value();
  world::WorldSpec spec{domain, {}, 300};
  for (int i = 0; i < 4; ++i) spec.rates.push_back({1.0, 0.005, 0.01, 100});
  Rng rng(17);
  world::World w = world::SimulateWorld(spec, rng).value();

  std::vector<source::SourceSpec> source_specs;
  for (int i = 0; i < 3; ++i) {
    source::SourceSpec s;
    s.name = "s" + std::to_string(i);
    s.scope = {0, 1, 2, 3};
    s.schedule = {1, 0};
    s.insert_capture = {0.02, 2.0};
    s.update_capture = {0.05, 3.0};
    s.delete_capture = {0.01, 3.0};
    s.initial_awareness = 0.95;
    source_specs.push_back(s);
  }
  std::vector<source::SourceHistory> histories =
      source::SimulateSources(w, source_specs, rng).value();
  std::vector<const source::SourceHistory*> ptrs;
  for (const auto& h : histories) ptrs.push_back(&h);

  ReconstructionResult result =
      ReconstructWorld(w.domain(), ptrs, 300, w.entity_count()).value();

  // Nearly every entity should be mentioned by someone.
  EXPECT_GT(static_cast<double>(result.world.entity_count()),
            0.9 * static_cast<double>(w.entity_count()));
  // Population curves should track within ~10% through the window.
  for (TimePoint t = 50; t <= 300; t += 50) {
    const double truth = static_cast<double>(w.TotalCountAt(t));
    const double recon = static_cast<double>(result.world.TotalCountAt(t));
    EXPECT_NEAR(recon / truth, 1.0, 0.12) << "t=" << t;
  }
}

}  // namespace
}  // namespace freshsel::integration
