// Scenario ingest must be invisible to learning: the default BL panel,
// written to disk and read back through serve::IngestScenario, learns
// bit for bit the profiles that the in-memory scenario learns.

#include "serve/ingest.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "estimation/degradation.h"
#include "io/scenario_io.h"
#include "testing/scratch.h"
#include "testing/test_world.h"
#include "workloads/bl_generator.h"

namespace freshsel::serve {
namespace {

std::vector<std::uint64_t> Words(const BitVector& bits) {
  return std::vector<std::uint64_t>(bits.words(),
                                    bits.words() + bits.word_count());
}

TEST(IngestTest, DefaultBlPanelLearnsTheInMemoryProfilesBitForBit) {
  const workloads::BlConfig config;
  const Result<workloads::Scenario> scenario =
      workloads::GenerateBlScenario(config);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();

  testing::ScratchDir dir("ingest_bl");
  ASSERT_TRUE(
      io::WriteWorldCsv(scenario->world, dir.path() + "/world.csv").ok());
  for (std::size_t i = 0; i < scenario->sources.size(); ++i) {
    ASSERT_TRUE(io::WriteSourceHistoryCsv(
                    scenario->sources[i],
                    dir.path() + "/" + StringPrintf("source_%03zu.csv", i))
                    .ok());
  }
  {
    std::ofstream manifest(dir.path() + "/manifest.csv");
    manifest << "t0," << scenario->t0 << "\n";
  }

  const IngestOptions options;
  const Result<ResidentScenario> ingested =
      IngestScenario("bl", dir.path(), options);
  ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
  ASSERT_EQ(ingested->t0, scenario->t0);
  const Result<estimation::RobustProfiles> in_memory =
      estimation::LearnSourceProfilesRobust(scenario->world,
                                            scenario->sources, scenario->t0,
                                            options.degradation_mode);
  ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();

  const std::vector<estimation::SourceProfile>& got = ingested->profiles;
  const std::vector<estimation::SourceProfile>& want = in_memory->profiles;
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const estimation::SourceProfile& a = got[i];
    const estimation::SourceProfile& b = want[i];
    SCOPED_TRACE("source " + b.name);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.observed_scope, b.observed_scope);
    EXPECT_EQ(a.update_interval, b.update_interval);
    EXPECT_EQ(a.anchor, b.anchor);
    EXPECT_EQ(Words(a.sig_t0.up), Words(b.sig_t0.up));
    EXPECT_EQ(Words(a.sig_t0.cov), Words(b.sig_t0.cov));
    EXPECT_EQ(Words(a.sig_t0.all), Words(b.sig_t0.all));
    EXPECT_EQ(a.g_insert.initial(), b.g_insert.initial());
    EXPECT_EQ(a.g_insert.knots(), b.g_insert.knots());
    EXPECT_EQ(a.g_update.initial(), b.g_update.initial());
    EXPECT_EQ(a.g_update.knots(), b.g_update.knots());
    EXPECT_EQ(a.g_delete.initial(), b.g_delete.initial());
    EXPECT_EQ(a.g_delete.knots(), b.g_delete.knots());
  }
}

/// A source whose entity count is not the world's is refused before its
/// entity index is sized from the header.
TEST(IngestTest, SourceEntityCountMustMatchTheWorld) {
  testing::ScratchDir dir("ingest_count");
  const world::World world = testing::MakeTestWorld();
  ASSERT_TRUE(io::WriteWorldCsv(world, dir.path() + "/world.csv").ok());
  {
    std::ofstream source(dir.path() + "/source_000.csv");
    source << "#source,s,1,0,4000000000\n#scope,0\n"
              "entity,subdomain,inserted,deleted,captures\n";
  }
  const Result<ScenarioDirData> data =
      ReadScenarioDir(dir.path(), fault::RetryPolicy());
  ASSERT_FALSE(data.ok());
  EXPECT_EQ(data.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(data.status().message().find(
                "source entity count 4000000000 differs from the world's 6"),
            std::string::npos)
      << data.status().ToString();
}

}  // namespace
}  // namespace freshsel::serve
