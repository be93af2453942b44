#include "io/scenario_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>

#include "obs/metrics.h"
#include "source/source_simulator.h"
#include "testing/test_world.h"
#include "world/world_simulator.h"

namespace freshsel::io {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

void WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path);
  out << contents;
}

TEST(ScenarioIoTest, WorldRoundTrip) {
  world::World original = testing::MakeTestWorld();
  const std::string path = TempPath("world_roundtrip.csv");
  ASSERT_TRUE(WriteWorldCsv(original, path).ok());

  Result<world::World> loaded = ReadWorldCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->entity_count(), original.entity_count());
  EXPECT_EQ(loaded->horizon(), original.horizon());
  EXPECT_EQ(loaded->domain().dim1_name(), "loc");
  EXPECT_EQ(loaded->domain().subdomain_count(),
            original.domain().subdomain_count());
  for (std::size_t i = 0; i < original.entity_count(); ++i) {
    const world::EntityRecord& a = original.entity(i);
    const world::EntityRecord& b = loaded->entity(i);
    EXPECT_EQ(a.subdomain, b.subdomain);
    EXPECT_EQ(a.birth, b.birth);
    EXPECT_EQ(a.death, b.death);
    EXPECT_EQ(a.update_times, b.update_times);
  }
  // The loaded world is finalized: count queries work.
  for (TimePoint t = 0; t <= 100; t += 10) {
    EXPECT_EQ(loaded->TotalCountAt(t), original.TotalCountAt(t));
  }
  std::remove(path.c_str());
}

TEST(ScenarioIoTest, SimulatedWorldRoundTrip) {
  world::DataDomain domain =
      world::DataDomain::Create("loc", 3, "cat", 2).value();
  world::WorldSpec spec{std::move(domain), {}, 120};
  for (int i = 0; i < 6; ++i) spec.rates.push_back({0.5, 0.01, 0.03, 20});
  Rng rng(31);
  world::World original = world::SimulateWorld(spec, rng).value();
  const std::string path = TempPath("world_sim_roundtrip.csv");
  ASSERT_TRUE(WriteWorldCsv(original, path).ok());
  Result<world::World> loaded = ReadWorldCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->entity_count(), original.entity_count());
  EXPECT_EQ(loaded->change_log().size(), original.change_log().size());
  std::remove(path.c_str());
}

TEST(ScenarioIoTest, SourceHistoryRoundTrip) {
  world::World w = testing::MakeTestWorld();
  source::SourceHistory original = testing::MakeTestSource(w, /*period=*/2);
  const std::string path = TempPath("source_roundtrip.csv");
  ASSERT_TRUE(WriteSourceHistoryCsv(original, path).ok());

  Result<source::SourceHistory> loaded = ReadSourceHistoryCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->name(), original.name());
  EXPECT_EQ(loaded->schedule().period, 2);
  EXPECT_EQ(loaded->spec().scope, original.spec().scope);
  EXPECT_EQ(loaded->records().size(), original.records().size());
  EXPECT_EQ(loaded->world_entity_count(), original.world_entity_count());
  for (const source::CaptureRecord& rec : original.records()) {
    const source::CaptureRecord* got = loaded->Find(rec.entity);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->subdomain, rec.subdomain);
    EXPECT_EQ(got->inserted, rec.inserted);
    EXPECT_EQ(got->deleted, rec.deleted);
    EXPECT_EQ(got->version_captures, rec.version_captures);
  }
  std::remove(path.c_str());
}

TEST(ScenarioIoTest, LoadedHistoryBehavesLikeOriginal) {
  world::World w = testing::MakeTestWorld();
  source::SourceHistory original = testing::MakeTestSource(w);
  const std::string path = TempPath("source_behave.csv");
  ASSERT_TRUE(WriteSourceHistoryCsv(original, path).ok());
  source::SourceHistory loaded = ReadSourceHistoryCsv(path).value();
  for (TimePoint t = 0; t <= 100; t += 7) {
    EXPECT_EQ(loaded.ContentCountAt(t), original.ContentCountAt(t));
  }
  std::remove(path.c_str());
}

TEST(ScenarioIoTest, MissingFilesError) {
  EXPECT_EQ(ReadWorldCsv("/nonexistent/nope.csv").status().code(),
            StatusCode::kIoError);
  EXPECT_EQ(ReadSourceHistoryCsv("/nonexistent/nope.csv").status().code(),
            StatusCode::kIoError);
}

TEST(ScenarioIoTest, MalformedWorldFilesRejected) {
  const std::string path = TempPath("bad_world.csv");

  WriteFile(path, "");
  EXPECT_FALSE(ReadWorldCsv(path).ok());

  WriteFile(path, "#wrong,loc,2,cat,2,100\n");
  EXPECT_FALSE(ReadWorldCsv(path).ok());

  WriteFile(path, "#world,loc,2,cat,2,100\nwrong header\n");
  EXPECT_FALSE(ReadWorldCsv(path).ok());

  WriteFile(path,
            "#world,loc,2,cat,2,100\nid,subdomain,birth,death,updates\n"
            "0,1,abc,,\n");
  EXPECT_FALSE(ReadWorldCsv(path).ok());

  WriteFile(path,
            "#world,loc,2,cat,2,100\nid,subdomain,birth,death,updates\n"
            "0,99,0,,\n");  // Subdomain out of range.
  EXPECT_FALSE(ReadWorldCsv(path).ok());
  std::remove(path.c_str());
}

TEST(ScenarioIoTest, MalformedSourceFilesRejected) {
  const std::string path = TempPath("bad_source.csv");

  WriteFile(path, "#source,s,1,0\n");  // Too few header fields.
  EXPECT_FALSE(ReadSourceHistoryCsv(path).ok());

  WriteFile(path, "#source,s,1,0,10\nno scope line\n");
  EXPECT_FALSE(ReadSourceHistoryCsv(path).ok());

  WriteFile(path,
            "#source,s,1,0,10\n#scope,0\n"
            "entity,subdomain,inserted,deleted,captures\n"
            "3,0,5,,0-5\n");  // Bad capture separator.
  EXPECT_FALSE(ReadSourceHistoryCsv(path).ok());
  std::remove(path.c_str());
}

TEST(ScenarioIoTest, EmptyScopeAndNoRecordsRoundTrip) {
  source::SourceSpec spec;
  spec.name = "empty";
  spec.schedule = {3, 1};
  source::SourceHistory original(spec, 5);
  const std::string path = TempPath("empty_source.csv");
  ASSERT_TRUE(WriteSourceHistoryCsv(original, path).ok());
  Result<source::SourceHistory> loaded = ReadSourceHistoryCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->records().empty());
  EXPECT_TRUE(loaded->spec().scope.empty());
  EXPECT_EQ(loaded->schedule().phase, 1);
  std::remove(path.c_str());
}

std::uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name).Value();
}

/// The row counters grow by a file's row count once the file has read in
/// full, blank lines aside, and not at all when a read fails part way.
TEST(ScenarioIoTest, RowCountersAddEachCompleteFileOnce) {
  const world::World w = testing::MakeTestWorld();
  const source::SourceHistory original = testing::MakeTestSource(w);
  const std::string world_path = TempPath("rows_world.csv");
  const std::string source_path = TempPath("rows_source.csv");
  ASSERT_TRUE(WriteWorldCsv(w, world_path).ok());
  ASSERT_TRUE(WriteSourceHistoryCsv(original, source_path).ok());

  std::uint64_t before = CounterValue("io.world_rows.read");
  ASSERT_TRUE(ReadWorldCsv(world_path).ok());
  EXPECT_EQ(CounterValue("io.world_rows.read") - before, w.entity_count());
  before = CounterValue("io.source_rows.read");
  ASSERT_TRUE(ReadSourceHistoryCsv(source_path).ok());
  EXPECT_EQ(CounterValue("io.source_rows.read") - before,
            original.records().size());

  // Three rows, then a blank line that is no row: a never-inserted record
  // still counts, as AddRecord accepts it.
  WriteFile(source_path,
            "#source,s,1,0,10\n#scope,0\n"
            "entity,subdomain,inserted,deleted,captures\n"
            "3,0,5,,0:5\n\n4,0,9223372036854775807,,\n5,0,6,,0:6\n");
  before = CounterValue("io.source_rows.read");
  ASSERT_TRUE(ReadSourceHistoryCsv(source_path).ok());
  EXPECT_EQ(CounterValue("io.source_rows.read") - before, 3u);

  // Failed reads add nothing, not even for the rows before the bad one.
  WriteFile(world_path,
            "#world,loc,2,cat,2,100\nid,subdomain,birth,death,updates\n"
            "0,1,0,,\n1,1,zz,,\n");
  before = CounterValue("io.world_rows.read");
  EXPECT_FALSE(ReadWorldCsv(world_path).ok());
  EXPECT_EQ(CounterValue("io.world_rows.read"), before);
  WriteFile(source_path,
            "#source,s,1,0,10\n#scope,0\n"
            "entity,subdomain,inserted,deleted,captures\n"
            "3,0,5,,0:5\n3,0,6,,0:6\n");
  before = CounterValue("io.source_rows.read");
  EXPECT_FALSE(ReadSourceHistoryCsv(source_path).ok());
  EXPECT_EQ(CounterValue("io.source_rows.read"), before);
  std::remove(world_path.c_str());
  std::remove(source_path.c_str());
}

}  // namespace
}  // namespace freshsel::io
