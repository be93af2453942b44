// Property / fuzz sweep for io/scenario_io: every malformed input must be
// rejected with a Status — never a crash, hang, or leak (the CI sanitizer
// jobs run this suite under ASan/UBSan/TSan). The mutator is seeded, so a
// failing corpus entry reproduces from its (seed, iteration) pair printed
// on failure. Every input, mutated or directed, must also read exactly as
// the line-by-line reference reader (reference_scenario_reader.h) reads
// it: the same status code and message, or the same entities and records.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "io/reference_scenario_reader.h"
#include "io/scenario_io.h"
#include "testing/test_world.h"

namespace freshsel::io {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path);
  out << contents;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// A well-formed world CSV to mutate.
std::string BaseWorldCsv() {
  const std::string path = TempPath("fuzz_base_world.csv");
  const world::World base = testing::MakeTestWorld();
  EXPECT_TRUE(WriteWorldCsv(base, path).ok());
  const std::string text = ReadFile(path);
  std::remove(path.c_str());
  return text;
}

/// A well-formed source CSV to mutate.
std::string BaseSourceCsv() {
  const std::string path = TempPath("fuzz_base_source.csv");
  const world::World base = testing::MakeTestWorld();
  EXPECT_TRUE(
      WriteSourceHistoryCsv(testing::MakeTestSource(base), path).ok());
  const std::string text = ReadFile(path);
  std::remove(path.c_str());
  return text;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string line;
  std::istringstream in(text);
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string JoinLines(const std::vector<std::string>& lines) {
  std::string joined;
  for (const std::string& line : lines) {
    joined += line;
    joined += '\n';
  }
  return joined;
}

/// Checks that `got` is what the reference reader made of the same file:
/// the same error, or the same world entity by entity.
void ExpectSameWorld(const Result<world::World>& got,
                     const Result<world::World>& want,
                     const std::string& context) {
  ASSERT_EQ(got.ok(), want.ok())
      << context << ": got " << got.status().ToString() << ", reference "
      << want.status().ToString();
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << context;
    EXPECT_EQ(got.status().message(), want.status().message()) << context;
    return;
  }
  EXPECT_EQ(got->horizon(), want->horizon()) << context;
  EXPECT_EQ(got->domain().dim1_name(), want->domain().dim1_name()) << context;
  EXPECT_EQ(got->domain().dim1_size(), want->domain().dim1_size()) << context;
  EXPECT_EQ(got->domain().dim2_name(), want->domain().dim2_name()) << context;
  EXPECT_EQ(got->domain().dim2_size(), want->domain().dim2_size()) << context;
  ASSERT_EQ(got->entity_count(), want->entity_count()) << context;
  for (std::size_t i = 0; i < want->entity_count(); ++i) {
    const world::EntityRecord& a = got->entity(i);
    const world::EntityRecord& b = want->entity(i);
    EXPECT_EQ(a.id, b.id) << context << " entity " << i;
    EXPECT_EQ(a.subdomain, b.subdomain) << context << " entity " << i;
    EXPECT_EQ(a.birth, b.birth) << context << " entity " << i;
    EXPECT_EQ(a.death, b.death) << context << " entity " << i;
    EXPECT_EQ(a.update_times, b.update_times) << context << " entity " << i;
  }
}

/// As ExpectSameWorld, for source histories: the same error, or the same
/// spec and the same capture records in the same order.
void ExpectSameSource(const Result<source::SourceHistory>& got,
                      const Result<source::SourceHistory>& want,
                      const std::string& context) {
  ASSERT_EQ(got.ok(), want.ok())
      << context << ": got " << got.status().ToString() << ", reference "
      << want.status().ToString();
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << context;
    EXPECT_EQ(got.status().message(), want.status().message()) << context;
    return;
  }
  EXPECT_EQ(got->name(), want->name()) << context;
  EXPECT_EQ(got->schedule().period, want->schedule().period) << context;
  EXPECT_EQ(got->schedule().phase, want->schedule().phase) << context;
  EXPECT_EQ(got->spec().scope, want->spec().scope) << context;
  EXPECT_EQ(got->world_entity_count(), want->world_entity_count())
      << context;
  ASSERT_EQ(got->records().size(), want->records().size()) << context;
  for (std::size_t i = 0; i < want->records().size(); ++i) {
    const source::CaptureRecord& a = got->records()[i];
    const source::CaptureRecord& b = want->records()[i];
    EXPECT_EQ(a.entity, b.entity) << context << " record " << i;
    EXPECT_EQ(a.subdomain, b.subdomain) << context << " record " << i;
    EXPECT_EQ(a.inserted, b.inserted) << context << " record " << i;
    EXPECT_EQ(a.deleted, b.deleted) << context << " record " << i;
    EXPECT_EQ(testing::CapturesOf(*got, a), testing::CapturesOf(*want, b))
        << context << " record " << i;
  }
}

/// One seeded random corruption of `text`. Covers the malformed-input
/// classes called out in DESIGN.md §11: truncation mid-row, non-numeric
/// fields, duplicated rows (duplicate entity ids), shuffled row order
/// (out-of-order ids / timestamps), deleted lines, injected garbage bytes,
/// stray separators and line breaks, and full emptying.
std::string Mutate(const std::string& text, Rng& rng) {
  std::vector<std::string> lines = SplitLines(text);
  switch (rng.NextBounded(8)) {
    case 0: {  // Truncate at an arbitrary byte (often mid-row).
      if (text.empty()) return text;
      return text.substr(0, rng.NextBounded(text.size()));
    }
    case 1: {  // Corrupt one byte into a non-numeric character.
      std::string mutated = text;
      if (mutated.empty()) return mutated;
      mutated[rng.NextBounded(mutated.size())] =
          static_cast<char>('a' + rng.NextBounded(26));
      return mutated;
    }
    case 2: {  // Duplicate a random line (duplicate entity ids).
      if (lines.empty()) return text;
      const std::size_t at = rng.NextBounded(lines.size());
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                   lines[at]);
      return JoinLines(lines);
    }
    case 3: {  // Swap two lines (out-of-order rows / headers).
      if (lines.size() < 2) return text;
      const std::size_t a = rng.NextBounded(lines.size());
      const std::size_t b = rng.NextBounded(lines.size());
      std::swap(lines[a], lines[b]);
      return JoinLines(lines);
    }
    case 4: {  // Drop a random line (missing header / truncated table).
      if (lines.empty()) return text;
      lines.erase(lines.begin() +
                  static_cast<std::ptrdiff_t>(rng.NextBounded(lines.size())));
      return JoinLines(lines);
    }
    case 5: {  // Inject a garbage line at a random position.
      const std::size_t at = rng.NextBounded(lines.size() + 1);
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                   "####,garbage,|,::,");
      return JoinLines(lines);
    }
    case 6: {  // Overwrite one byte with a separator or a line break.
      std::string mutated = text;
      if (mutated.empty()) return mutated;
      constexpr char kSeparators[] = {',', '|', ':', '\r', '\n'};
      mutated[rng.NextBounded(mutated.size())] =
          kSeparators[rng.NextBounded(sizeof(kSeparators))];
      return mutated;
    }
    default:  // Empty file.
      return "";
  }
}

/// Property: loaders terminate and return a Status for arbitrary corpus
/// mutations, and agree with the reference reader on every one. Stacked
/// mutations explore compounded corruption.
TEST(ScenarioIoFuzzTest, MutatedWorldFilesNeverCrash) {
  const std::string base = BaseWorldCsv();
  const std::string path = TempPath("fuzz_world.csv");
  Rng rng(20260806);
  int rejected = 0;
  constexpr int kIterations = 300;
  for (int i = 0; i < kIterations; ++i) {
    std::string mutated = base;
    const std::size_t rounds = 1 + rng.NextBounded(3);
    for (std::size_t r = 0; r < rounds; ++r) mutated = Mutate(mutated, rng);
    WriteFile(path, mutated);
    const Result<world::World> loaded = ReadWorldCsv(path);
    if (!loaded.ok()) {
      ++rejected;
      EXPECT_FALSE(loaded.status().message().empty())
          << "iteration " << i << " produced a blank error";
    }
    ExpectSameWorld(loaded, ReferenceReadWorldCsv(path),
                    "iteration " + std::to_string(i));
  }
  // The corpus must actually exercise the error paths: most mutations make
  // the file invalid (a few, like swapping identical lines, are benign).
  EXPECT_GT(rejected, kIterations / 2);
  std::remove(path.c_str());
}

TEST(ScenarioIoFuzzTest, MutatedSourceFilesNeverCrash) {
  const std::string base = BaseSourceCsv();
  const std::string path = TempPath("fuzz_source.csv");
  Rng rng(77001);
  int rejected = 0;
  constexpr int kIterations = 300;
  for (int i = 0; i < kIterations; ++i) {
    std::string mutated = base;
    const std::size_t rounds = 1 + rng.NextBounded(3);
    for (std::size_t r = 0; r < rounds; ++r) mutated = Mutate(mutated, rng);
    WriteFile(path, mutated);
    const Result<source::SourceHistory> loaded = ReadSourceHistoryCsv(path);
    if (!loaded.ok()) {
      ++rejected;
      EXPECT_FALSE(loaded.status().message().empty())
          << "iteration " << i << " produced a blank error";
    }
    ExpectSameSource(loaded, ReferenceReadSourceHistoryCsv(path),
                     "iteration " + std::to_string(i));
  }
  EXPECT_GT(rejected, kIterations / 2);
  std::remove(path.c_str());
}

// Directed corpus: one deterministic regression per malformed-input class.

TEST(ScenarioIoFuzzTest, TruncatedRowRejected) {
  const std::string path = TempPath("fuzz_truncated.csv");
  WriteFile(path,
            "#world,loc,2,cat,2,100\nid,subdomain,birth,death,updates\n"
            "0,1,5");  // Row cut off after three of five fields.
  EXPECT_EQ(ReadWorldCsv(path).status().code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(ScenarioIoFuzzTest, NonNumericFieldsRejected) {
  const std::string path = TempPath("fuzz_nonnumeric.csv");
  WriteFile(path,
            "#world,loc,2,cat,2,100\nid,subdomain,birth,death,updates\n"
            "zero,1,5,,\n");
  EXPECT_EQ(ReadWorldCsv(path).status().code(),
            StatusCode::kInvalidArgument);
  WriteFile(path,
            "#world,loc,2,cat,2,horizon\nid,subdomain,birth,death,updates\n");
  EXPECT_EQ(ReadWorldCsv(path).status().code(),
            StatusCode::kInvalidArgument);
  WriteFile(path,
            "#source,s,1,0,10\n#scope,0\n"
            "entity,subdomain,inserted,deleted,captures\n"
            "3,0,five,,\n");
  EXPECT_EQ(ReadSourceHistoryCsv(path).status().code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(ScenarioIoFuzzTest, DuplicateEntityIdsRejected) {
  const std::string world_path = TempPath("fuzz_dup_world.csv");
  WriteFile(world_path,
            "#world,loc,2,cat,2,100\nid,subdomain,birth,death,updates\n"
            "0,1,0,,\n0,1,0,,\n");
  EXPECT_FALSE(ReadWorldCsv(world_path).ok());
  std::remove(world_path.c_str());

  const std::string source_path = TempPath("fuzz_dup_source.csv");
  WriteFile(source_path,
            "#source,s,1,0,10\n#scope,0\n"
            "entity,subdomain,inserted,deleted,captures\n"
            "3,0,5,,0:5\n3,0,6,,0:6\n");
  EXPECT_FALSE(ReadSourceHistoryCsv(source_path).ok());
  std::remove(source_path.c_str());
}

TEST(ScenarioIoFuzzTest, OutOfOrderTimestampsRejected) {
  const std::string path = TempPath("fuzz_ooo.csv");
  // Update days must be strictly increasing per entity.
  WriteFile(path,
            "#world,loc,2,cat,2,100\nid,subdomain,birth,death,updates\n"
            "0,1,0,,40|10\n");
  EXPECT_FALSE(ReadWorldCsv(path).ok());
  // Death before birth violates the lifespan invariant.
  WriteFile(path,
            "#world,loc,2,cat,2,100\nid,subdomain,birth,death,updates\n"
            "0,1,50,20,\n");
  EXPECT_FALSE(ReadWorldCsv(path).ok());
  std::remove(path.c_str());
}

TEST(ScenarioIoFuzzTest, EmptyFilesRejected) {
  const std::string path = TempPath("fuzz_empty.csv");
  WriteFile(path, "");
  EXPECT_FALSE(ReadWorldCsv(path).ok());
  EXPECT_FALSE(ReadSourceHistoryCsv(path).ok());
  std::remove(path.c_str());
}

// Directed differential corpus: the line and field edge cases where a
// buffer walk could part from getline + Split. Each input must read the
// same as the reference, and the expected outcome is pinned besides.

constexpr char kWorldHead[] =
    "#world,loc,2,cat,2,100\nid,subdomain,birth,death,updates\n";
constexpr char kSourceHead[] =
    "#source,s,1,0,10\n#scope,0|1\n"
    "entity,subdomain,inserted,deleted,captures\n";

struct EdgeCase {
  const char* name;
  std::string text;
  bool ok;
};

TEST(ScenarioIoFuzzTest, WorldEdgeCasesMatchReference) {
  const std::string head = kWorldHead;
  const std::vector<EdgeCase> cases = {
      {"no trailing newline", head + "0,1,0,,5|9\n1,2,3,50,", true},
      {"blank lines mid-file", head + "0,1,0,,5\n\n\n1,2,3,,\n\n", true},
      {"crlf line endings",
       "#world,loc,2,cat,2,100\r\nid,subdomain,birth,death,updates\r\n"
       "0,1,0,,5\r\n",
       false},
      {"crlf rows only", head + "0,1,0,,5\r\n", false},
      {"trailing bar in updates", head + "0,1,0,,5|9|\n", false},
      {"sixth field", head + "0,1,0,,5,7\n", false},
      {"sixth header field", "#world,loc,2,cat,2,100,7\n", false},
      {"lone newline", "\n", false},
      {"header only", "#world,loc,2,cat,2,100\n", false},
      {"empty update entry", head + "0,1,0,,5||9\n", false},
      {"plus sign", head + "0,1,0,,+5\n", false},
      {"integer overflow", head + "0,1,0,,99999999999999999999\n", false},
      {"negative days", head + "0,1,-20,,-10|-3\n", true},
      {"negative horizon",
       "#world,loc,2,cat,2,-5\nid,subdomain,birth,death,updates\n", false},
      {"negative dimension size",
       "#world,loc,-1,cat,2,100\nid,subdomain,birth,death,updates\n",
       false},
      {"dimension size past 32 bits",
       "#world,loc,2,cat,4294967296,100\nid,subdomain,birth,death,updates\n",
       false},
      {"subdomain count past 32 bits",
       "#world,loc,65536,cat,65536,100\nid,subdomain,birth,death,updates\n",
       false},
  };
  const std::string path = TempPath("fuzz_edge_world.csv");
  for (const EdgeCase& edge : cases) {
    WriteFile(path, edge.text);
    const Result<world::World> loaded = ReadWorldCsv(path);
    EXPECT_EQ(loaded.ok(), edge.ok) << edge.name << ": "
                                    << loaded.status().ToString();
    ExpectSameWorld(loaded, ReferenceReadWorldCsv(path), edge.name);
  }
  std::remove(path.c_str());
}

TEST(ScenarioIoFuzzTest, SourceEdgeCasesMatchReference) {
  const std::string head = kSourceHead;
  const std::vector<EdgeCase> cases = {
      {"no trailing newline", head + "3,0,5,,0:5|1:9\n4,1,6,20,0:6", true},
      {"blank lines mid-file", head + "3,0,5,,0:5\n\n\n4,1,6,,0:6\n\n", true},
      {"crlf line endings",
       "#source,s,1,0,10\r\n#scope,0|1\r\n"
       "entity,subdomain,inserted,deleted,captures\r\n3,0,5,,0:5\r\n",
       false},
      {"crlf rows only", head + "3,0,5,,0:5\r\n", false},
      {"trailing bar in captures", head + "3,0,5,,0:5|1:9|\n", false},
      {"trailing bar in scope",
       "#source,s,1,0,10\n#scope,0|\n"
       "entity,subdomain,inserted,deleted,captures\n",
       false},
      {"empty scope",
       "#source,s,1,0,10\n#scope,\n"
       "entity,subdomain,inserted,deleted,captures\n3,0,5,,0:5\n",
       true},
      {"sixth field", head + "3,0,5,,0:5,7\n", false},
      {"capture with extra colon", head + "3,0,5,,0:5:7\n", false},
      {"capture without colon", head + "3,0,5,,5\n", false},
      {"capture with empty day", head + "3,0,5,,0:\n", false},
      {"never inserted row", head + "3,0,9223372036854775807,,\n", true},
      {"entity out of range", head + "10,0,5,,0:5\n", false},
      {"missing scope line", "#source,s,1,0,10\n", false},
      {"negative days", head + "3,0,-4,-1,0:-4|1:-2\n", true},
      {"negative entity count",
       "#source,s,1,0,-1\n#scope,0\n"
       "entity,subdomain,inserted,deleted,captures\n",
       false},
      {"entity count past EntityId",
       "#source,s,1,0,4294967296\n#scope,0\n"
       "entity,subdomain,inserted,deleted,captures\n",
       false},
  };
  const std::string path = TempPath("fuzz_edge_source.csv");
  for (const EdgeCase& edge : cases) {
    WriteFile(path, edge.text);
    const Result<source::SourceHistory> loaded = ReadSourceHistoryCsv(path);
    EXPECT_EQ(loaded.ok(), edge.ok) << edge.name << ": "
                                    << loaded.status().ToString();
    ExpectSameSource(loaded, ReferenceReadSourceHistoryCsv(path), edge.name);
  }
  std::remove(path.c_str());
}

/// Header values that size in-memory tables used to wrap into a huge size
/// and abort the process from inside the allocation.
TEST(ScenarioIoFuzzTest, HostileHeadersAreInvalidArguments) {
  const std::string path = TempPath("fuzz_hostile.csv");
  WriteFile(path, "#world,a,2,b,2,-5\nid,subdomain,birth,death,updates\n");
  Result<world::World> world = ReadWorldCsv(path);
  EXPECT_EQ(world.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(world.status().message(), "negative horizon: -5");
  WriteFile(path, "#world,a,-2,b,2,5\nid,subdomain,birth,death,updates\n");
  world = ReadWorldCsv(path);
  EXPECT_EQ(world.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(world.status().message(), "dimension size out of range: -2");
  WriteFile(path,
            "#world,a,1,b,1,9000000000000000000\n"
            "id,subdomain,birth,death,updates\n");
  world = ReadWorldCsv(path);
  EXPECT_EQ(world.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(world.status().message(),
            "horizon out of range: 9000000000000000000");
  WriteFile(path,
            "#world,a,2048,b,1024,0\nid,subdomain,birth,death,updates\n");
  world = ReadWorldCsv(path);
  EXPECT_EQ(world.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(world.status().message(), "too many subdomains: 2097152");
  WriteFile(path,
            "#world,a,1000,b,1000,1000\nid,subdomain,birth,death,updates\n");
  world = ReadWorldCsv(path);
  EXPECT_EQ(world.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(world.status().message(),
            "world count table too large: 1002001002 cells");

  WriteFile(path,
            "#source,s,1,0,-1\n#scope,0\n"
            "entity,subdomain,inserted,deleted,captures\n");
  const Result<source::SourceHistory> source = ReadSourceHistoryCsv(path);
  EXPECT_EQ(source.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(source.status().message(), "entity count out of range: -1");
  std::remove(path.c_str());
}

/// Round-trip property: write -> read -> write must reproduce the first
/// file byte for byte (the serialization is canonical, so a re-write of a
/// just-parsed object cannot drift).
TEST(ScenarioIoFuzzTest, WorldWriteReadWriteIsByteStable) {
  const std::string first = TempPath("fuzz_rt_world1.csv");
  const std::string second = TempPath("fuzz_rt_world2.csv");
  const world::World original = testing::MakeTestWorld();
  ASSERT_TRUE(WriteWorldCsv(original, first).ok());
  const Result<world::World> loaded = ReadWorldCsv(first);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(WriteWorldCsv(*loaded, second).ok());
  EXPECT_EQ(ReadFile(first), ReadFile(second));
  std::remove(first.c_str());
  std::remove(second.c_str());
}

TEST(ScenarioIoFuzzTest, SourceWriteReadWriteIsByteStable) {
  const std::string first = TempPath("fuzz_rt_source1.csv");
  const std::string second = TempPath("fuzz_rt_source2.csv");
  const world::World base = testing::MakeTestWorld();
  const source::SourceHistory original = testing::MakeTestSource(base);
  ASSERT_TRUE(WriteSourceHistoryCsv(original, first).ok());
  const Result<source::SourceHistory> loaded = ReadSourceHistoryCsv(first);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(WriteSourceHistoryCsv(*loaded, second).ok());
  EXPECT_EQ(ReadFile(first), ReadFile(second));
  std::remove(first.c_str());
  std::remove(second.c_str());
}

}  // namespace
}  // namespace freshsel::io
