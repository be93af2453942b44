#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "cli/args.h"
#include "cli/commands.h"
#include "fault/failpoint.h"
#include "testing/scratch.h"

namespace freshsel::cli {
namespace {

ArgMap ParseOk(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "freshsel");
  Result<ArgMap> args =
      ArgMap::Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(args.ok()) << args.status().ToString();
  return *args;
}

TEST(ArgMapTest, ParsesCommandAndFlags) {
  ArgMap args = ParseOk({"select", "--dir", "/tmp/x", "--t0=30"});
  EXPECT_EQ(args.command(), "select");
  EXPECT_EQ(args.GetString("dir", ""), "/tmp/x");
  EXPECT_EQ(args.GetInt("t0", 0).value(), 30);
}

TEST(ArgMapTest, DefaultsApplyWhenAbsent) {
  ArgMap args = ParseOk({"select"});
  EXPECT_EQ(args.GetString("metric", "coverage"), "coverage");
  EXPECT_EQ(args.GetInt("points", 10).value(), 10);
  EXPECT_DOUBLE_EQ(args.GetDouble("scale", 0.5).value(), 0.5);
}

TEST(ArgMapTest, RejectsMalformed) {
  // Positionals parse (the report subcommands consume them); commands
  // that take none reject stray tokens via CheckNoPositionals.
  ArgMap stray = ParseOk({"select", "extra"});
  ASSERT_EQ(stray.positionals().size(), 1u);
  EXPECT_EQ(stray.positionals()[0], "extra");
  EXPECT_FALSE(CheckNoPositionals(stray).ok());

  ArgMap args = ParseOk({"x", "--n", "abc"});
  EXPECT_FALSE(args.GetInt("n", 0).ok());
  ArgMap args2 = ParseOk({"x", "--f", "1.5x"});
  EXPECT_FALSE(args2.GetDouble("f", 0).ok());
}

TEST(ArgMapTest, BareFlagsParseAsBooleans) {
  // A flag at end-of-line or followed by another flag is boolean-style.
  ArgMap args = ParseOk({"select", "--strict", "--dir", "d", "--verbose"});
  EXPECT_EQ(args.GetBool("strict", false).value(), true);
  EXPECT_EQ(args.GetBool("verbose", false).value(), true);
  EXPECT_EQ(args.GetString("dir", ""), "d");
  EXPECT_EQ(args.GetBool("absent", false).value(), false);
  EXPECT_EQ(args.GetBool("missing", true).value(), true);
}

TEST(ArgMapTest, GetBoolParsesExplicitValues) {
  ArgMap args = ParseOk({"x", "--a=true", "--b", "0", "--c=1", "--d",
                         "false", "--bad", "maybe"});
  EXPECT_EQ(args.GetBool("a", false).value(), true);
  EXPECT_EQ(args.GetBool("b", true).value(), false);
  EXPECT_EQ(args.GetBool("c", false).value(), true);
  EXPECT_EQ(args.GetBool("d", true).value(), false);
  EXPECT_FALSE(args.GetBool("bad", false).ok());
}

TEST(ArgMapTest, TracksUnreadFlags) {
  ArgMap args = ParseOk({"select", "--dir", "d", "--typo", "1"});
  args.GetString("dir", "");
  EXPECT_EQ(args.UnreadFlags(), (std::vector<std::string>{"typo"}));
}

class CliEndToEndTest : public ::testing::Test {
 protected:
  int Run(std::vector<const char*> argv, std::string* output = nullptr) {
    argv.insert(argv.begin(), "freshsel");
    std::ostringstream out;
    std::ostringstream err;
    const int code = RunMain(static_cast<int>(argv.size()), argv.data(),
                             out, err);
    if (output != nullptr) *output = out.str() + err.str();
    return code;
  }

  // Unique per-test directory (tests/testing/scratch.h): ctest runs these
  // cases as separate concurrent processes, and a shared path makes them
  // trample each other's files.
  freshsel::testing::ScratchDir scratch_{"cli"};
  const std::string& dir_ = scratch_.path();
};

TEST_F(CliEndToEndTest, UsageOnUnknownCommand) {
  std::string output;
  EXPECT_NE(Run({"frobnicate"}, &output), 0);
  EXPECT_NE(output.find("usage:"), std::string::npos);
}

TEST_F(CliEndToEndTest, SelectRejectsRemovedAccelerationFlags) {
  // CELF and incremental scoring follow from the profit, so the former
  // --lazy and --incremental flags are unknown and fail before any I/O.
  for (const char* name : {"lazy", "incremental"}) {
    const std::string flag = std::string("--") + name + "=false";
    std::string output;
    EXPECT_NE(Run({"select", "--dir", dir_.c_str(), flag.c_str()}, &output),
              0)
        << flag;
    EXPECT_NE(output.find(std::string("unknown flag(s): --") + name),
              std::string::npos)
        << output;
  }
  std::string usage;
  Run({"frobnicate"}, &usage);
  EXPECT_EQ(usage.find("--lazy"), std::string::npos);
  EXPECT_EQ(usage.find("--incremental"), std::string::npos);
}

TEST_F(CliEndToEndTest, SimulateCharacterizeSelect) {
  std::string output;
  ASSERT_EQ(Run({"simulate", "--workload", "bl", "--out", dir_.c_str(),
                 "--scale", "0.3", "--locations", "6", "--categories",
                 "3"},
                &output),
            0)
      << output;
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/world.csv"));
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/source_000.csv"));
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/manifest.csv"));

  ASSERT_EQ(Run({"characterize", "--dir", dir_.c_str(), "--t0", "100"},
                &output),
            0)
      << output;
  EXPECT_NE(output.find("Source characterization"), std::string::npos);
  EXPECT_NE(output.find("bl-uniform-0"), std::string::npos);

  ASSERT_EQ(Run({"select", "--dir", dir_.c_str(), "--t0", "100",
                 "--algorithm", "maxsub", "--points", "4", "--stride",
                 "14"},
                &output),
            0)
      << output;
  EXPECT_NE(output.find("Selected sources"), std::string::npos);
  EXPECT_NE(output.find("expected coverage"), std::string::npos);
}

TEST_F(CliEndToEndTest, SelectWithFrequenciesAndBudget) {
  std::string output;
  ASSERT_EQ(Run({"simulate", "--workload", "bl", "--out", dir_.c_str(),
                 "--scale", "0.3", "--locations", "5", "--categories",
                 "2"},
                &output),
            0)
      << output;
  ASSERT_EQ(Run({"select", "--dir", dir_.c_str(), "--t0", "100",
                 "--max-divisor", "3", "--algorithm", "maxsub"},
                &output),
            0)
      << output;
  EXPECT_NE(output.find("divisor"), std::string::npos);

  ASSERT_EQ(Run({"select", "--dir", dir_.c_str(), "--t0", "100",
                 "--algorithm", "budgeted", "--budget", "0.4"},
                &output),
            0)
      << output;
}

TEST_F(CliEndToEndTest, T0FallsBackToManifest) {
  std::string output;
  ASSERT_EQ(Run({"simulate", "--workload", "bl", "--out", dir_.c_str(),
                 "--scale", "0.3", "--locations", "5", "--categories",
                 "2"},
                &output),
            0)
      << output;
  // No --t0: both commands read it from manifest.csv (t0 = 300 for BL).
  ASSERT_EQ(Run({"characterize", "--dir", dir_.c_str()}, &output), 0)
      << output;
  EXPECT_NE(output.find("t0=300"), std::string::npos);
  ASSERT_EQ(Run({"select", "--dir", dir_.c_str(), "--points", "3",
                 "--stride", "14"},
                &output),
            0)
      << output;
  // Without a manifest (deleted), the commands must ask for --t0.
  std::filesystem::remove(dir_ + "/manifest.csv");
  EXPECT_NE(Run({"characterize", "--dir", dir_.c_str()}, &output), 0);
}

TEST_F(CliEndToEndTest, GdeltSimulateWorks) {
  std::string output;
  ASSERT_EQ(Run({"simulate", "--workload", "gdelt", "--out", dir_.c_str(),
                 "--scale", "0.3", "--locations", "6", "--categories",
                 "3"},
                &output),
            0)
      << output;
  ASSERT_EQ(Run({"select", "--dir", dir_.c_str(), "--t0", "15",
                 "--points", "5", "--stride", "1", "--gain", "data"},
                &output),
            0)
      << output;
}

TEST_F(CliEndToEndTest, MetricsAndTraceOutputs) {
  std::string output;
  ASSERT_EQ(Run({"simulate", "--workload", "bl", "--out", dir_.c_str(),
                 "--scale", "0.3", "--locations", "5", "--categories",
                 "2"},
                &output),
            0)
      << output;

  const std::string metrics_path = dir_ + "/metrics.json";
  const std::string trace_path = dir_ + "/trace.json";
  const std::string metrics_flag = "--metrics-out=" + metrics_path;
  const std::string trace_flag = "--trace-out=" + trace_path;
  ASSERT_EQ(Run({"select", "--dir", dir_.c_str(), "--t0", "100",
                 "--points", "3", "--stride", "14", "--threads", "2",
                 "--algorithm", "grasp", metrics_flag.c_str(),
                 trace_flag.c_str()},
                &output),
            0)
      << output;

  ASSERT_TRUE(std::filesystem::exists(metrics_path));
  std::stringstream metrics_buf;
  metrics_buf << std::ifstream(metrics_path).rdbuf();
  const std::string metrics = metrics_buf.str();
  EXPECT_NE(metrics.find("\"schema_version\":2"), std::string::npos);
  EXPECT_NE(metrics.find("\"decision_log\""), std::string::npos);
  EXPECT_NE(metrics.find("\"name\":\"select\""), std::string::npos);
  EXPECT_NE(metrics.find("\"algorithm\""), std::string::npos);
  EXPECT_NE(metrics.find("\"oracle_calls\""), std::string::npos);
  EXPECT_NE(metrics.find("\"cache_hits\""), std::string::npos);
  EXPECT_NE(metrics.find("\"selected_sources\""), std::string::npos);
  EXPECT_NE(metrics.find("\"stages\""), std::string::npos);
  EXPECT_NE(metrics.find("\"profit\""), std::string::npos);

  ASSERT_TRUE(std::filesystem::exists(trace_path));
  std::stringstream trace_buf;
  trace_buf << std::ifstream(trace_path).rdbuf();
  const std::string trace = trace_buf.str();
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("selection/grasp"), std::string::npos);
}

TEST_F(CliEndToEndTest, RobustnessFlagsAreValidated) {
  std::string output;
  ASSERT_EQ(Run({"simulate", "--workload", "bl", "--out", dir_.c_str(),
                 "--scale", "0.3", "--locations", "5", "--categories",
                 "2"},
                &output),
            0)
      << output;
  // Exclusive mode flags.
  EXPECT_NE(Run({"select", "--dir", dir_.c_str(), "--t0", "100",
                 "--strict", "--degrade"},
                &output),
            0);
  EXPECT_NE(output.find("exclusive"), std::string::npos);
  // Retry shape validation.
  EXPECT_NE(Run({"select", "--dir", dir_.c_str(), "--t0", "100",
                 "--retry-max", "0"},
                &output),
            0);
  EXPECT_NE(Run({"select", "--dir", dir_.c_str(), "--t0", "100",
                 "--retry-backoff", "-1"},
                &output),
            0);
  // Stochastic-greedy epsilon must stay inside the guarantee's (0, 1).
  EXPECT_NE(Run({"select", "--dir", dir_.c_str(), "--t0", "100",
                 "--stochastic", "--stochastic-epsilon", "1.5"},
                &output),
            0);
  EXPECT_NE(output.find("stochastic-epsilon"), std::string::npos);
  EXPECT_NE(Run({"select", "--dir", dir_.c_str(), "--t0", "100",
                 "--stochastic", "--stochastic-epsilon", "0"},
                &output),
            0);
  // Malformed failpoint specs fail before any work happens.
  EXPECT_NE(Run({"select", "--dir", dir_.c_str(), "--t0", "100",
                 "--failpoints", "io.read=bogus"},
                &output),
            0);
  // A fittable BL roster passes strict mode.
  EXPECT_EQ(Run({"select", "--dir", dir_.c_str(), "--t0", "100",
                 "--points", "3", "--stride", "14", "--strict"},
                &output),
            0)
      << output;
}

TEST_F(CliEndToEndTest, InjectedIoFaultsAreAbsorbedByRetries) {
  std::string output;
  ASSERT_EQ(Run({"simulate", "--workload", "bl", "--out", dir_.c_str(),
                 "--scale", "0.3", "--locations", "5", "--categories",
                 "2"},
                &output),
            0)
      << output;
  const std::string metrics_path = dir_ + "/metrics.json";
  const std::string metrics_flag = "--metrics-out=" + metrics_path;
  // Every second read fails; one retry each absorbs all of them.
  ASSERT_EQ(Run({"select", "--dir", dir_.c_str(), "--t0", "100",
                 "--points", "3", "--stride", "14", "--failpoints",
                 "io.read=nth:2", "--retry-max", "5", "--retry-backoff",
                 "0", "--deterministic-metrics", metrics_flag.c_str()},
                &output),
            0)
      << output;
  std::stringstream metrics_buf;
  metrics_buf << std::ifstream(metrics_path).rdbuf();
  const std::string metrics = metrics_buf.str();
  EXPECT_NE(metrics.find("\"fault.failpoints.injected\""), std::string::npos);
  EXPECT_NE(metrics.find("\"io.retry.attempts\""), std::string::npos);
  fault::FailpointRegistry::Global().DisarmAll();

  // An always-failing read exhausts the retry budget and surfaces the
  // injected error.
  EXPECT_NE(Run({"select", "--dir", dir_.c_str(), "--t0", "100",
                 "--failpoints", "io.read=always", "--retry-max", "2",
                 "--retry-backoff", "0"},
                &output),
            0);
  EXPECT_NE(output.find("injected fault"), std::string::npos);
  fault::FailpointRegistry::Global().DisarmAll();
}

TEST_F(CliEndToEndTest, ErrorsAreReported) {
  std::string output;
  EXPECT_NE(Run({"select", "--dir", "/nonexistent", "--t0", "10"},
                &output),
            0);
  EXPECT_NE(Run({"simulate", "--workload", "nope", "--out", dir_.c_str()},
                &output),
            0);
  EXPECT_NE(Run({"characterize", "--dir", dir_.c_str()}, &output), 0);
  EXPECT_NE(Run({"select", "--dir", dir_.c_str(), "--t0", "10",
                 "--bogus-flag", "1"},
                &output),
            0);
}

}  // namespace
}  // namespace freshsel::cli
