// Deterministic fault-injected end-to-end run (DESIGN.md §11): the same
// CLI invocation with the same --failpoints spec and --deterministic-metrics
// must produce byte-identical selections and metrics files on every repeat,
// including under a parallel `ctest -j` schedule. Fault injection is seeded
// and counted, never timed.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/commands.h"
#include "fault/failpoint.h"
#include "testing/scratch.h"

namespace freshsel {
namespace {

class FaultE2eTest : public ::testing::Test {
 protected:
  void TearDown() override {
    fault::FailpointRegistry::Global().DisarmAll();
  }

  int Run(std::vector<const char*> argv, std::string* output = nullptr) {
    argv.insert(argv.begin(), "freshsel");
    std::ostringstream out;
    std::ostringstream err;
    const int code = cli::RunMain(static_cast<int>(argv.size()),
                                  argv.data(), out, err);
    if (output != nullptr) *output = out.str() + err.str();
    return code;
  }

  static std::string ReadFile(const std::string& path) {
    std::stringstream buffer;
    buffer << std::ifstream(path).rdbuf();
    return buffer.str();
  }

  /// Per-test unique scenario directory (tests/testing/scratch.h).
  testing::ScratchDir scratch_{"fault_e2e"};
  const std::string& dir_ = scratch_.path();
};

TEST_F(FaultE2eTest, FaultInjectedSelectIsByteReproducible) {
  std::string output;
  ASSERT_EQ(Run({"simulate", "--workload", "bl", "--out", dir_.c_str(),
                 "--seed", "7", "--scale", "0.3", "--locations", "5",
                 "--categories", "2"},
                &output),
            0)
      << output;

  std::vector<std::string> metrics_files;
  std::vector<std::string> selections;
  for (int repeat = 0; repeat < 3; ++repeat) {
    const std::string metrics_path =
        dir_ + "/metrics_" + std::to_string(repeat) + ".json";
    const std::string metrics_flag = "--metrics-out=" + metrics_path;
    // Failpoint hit counters persist across in-process runs, so re-arm
    // before each repeat for an identical injection schedule.
    fault::FailpointRegistry::Global().DisarmAll();
    std::string run_output;
    ASSERT_EQ(Run({"select", "--dir", dir_.c_str(), "--t0", "100",
                   "--points", "3", "--stride", "14", "--failpoints",
                   "io.read=nth:2", "--retry-max", "5", "--retry-backoff",
                   "0", "--deterministic-metrics", metrics_flag.c_str()},
                  &run_output),
              0)
        << run_output;
    metrics_files.push_back(ReadFile(metrics_path));
    selections.push_back(run_output);
  }

  for (int repeat = 1; repeat < 3; ++repeat) {
    EXPECT_EQ(metrics_files[repeat], metrics_files[0])
        << "metrics drifted on repeat " << repeat;
    EXPECT_EQ(selections[repeat], selections[0])
        << "selection output drifted on repeat " << repeat;
  }

  // The injections actually happened and were absorbed by retries.
  EXPECT_NE(metrics_files[0].find("\"fault.failpoints.injected\""),
            std::string::npos);
  EXPECT_NE(metrics_files[0].find("\"io.retry.attempts\""),
            std::string::npos);
  EXPECT_EQ(metrics_files[0].find("\"io.retry.exhausted\""),
            std::string::npos);
}

TEST_F(FaultE2eTest, ProbabilisticFaultsAreSeedDeterministic) {
  std::string output;
  ASSERT_EQ(Run({"simulate", "--workload", "bl", "--out", dir_.c_str(),
                 "--seed", "7", "--scale", "0.3", "--locations", "5",
                 "--categories", "2"},
                &output),
            0)
      << output;
  std::vector<std::string> metrics_files;
  for (int repeat = 0; repeat < 2; ++repeat) {
    const std::string metrics_path =
        dir_ + "/prob_metrics_" + std::to_string(repeat) + ".json";
    const std::string metrics_flag = "--metrics-out=" + metrics_path;
    fault::FailpointRegistry::Global().DisarmAll();
    std::string run_output;
    ASSERT_EQ(Run({"select", "--dir", dir_.c_str(), "--t0", "100",
                   "--points", "3", "--stride", "14", "--failpoints",
                   "io.read=prob:0.3:99", "--retry-max", "8",
                   "--retry-backoff", "0", "--deterministic-metrics",
                   metrics_flag.c_str()},
                  &run_output),
              0)
        << run_output;
    metrics_files.push_back(ReadFile(metrics_path));
  }
  EXPECT_EQ(metrics_files[0], metrics_files[1]);
}

TEST_F(FaultE2eTest, WriteFaultsSurfaceWhenRetriesExhaust) {
  // simulate writes the scenario; an always-on write failpoint must fail
  // the command with the injected error, not crash or half-write silently.
  fault::FailpointRegistry::Global().DisarmAll();
  std::string output;
  EXPECT_NE(Run({"simulate", "--workload", "bl", "--out", dir_.c_str(),
                 "--scale", "0.3", "--locations", "5", "--categories", "2",
                 "--failpoints", "io.write=always", "--retry-max", "2",
                 "--retry-backoff", "0"},
                &output),
            0);
  EXPECT_NE(output.find("injected fault"), std::string::npos);
}

}  // namespace
}  // namespace freshsel
