// `freshsel report` end-to-end: show / diff / check-regression over real
// RunReport JSON files written to a temp dir, including the non-zero-exit
// contract that the CI report-gate relies on.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli/args.h"
#include "cli/commands.h"
#include "obs/decision_log.h"
#include "obs/report.h"

namespace freshsel::cli {
namespace {

ArgMap ParseReportArgs(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "freshsel");
  Result<ArgMap> args =
      ArgMap::Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(args.ok()) << args.status().ToString();
  return *args;
}

/// A report with two decision rounds, one degradation, a histogram, and
/// a handful of counters - every section `report show` renders.
obs::RunReport MakeReport(std::uint64_t first_chosen) {
  obs::RunReport report;
  report.name = "report_cli_test/run";
  report.labels["algorithm"] = "greedy";
  report.values["profit"] = 2.5;
  report.counters["oracle_calls"] = 64;
  report.AddStage("load", 0.25);
  report.AddStage("select", 0.75);
  report.metrics.counters["selection.oracle.calls"] = 64;
  report.metrics.counters["selection.greedy.rounds"] = 2;
  obs::Histogram::Snapshot hist;
  hist.bounds = {0.5, 2.0};
  hist.counts = {3, 1, 0};
  hist.count = 4;
  hist.sum = 1.5;
  report.metrics.histograms["stage.select.seconds"] = hist;

  report.decision_log.set_algorithm("greedy/lazy");
  obs::DecisionRecord first;
  first.round = 0;
  first.chosen = first_chosen;
  first.gain = 1.5;
  first.profit = 1.5;
  first.score = 1.5;
  first.oracle_calls = 40;
  first.pool_size = 8;
  report.decision_log.Record(first);
  obs::DecisionRecord second;
  second.round = 1;
  second.chosen = first_chosen + 1;
  second.gain = 1.0;
  second.profit = 2.5;
  second.score = 1.0;
  second.oracle_calls = 24;
  second.calls_saved = 6;
  second.pool_size = 7;
  report.decision_log.Record(second);
  report.decision_log.AddDegradation("src_003", "history too short");
  return report;
}

std::string WriteReport(const obs::RunReport& report, const char* stem) {
  const std::string path =
      ::testing::TempDir() + "/" + stem + ".json";
  EXPECT_TRUE(report.WriteJsonFile(path).ok());
  return path;
}

class ReportCliTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& path : written_) std::remove(path.c_str());
  }
  std::string Write(const obs::RunReport& report, const char* stem) {
    written_.push_back(WriteReport(report, stem));
    return written_.back();
  }
  std::vector<std::string> written_;
};

TEST_F(ReportCliTest, ShowRendersEverySection) {
  const std::string path = Write(MakeReport(4), "report_cli_show");
  std::ostringstream out;
  const Status status = RunReportCommand(
      ParseReportArgs({"report", "show", path.c_str()}), out);
  ASSERT_TRUE(status.ok()) << status.message();
  const std::string text = out.str();
  EXPECT_NE(text.find("run: report_cli_test/run"), std::string::npos);
  EXPECT_NE(text.find("algorithm = greedy"), std::string::npos);
  EXPECT_NE(text.find("Stages"), std::string::npos);
  EXPECT_NE(text.find("Hot counters"), std::string::npos);
  EXPECT_NE(text.find("p95"), std::string::npos);
  EXPECT_NE(text.find("Decision log (greedy/lazy)"), std::string::npos);
  EXPECT_NE(text.find("degraded: src_003 - history too short"),
            std::string::npos);
}

TEST_F(ReportCliTest, ShowTruncatesRoundsOnRequest) {
  const std::string path = Write(MakeReport(4), "report_cli_rounds");
  std::ostringstream out;
  const Status status = RunReportCommand(
      ParseReportArgs({"report", "show", path.c_str(), "--rounds", "1"}),
      out);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_NE(out.str().find("... 1 more decisions"), std::string::npos);
}

TEST_F(ReportCliTest, DiffReportsIdenticalRuns) {
  const std::string path_a = Write(MakeReport(4), "report_cli_diff_a");
  const std::string path_b = Write(MakeReport(4), "report_cli_diff_b");
  std::ostringstream out;
  const Status status = RunReportCommand(
      ParseReportArgs({"report", "diff", path_a.c_str(), path_b.c_str()}),
      out);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_NE(out.str().find("counters: identical"), std::string::npos);
  EXPECT_NE(
      out.str().find("identical selection order (2 decisions)"),
      std::string::npos);
}

TEST_F(ReportCliTest, DiffPinpointsFirstDivergingDecision) {
  const std::string path_a = Write(MakeReport(4), "report_cli_div_a");
  obs::RunReport other = MakeReport(9);
  other.counters["oracle_calls"] = 80;
  const std::string path_b = Write(other, "report_cli_div_b");
  std::ostringstream out;
  const Status status = RunReportCommand(
      ParseReportArgs({"report", "diff", path_a.c_str(), path_b.c_str()}),
      out);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_NE(out.str().find("decision logs diverge at decision 0"),
            std::string::npos);
  EXPECT_NE(out.str().find("oracle_calls"), std::string::npos);
}

TEST_F(ReportCliTest, CheckRegressionPassesWithinTolerance) {
  obs::RunReport baseline = MakeReport(4);
  const std::string base_path = Write(baseline, "report_cli_base");
  obs::RunReport fresh = MakeReport(4);
  fresh.metrics.counters["selection.oracle.calls"] = 66;  // +3.1%.
  // Extra fresh-only instrumentation is never a regression.
  fresh.metrics.counters["selection.new.counter"] = 1;
  const std::string fresh_path = Write(fresh, "report_cli_fresh");

  std::ostringstream out;
  const Status status = RunReportCommand(
      ParseReportArgs({"report", "check-regression", fresh_path.c_str(),
                       "--baseline", base_path.c_str(), "--tolerance",
                       "0.05"}),
      out);
  ASSERT_TRUE(status.ok()) << status.message() << "\n" << out.str();
  EXPECT_NE(out.str().find("OK:"), std::string::npos);
}

TEST_F(ReportCliTest, CheckRegressionFailsOutsideTolerance) {
  const std::string base_path = Write(MakeReport(4), "report_cli_base2");
  obs::RunReport fresh = MakeReport(4);
  fresh.metrics.counters["selection.oracle.calls"] = 128;  // 2x.
  const std::string fresh_path = Write(fresh, "report_cli_fresh2");

  std::ostringstream out;
  const Status status = RunReportCommand(
      ParseReportArgs({"report", "check-regression", fresh_path.c_str(),
                       "--baseline", base_path.c_str(), "--tolerance",
                       "0.05"}),
      out);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(out.str().find("Regressions"), std::string::npos);
  EXPECT_NE(out.str().find("selection.oracle.calls"), std::string::npos);
}

TEST_F(ReportCliTest, CheckRegressionKeysOnlyIgnoresValues) {
  const std::string base_path = Write(MakeReport(4), "report_cli_base3");
  obs::RunReport fresh = MakeReport(4);
  fresh.metrics.counters["selection.oracle.calls"] = 9999;
  const std::string fresh_path = Write(fresh, "report_cli_fresh3");

  std::ostringstream out;
  const Status status = RunReportCommand(
      ParseReportArgs({"report", "check-regression", fresh_path.c_str(),
                       "--baseline", base_path.c_str(), "--keys-only"}),
      out);
  ASSERT_TRUE(status.ok()) << status.message() << "\n" << out.str();

  // A baseline key missing from the fresh report still fails keys-only.
  obs::RunReport missing = MakeReport(4);
  missing.metrics.counters.erase("selection.oracle.calls");
  const std::string missing_path = Write(missing, "report_cli_missing");
  std::ostringstream out2;
  const Status status2 = RunReportCommand(
      ParseReportArgs({"report", "check-regression", missing_path.c_str(),
                       "--baseline", base_path.c_str(), "--keys-only"}),
      out2);
  EXPECT_FALSE(status2.ok());
  EXPECT_NE(out2.str().find("(missing)"), std::string::npos);
}

// The reader defaults a missing `name` or `counters`, so the gate checks
// the documents' top-level keys itself: every one the baseline has must
// be in the fresh report, even where the baseline's value is empty.
TEST_F(ReportCliTest, CheckRegressionFailsOnEveryMissingTopLevelKey) {
  const std::vector<std::pair<std::string, std::string>> members = {
      {"schema_version", "2"},
      {"name", "\"bench\""},
      {"labels", "{}"},
      {"values", "{}"},
      {"counters", "{}"},
      {"stages", "[]"},
      {"metrics", "{\"counters\": {\"selection.oracle.calls\": 64}}"}};
  const auto document = [&](const std::string& without) {
    std::string json = "{";
    for (const auto& [key, value] : members) {
      if (key == without) continue;
      if (json.size() > 1) json += ", ";
      json += "\"" + key + "\": " + value;
    }
    return json + "}";
  };
  const auto write = [&](const std::string& text, const std::string& stem) {
    const std::string path = ::testing::TempDir() + "/" + stem + ".json";
    std::ofstream(path) << text << "\n";
    written_.push_back(path);
    return path;
  };
  const std::string base_path = write(document(""), "report_cli_keys_base");
  const auto check = [&](const std::string& fresh_path, std::string& out) {
    std::ostringstream stream;
    const Status status = RunReportCommand(
        ParseReportArgs({"report", "check-regression", fresh_path.c_str(),
                         "--baseline", base_path.c_str(), "--keys-only"}),
        stream);
    out = stream.str();
    return status;
  };
  std::string out;
  const std::string same_path = write(document(""), "report_cli_keys_same");
  ASSERT_TRUE(check(same_path, out).ok()) << out;

  for (const auto& [key, unused] : members) {
    if (key == "schema_version") continue;  // Unreadable without it.
    const std::string fresh_path =
        write(document(key), "report_cli_keys_no_" + key);
    const Status status = check(fresh_path, out);
    EXPECT_FALSE(status.ok()) << "fresh report without " << key;
    EXPECT_NE(out.find(key), std::string::npos) << out;
    EXPECT_NE(out.find("(missing)"), std::string::npos) << out;
  }
}

TEST_F(ReportCliTest, RejectsBadInvocations) {
  std::ostringstream out;
  EXPECT_FALSE(RunReportCommand(ParseReportArgs({"report"}), out).ok());
  EXPECT_FALSE(
      RunReportCommand(ParseReportArgs({"report", "explain", "x.json"}),
                       out)
          .ok());
  EXPECT_FALSE(
      RunReportCommand(ParseReportArgs({"report", "show"}), out).ok());
  // check-regression without --baseline.
  EXPECT_FALSE(
      RunReportCommand(
          ParseReportArgs({"report", "check-regression", "x.json"}), out)
          .ok());
  // Unknown flags are typos, not silently ignored.
  const std::string path = Write(MakeReport(4), "report_cli_flags");
  EXPECT_FALSE(RunReportCommand(
                   ParseReportArgs({"report", "show", path.c_str(),
                                    "--no-such-flag", "1"}),
                   out)
                   .ok());
}

TEST_F(ReportCliTest, RunMainExitCodeReflectsRegression) {
  const std::string base_path = Write(MakeReport(4), "report_cli_main_b");
  obs::RunReport fresh = MakeReport(4);
  fresh.metrics.counters["selection.oracle.calls"] = 128;
  const std::string fresh_path = Write(fresh, "report_cli_main_f");

  const char* bad[] = {"freshsel",       "report",
                       "check-regression", fresh_path.c_str(),
                       "--baseline",     base_path.c_str()};
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_NE(RunMain(6, bad, out, err), 0);
  EXPECT_FALSE(err.str().empty());

  const char* good[] = {"freshsel",       "report",
                        "check-regression", fresh_path.c_str(),
                        "--baseline",     base_path.c_str(),
                        "--keys-only"};
  std::ostringstream out2;
  std::ostringstream err2;
  EXPECT_EQ(RunMain(7, good, out2, err2), 0);
}

}  // namespace
}  // namespace freshsel::cli
