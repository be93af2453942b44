#include "obs/report.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace freshsel::obs {
namespace {

RunReport MakeSampleReport() {
  RunReport report;
  report.name = "report_test/run";
  report.labels["algorithm"] = "GRASP-(3,5)";
  report.values["profit"] = 1.25;
  report.counters["oracle_calls"] = 42;
  report.AddStage("load", 0.5);
  report.AddStage("select", 1.5);
  return report;
}

TEST(RunReportTest, ToJsonContainsSchemaFields) {
  const RunReport report = MakeSampleReport();
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"schema_version\":2"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"report_test/run\""), std::string::npos);
  EXPECT_NE(json.find("\"labels\""), std::string::npos);
  EXPECT_NE(json.find("\"algorithm\":\"GRASP-(3,5)\""), std::string::npos);
  EXPECT_NE(json.find("\"values\""), std::string::npos);
  EXPECT_NE(json.find("\"profit\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"oracle_calls\":42"), std::string::npos);
  EXPECT_NE(json.find("\"stages\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
}

TEST(RunReportTest, StagesPreserveExecutionOrder) {
  const RunReport report = MakeSampleReport();
  ASSERT_EQ(report.stages.size(), 2u);
  EXPECT_EQ(report.stages[0].name, "load");
  EXPECT_EQ(report.stages[1].name, "select");
  const std::string json = report.ToJson();
  EXPECT_LT(json.find("\"load\""), json.find("\"select\""));
}

TEST(RunReportTest, CaptureGlobalMetricsFoldsRegistry) {
  MetricsRegistry::Global().GetCounter("report_test.counter.captured").Add(9);
  RunReport report;
  report.CaptureGlobalMetrics();
  EXPECT_GE(report.metrics.counters.at("report_test.counter.captured"), 9u);
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"report_test.counter.captured\""), std::string::npos);
}

TEST(RunReportTest, WriteJsonFileRoundTrip) {
  const RunReport report = MakeSampleReport();
  const std::string path =
      ::testing::TempDir() + "/obs_report_test_out.json";
  const Status status = report.WriteJsonFile(path);
  ASSERT_TRUE(status.ok()) << status.message();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  // WriteJsonFile terminates the file with a newline.
  EXPECT_EQ(buffer.str(), report.ToJson() + "\n");
  std::remove(path.c_str());
}

TEST(RunReportTest, WriteJsonFileBadPathFails) {
  const RunReport report = MakeSampleReport();
  const Status status =
      report.WriteJsonFile("/nonexistent-dir/obs_report_test.json");
  EXPECT_FALSE(status.ok());
}

// Golden v1 document (the pre-decision-log schema exactly as PR-era
// writers emitted it): must stay loadable forever - committed BENCH_*.json
// baselines from that era are still diffable.
constexpr char kGoldenV1[] =
    "{\"schema_version\":1,\"name\":\"bench_micro_selection\","
    "\"labels\":{\"algorithm\":\"greedy\"},"
    "\"values\":{\"profit\":1.9199999999999999},"
    "\"counters\":{\"oracle_calls\":812},"
    "\"stages\":[{\"name\":\"select\",\"seconds\":0.25}],"
    "\"metrics\":{\"counters\":{\"selection.greedy.rounds\":20},"
    "\"gauges\":{\"selection.universe.size\":100},"
    "\"histograms\":{}}}";

TEST(RunReportTest, ReadsGoldenV1Document) {
  const RunReport report = RunReport::FromJson(kGoldenV1).value();
  EXPECT_EQ(report.name, "bench_micro_selection");
  EXPECT_EQ(report.labels.at("algorithm"), "greedy");
  EXPECT_DOUBLE_EQ(report.values.at("profit"), 1.92);
  EXPECT_EQ(report.counters.at("oracle_calls"), 812u);
  ASSERT_EQ(report.stages.size(), 1u);
  EXPECT_EQ(report.stages[0].name, "select");
  EXPECT_EQ(report.metrics.counters.at("selection.greedy.rounds"), 20u);
  // v1 has no decision log; it defaults to empty, not an error.
  EXPECT_TRUE(report.decision_log.empty());
}

TEST(RunReportTest, V2RoundTripIsBitIdentical) {
  RunReport report = MakeSampleReport();
  DecisionRecord record;
  record.round = 0;
  record.chosen = 7;
  record.gain = 0.1;  // Not exactly representable: %.17g must round-trip.
  record.profit = 1.0 / 3.0;
  record.score = 0.1;
  record.oracle_calls = 41;
  record.calls_saved = 1;
  record.pool_size = 42;
  report.decision_log.set_algorithm("greedy/lazy");
  report.decision_log.Record(record);
  report.decision_log.AddDegradation("src_002", "window too sparse");
  report.metrics.counters["selection.oracle.calls"] = 1u << 30;
  Histogram::Snapshot hist;
  hist.bounds = {0.5};
  hist.counts = {3, 1};
  hist.count = 4;
  hist.sum = 1.75;
  report.metrics.histograms["stage.select.seconds"] = hist;

  const std::string json = report.ToJson();
  const RunReport reread = RunReport::FromJson(json).value();
  EXPECT_EQ(reread.ToJson(), json);
  ASSERT_EQ(reread.decision_log.records().size(), 1u);
  EXPECT_EQ(reread.decision_log.records()[0].chosen, 7u);
  EXPECT_EQ(reread.decision_log.records()[0].profit, 1.0 / 3.0);
}

TEST(RunReportTest, HistogramRangeRoundTripsAndStillClamps) {
  RunReport report;
  report.name = "range";
  Histogram histogram(Histogram::DefaultLatencyBounds());
  histogram.Record(0.133);
  report.metrics.histograms["learn"] = histogram.TakeSnapshot();

  const std::string json = report.ToJson();
  const RunReport reread = RunReport::FromJson(json).value();
  EXPECT_EQ(reread.ToJson(), json);
  const Histogram::Snapshot& snapshot = reread.metrics.histograms.at("learn");
  EXPECT_DOUBLE_EQ(snapshot.min, 0.133);
  EXPECT_DOUBLE_EQ(snapshot.max, 0.133);
  EXPECT_DOUBLE_EQ(snapshot.Percentile(0.5), 0.133);
}

TEST(RunReportTest, FromJsonToleratesUnknownFutureFields) {
  std::string json(kGoldenV1);
  json.insert(1, "\"schema_version_99_field\":{\"nested\":[1,2]},");
  const RunReport report = RunReport::FromJson(json).value();
  EXPECT_EQ(report.name, "bench_micro_selection");
}

TEST(RunReportTest, FromJsonRejectsBadDocuments) {
  EXPECT_FALSE(RunReport::FromJson("[]").ok());
  EXPECT_FALSE(RunReport::FromJson("{\"name\":\"x\"}").ok());  // No version.
  EXPECT_FALSE(
      RunReport::FromJson("{\"schema_version\":0,\"name\":\"x\"}").ok());
  EXPECT_FALSE(RunReport::FromJson("not json").ok());
}

TEST(RunReportTest, ReadJsonFileRoundTrip) {
  const RunReport report = MakeSampleReport();
  const std::string path =
      ::testing::TempDir() + "/obs_report_read_test.json";
  ASSERT_TRUE(report.WriteJsonFile(path).ok());
  const RunReport reread = RunReport::ReadJsonFile(path).value();
  EXPECT_EQ(reread.ToJson(), report.ToJson());
  std::remove(path.c_str());
  EXPECT_FALSE(RunReport::ReadJsonFile(path).ok());
}

}  // namespace
}  // namespace freshsel::obs
