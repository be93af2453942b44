#include "obs/report.h"

#include <fstream>
#include <iterator>
#include <utility>

#include "common/string_util.h"
#include "obs/json.h"
#include "obs/json_reader.h"

namespace freshsel::obs {

std::string RunReport::ToJson() const {
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("schema_version");
  writer.Int(kSchemaVersion);
  writer.Field("name", std::string_view(name));
  writer.Key("labels");
  writer.BeginObject();
  for (const auto& [key, value] : labels) {
    writer.Field(key, std::string_view(value));
  }
  writer.EndObject();
  writer.Key("values");
  writer.BeginObject();
  for (const auto& [key, value] : values) {
    writer.Field(key, value);
  }
  writer.EndObject();
  writer.Key("counters");
  writer.BeginObject();
  for (const auto& [key, value] : counters) {
    writer.Field(key, value);
  }
  writer.EndObject();
  writer.Key("stages");
  writer.BeginArray();
  for (const Stage& stage : stages) {
    writer.BeginObject();
    writer.Field("name", std::string_view(stage.name));
    writer.Field("seconds", deterministic ? 0.0 : stage.seconds);
    writer.EndObject();
  }
  writer.EndArray();
  writer.Key("decision_log");
  decision_log.AppendJson(writer);
  writer.Key("metrics");
  if (deterministic) {
    MetricsSnapshot scrubbed = metrics;
    scrubbed.histograms.clear();
    scrubbed.AppendJson(writer);
  } else {
    metrics.AppendJson(writer);
  }
  writer.EndObject();
  return writer.TakeString();
}

namespace {

/// Parses the embedded MetricsSnapshot object; absent/mistyped members are
/// skipped (forward compatibility over strictness: a report with extra or
/// missing metric families is still a usable report).
MetricsSnapshot ParseMetrics(const JsonValue& value) {
  MetricsSnapshot snapshot;
  if (!value.is_object()) return snapshot;
  if (const JsonValue* counters = value.Find("counters");
      counters != nullptr && counters->is_object()) {
    for (const auto& [name, entry] : counters->members()) {
      if (entry.is_number()) snapshot.counters[name] = entry.AsUint64();
    }
  }
  if (const JsonValue* gauges = value.Find("gauges");
      gauges != nullptr && gauges->is_object()) {
    for (const auto& [name, entry] : gauges->members()) {
      if (entry.is_number()) snapshot.gauges[name] = entry.AsDouble();
    }
  }
  if (const JsonValue* histograms = value.Find("histograms");
      histograms != nullptr && histograms->is_object()) {
    for (const auto& [name, entry] : histograms->members()) {
      if (!entry.is_object()) continue;
      Histogram::Snapshot histogram;
      histogram.count = entry.UintOr("count", 0);
      histogram.sum = entry.NumberOr("sum", 0.0);
      histogram.min = entry.NumberOr("min", histogram.min);
      histogram.max = entry.NumberOr("max", histogram.max);
      // mean/p50/p95/p99 are derived fields; recomputed on write.
      if (const JsonValue* bounds = entry.Find("bounds");
          bounds != nullptr && bounds->is_array()) {
        for (const JsonValue& bound : bounds->items()) {
          histogram.bounds.push_back(bound.AsDouble());
        }
      }
      if (const JsonValue* counts = entry.Find("counts");
          counts != nullptr && counts->is_array()) {
        for (const JsonValue& count : counts->items()) {
          histogram.counts.push_back(count.AsUint64());
        }
      }
      snapshot.histograms[name] = std::move(histogram);
    }
  }
  return snapshot;
}

}  // namespace

Result<RunReport> RunReport::FromJson(std::string_view json) {
  JsonValue root;
  FRESHSEL_ASSIGN_OR_RETURN(root, ParseJson(json));
  if (!root.is_object()) {
    return Status::InvalidArgument("run report is not a JSON object");
  }
  const JsonValue* version = root.Find("schema_version");
  if (version == nullptr || !version->is_number()) {
    return Status::InvalidArgument("run report lacks schema_version");
  }
  if (version->AsDouble() < 1.0) {
    return Status::InvalidArgument(StringPrintf(
        "unsupported run report schema_version %g", version->AsDouble()));
  }
  RunReport report;
  report.name = root.StringOr("name", "");
  if (const JsonValue* labels = root.Find("labels");
      labels != nullptr && labels->is_object()) {
    for (const auto& [key, entry] : labels->members()) {
      if (entry.is_string()) report.labels[key] = entry.AsString();
    }
  }
  if (const JsonValue* values = root.Find("values");
      values != nullptr && values->is_object()) {
    for (const auto& [key, entry] : values->members()) {
      if (entry.is_number()) report.values[key] = entry.AsDouble();
    }
  }
  if (const JsonValue* counters = root.Find("counters");
      counters != nullptr && counters->is_object()) {
    for (const auto& [key, entry] : counters->members()) {
      if (entry.is_number()) report.counters[key] = entry.AsUint64();
    }
  }
  if (const JsonValue* stages = root.Find("stages");
      stages != nullptr && stages->is_array()) {
    for (const JsonValue& entry : stages->items()) {
      if (!entry.is_object()) continue;
      report.AddStage(entry.StringOr("name", ""),
                      entry.NumberOr("seconds", 0.0));
    }
  }
  if (const JsonValue* decisions = root.Find("decision_log");
      decisions != nullptr) {
    // v1 documents have no decision_log; v2's is mandatory but an absent
    // one still parses (as empty) so hand-trimmed fixtures stay usable.
    FRESHSEL_ASSIGN_OR_RETURN(report.decision_log,
                              DecisionLog::FromJsonValue(*decisions));
  }
  if (const JsonValue* metrics = root.Find("metrics"); metrics != nullptr) {
    report.metrics = ParseMetrics(*metrics);
  }
  return report;
}

Result<RunReport> RunReport::ReadJsonFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot read metrics file: " + path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  if (in.bad()) return Status::IoError("error reading metrics file: " + path);
  return FromJson(contents);
}

Status RunReport::WriteJsonFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot write metrics file: " + path);
  out << ToJson() << "\n";
  if (!out) return Status::IoError("error writing metrics file: " + path);
  return Status::OK();
}

}  // namespace freshsel::obs
