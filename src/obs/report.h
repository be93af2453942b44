#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "obs/decision_log.h"
#include "obs/metrics.h"

namespace freshsel::obs {

/// Machine-readable summary of one run (a `freshsel select` invocation, a
/// harness comparison, a bench binary). This is the schema behind
/// `--metrics-out` and the committed BENCH_*.json trajectory files:
///
///   {
///     "schema_version": 2,
///     "name":   "freshsel/select",
///     "labels":   {"algorithm": "GRASP-(5,20)", ...},   // strings
///     "values":   {"profit": 1.92, ...},                // scalars
///     "counters": {"oracle_calls": 812, ...},           // integers
///     "stages": [{"name": "learn_models", "seconds": 0.12}, ...],
///     "decision_log": {"algorithm": ..., "decisions": [...], ...},
///     "metrics": { "counters": ..., "gauges": ..., "histograms": ... }
///   }
///
/// `labels`/`values`/`counters` carry run-level results folded in by the
/// producing layer (selector, estimator fit, harness); `stages` are coarse
/// per-phase wall times in execution order; `decision_log` is the per-round
/// selection audit trail (schema_version 2, see obs/decision_log.h);
/// `metrics` embeds a MetricsSnapshot of the process-wide registry
/// (per-stage latency histograms with p50/p95/p99 summaries, cache
/// tallies, ...).
///
/// Version history: v1 had no `decision_log` and no histogram percentile
/// fields. `FromJson` reads any version >= 1, tolerating unknown fields,
/// so committed v1 BENCH_*.json baselines stay loadable.
struct RunReport {
  static constexpr int kSchemaVersion = 2;

  std::string name;
  std::map<std::string, std::string> labels;
  std::map<std::string, double> values;
  std::map<std::string, std::uint64_t> counters;

  struct Stage {
    std::string name;
    double seconds = 0.0;
  };
  std::vector<Stage> stages;

  /// Selection audit trail (empty unless a selection run wired it up; the
  /// CLI points SelectorConfig::decision_log here).
  DecisionLog decision_log;

  MetricsSnapshot metrics;

  /// When true, ToJson emits a byte-reproducible document for golden-file
  /// tests (`--deterministic-metrics`): stage wall times are written as 0
  /// and latency histograms are omitted from the embedded snapshot.
  /// Counters and gauges stay — for a fixed seed they must already be
  /// deterministic.
  bool deterministic = false;

  void AddStage(std::string stage_name, double seconds) {
    stages.push_back(Stage{std::move(stage_name), seconds});
  }

  /// Folds the process-wide registry into `metrics`.
  void CaptureGlobalMetrics() {
    metrics = MetricsRegistry::Global().TakeSnapshot();
  }

  std::string ToJson() const;
  Status WriteJsonFile(const std::string& path) const;

  /// Parses a report document of any schema_version >= 1. Unknown fields
  /// (future versions) are ignored; fields this version knows but the
  /// document lacks (e.g. v1's missing decision_log) default to empty.
  /// Re-serializing a parsed v2 document reproduces it byte-identically
  /// (the JSON writer's %.17g doubles round-trip exactly).
  static Result<RunReport> FromJson(std::string_view json);
  static Result<RunReport> ReadJsonFile(const std::string& path);
};

}  // namespace freshsel::obs
