#include "cli/commands.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <utility>

#include "common/string_util.h"
#include "common/table_printer.h"
#include "estimation/degradation.h"
#include "fault/failpoint.h"
#include "fault/retry.h"
#include "harness/characterization.h"
#include "harness/learned_scenario.h"
#include "io/scenario_io.h"
#include "metrics/quality.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "serve/engine.h"
#include "serve/ingest.h"
#include "workloads/bl_generator.h"
#include "workloads/gdelt_generator.h"

namespace freshsel::cli {

namespace {

namespace fs = std::filesystem;

/// Shared --metrics-out / --trace-out plumbing for every command. A
/// metrics path resets the global registry so the emitted report captures
/// only this run; a trace path clears and enables span collection. The
/// command fills `report()` as it goes (labels, counters, stages) and
/// calls Finish() once, which folds the registry snapshot into the report
/// and writes both files. `--report-out` is an alias for `--metrics-out`
/// (the file is a full run report, not just metrics); `--metrics-format
/// openmetrics` swaps the JSON document for Prometheus/OpenMetrics text
/// exposition of the registry snapshot.
class ObsSession {
 public:
  ObsSession(std::string command, const ArgMap& args)
      : trace_path_(args.GetString("trace-out", "")),
        format_(args.GetString("metrics-format", "json")) {
    const std::string metrics = args.GetString("metrics-out", "");
    const std::string report_out = args.GetString("report-out", "");
    metrics_path_ = metrics.empty() ? report_out : metrics;
    report_.name = std::move(command);
    if (!metrics_path_.empty()) {
      obs::MetricsRegistry::Global().ResetAll();
    }
    if (!trace_path_.empty()) {
      obs::ClearTrace();
      obs::SetTraceEnabled(true);
    }
  }

  obs::RunReport* report() { return &report_; }

  Status Finish() {
    if (format_ != "json" && format_ != "openmetrics") {
      return Status::InvalidArgument(
          "unknown --metrics-format: " + format_ +
          " (expected json or openmetrics)");
    }
    if (!trace_path_.empty()) {
      obs::SetTraceEnabled(false);
      FRESHSEL_RETURN_IF_ERROR(obs::WriteTraceFile(trace_path_));
    }
    if (!metrics_path_.empty()) {
      report_.CaptureGlobalMetrics();
      if (format_ == "openmetrics") {
        std::ofstream file(metrics_path_);
        if (!file) {
          return Status::IoError("cannot write " + metrics_path_);
        }
        file << report_.metrics.ToOpenMetrics();
        if (!file.good()) {
          return Status::IoError("failed writing " + metrics_path_);
        }
      } else {
        FRESHSEL_RETURN_IF_ERROR(report_.WriteJsonFile(metrics_path_));
      }
    }
    return Status::OK();
  }

 private:
  std::string metrics_path_;
  std::string trace_path_;
  std::string format_;
  obs::RunReport report_;
};

/// Shared robustness plumbing (DESIGN.md §11): `--failpoints SPEC` arms
/// the global registry for this run (previous arms are cleared so repeated
/// in-process runs replay identically), `--retry-max` / `--retry-backoff`
/// shape the RetryPolicy driving scenario I/O, and
/// `--deterministic-metrics` makes the run report byte-reproducible.
struct RobustnessOptions {
  fault::RetryPolicy retry;
  bool deterministic_metrics = false;
};

Result<RobustnessOptions> ReadRobustnessFlags(const ArgMap& args) {
  const std::string failpoints = args.GetString("failpoints", "");
  FRESHSEL_ASSIGN_OR_RETURN(std::int64_t retry_max,
                            args.GetInt("retry-max", 3));
  FRESHSEL_ASSIGN_OR_RETURN(double retry_backoff,
                            args.GetDouble("retry-backoff", 0.01));
  RobustnessOptions options;
  FRESHSEL_ASSIGN_OR_RETURN(options.deterministic_metrics,
                            args.GetBool("deterministic-metrics", false));
  if (retry_max < 1) {
    return Status::InvalidArgument("--retry-max must be >= 1");
  }
  if (retry_backoff < 0.0) {
    return Status::InvalidArgument("--retry-backoff must be >= 0");
  }
  if (!failpoints.empty()) {
    fault::FailpointRegistry::Global().DisarmAll();
    FRESHSEL_RETURN_IF_ERROR(
        fault::FailpointRegistry::Global().ArmFromSpec(failpoints));
  }
  fault::RetryOptions retry_options;
  retry_options.max_attempts = static_cast<int>(retry_max);
  retry_options.initial_backoff_seconds = retry_backoff;
  retry_options.max_backoff_seconds =
      std::max(retry_backoff, retry_options.max_backoff_seconds);
  options.retry = fault::RetryPolicy(retry_options);
  return options;
}

void ReportDegradation(const estimation::DegradationReport& degradation,
                       obs::RunReport* report, std::ostream& out) {
  report->counters["degraded_sources"] = degradation.degraded.size();
  for (const estimation::DegradedSource& source : degradation.degraded) {
    report->decision_log.AddDegradation(source.name, source.reason);
    out << "degraded: " << source.name << " - " << source.reason << "\n";
  }
}

}  // namespace

Result<estimation::DegradationMode> ReadDegradationMode(const ArgMap& args) {
  FRESHSEL_ASSIGN_OR_RETURN(bool strict, args.GetBool("strict", false));
  FRESHSEL_ASSIGN_OR_RETURN(bool degrade, args.GetBool("degrade", !strict));
  if (strict && degrade) {
    return Status::InvalidArgument("--strict and --degrade are exclusive");
  }
  return strict ? estimation::DegradationMode::kStrict
                : estimation::DegradationMode::kDegrade;
}

Status CheckUnreadFlags(const ArgMap& args) {
  const std::vector<std::string> unread = args.UnreadFlags();
  if (!unread.empty()) {
    return Status::InvalidArgument("unknown flag(s): --" +
                                   Join(unread, ", --"));
  }
  return Status::OK();
}

Status CheckNoPositionals(const ArgMap& args) {
  if (!args.positionals().empty()) {
    return Status::InvalidArgument("unexpected argument: " +
                                   args.positionals().front());
  }
  return Status::OK();
}

Status RunSimulate(const ArgMap& args, std::ostream& out) {
  const std::string workload = args.GetString("workload", "bl");
  const std::string out_dir = args.GetString("out", "");
  FRESHSEL_ASSIGN_OR_RETURN(std::int64_t seed, args.GetInt("seed", 7));
  FRESHSEL_ASSIGN_OR_RETURN(double scale, args.GetDouble("scale", 0.5));
  FRESHSEL_ASSIGN_OR_RETURN(std::int64_t locations,
                            args.GetInt("locations", 0));
  FRESHSEL_ASSIGN_OR_RETURN(std::int64_t categories,
                            args.GetInt("categories", 0));
  ObsSession obs_session("simulate", args);
  FRESHSEL_ASSIGN_OR_RETURN(RobustnessOptions robust,
                            ReadRobustnessFlags(args));
  obs_session.report()->deterministic = robust.deterministic_metrics;
  FRESHSEL_RETURN_IF_ERROR(CheckUnreadFlags(args));
  FRESHSEL_RETURN_IF_ERROR(CheckNoPositionals(args));
  if (out_dir.empty()) {
    return Status::InvalidArgument("simulate requires --out DIR");
  }
  obs::RunReport& report = *obs_session.report();
  report.labels["workload"] = workload;
  obs::WallTimer stage_timer;

  Result<workloads::Scenario> scenario = [&]() -> Result<workloads::Scenario> {
    if (workload == "bl") {
      workloads::BlConfig config;
      config.seed = static_cast<std::uint64_t>(seed);
      config.scale = scale;
      if (locations > 0) {
        config.locations = static_cast<std::uint32_t>(locations);
      }
      if (categories > 0) {
        config.categories = static_cast<std::uint32_t>(categories);
      }
      return workloads::GenerateBlScenario(config);
    }
    if (workload == "gdelt") {
      workloads::GdeltConfig config;
      config.seed = static_cast<std::uint64_t>(seed);
      config.scale = scale;
      if (locations > 0) {
        config.locations = static_cast<std::uint32_t>(locations);
      }
      if (categories > 0) {
        config.event_types = static_cast<std::uint32_t>(categories);
      }
      return workloads::GenerateGdeltScenario(config);
    }
    return Status::InvalidArgument("unknown --workload: " + workload +
                                   " (expected bl or gdelt)");
  }();
  FRESHSEL_RETURN_IF_ERROR(scenario.status().ok() ? Status::OK()
                                                  : scenario.status());
  report.AddStage("generate", stage_timer.ElapsedSeconds());
  report.counters["entities"] = scenario->world.entity_count();
  report.counters["sources"] = scenario->sources.size();
  stage_timer.Restart();

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  FRESHSEL_RETURN_IF_ERROR(io::WriteWorldCsv(
      scenario->world, out_dir + "/world.csv", robust.retry));
  for (std::size_t i = 0; i < scenario->sources.size(); ++i) {
    FRESHSEL_RETURN_IF_ERROR(io::WriteSourceHistoryCsv(
        scenario->sources[i],
        out_dir + "/" + StringPrintf("source_%03zu.csv", i), robust.retry));
  }
  // Manifest: the training cutoff and class labels.
  std::ofstream manifest(out_dir + "/manifest.csv");
  if (!manifest) return Status::IoError("cannot write manifest");
  manifest << "t0," << scenario->t0 << "\n";
  for (std::size_t i = 0; i < scenario->sources.size(); ++i) {
    manifest << StringPrintf("source_%03zu", i) << ','
             << scenario->sources[i].name() << ','
             << workloads::SourceClassName(scenario->classes[i]) << "\n";
  }
  report.AddStage("write", stage_timer.ElapsedSeconds());
  out << "wrote " << scenario->sources.size() << " sources + world ("
      << scenario->world.entity_count() << " entities, horizon "
      << scenario->world.horizon() << ", t0 " << scenario->t0 << ") to "
      << out_dir << "\n";
  return obs_session.Finish();
}

Status RunCharacterize(const ArgMap& args, std::ostream& out) {
  const std::string dir = args.GetString("dir", "");
  FRESHSEL_ASSIGN_OR_RETURN(std::int64_t t0, args.GetInt("t0", 0));
  ObsSession obs_session("characterize", args);
  FRESHSEL_ASSIGN_OR_RETURN(RobustnessOptions robust,
                            ReadRobustnessFlags(args));
  obs_session.report()->deterministic = robust.deterministic_metrics;
  FRESHSEL_ASSIGN_OR_RETURN(estimation::DegradationMode degradation_mode,
                            ReadDegradationMode(args));
  FRESHSEL_RETURN_IF_ERROR(CheckUnreadFlags(args));
  FRESHSEL_RETURN_IF_ERROR(CheckNoPositionals(args));
  if (dir.empty()) {
    return Status::InvalidArgument("characterize requires --dir DIR");
  }
  obs::RunReport& report = *obs_session.report();
  obs::WallTimer stage_timer;
  FRESHSEL_ASSIGN_OR_RETURN(serve::ScenarioDirData scenario,
                            serve::ReadScenarioDir(dir, robust.retry));
  if (t0 <= 0) t0 = scenario.manifest_t0;  // Fall back to the manifest.
  if (t0 <= 0) {
    return Status::InvalidArgument(
        "no --t0 given and the directory has no manifest t0");
  }

  // Wrap the loaded data as a Scenario so the shared characterization
  // harness can run on it (classes unknown for external data).
  workloads::Scenario wrapped{std::move(scenario.world),
                              std::move(scenario.sources),
                              {},
                              t0};
  wrapped.classes.assign(wrapped.sources.size(),
                         workloads::SourceClass::kMedium);
  report.AddStage("load", stage_timer.ElapsedSeconds());
  report.counters["sources"] = wrapped.sources.size();
  stage_timer.Restart();
  FRESHSEL_ASSIGN_OR_RETURN(
      harness::LearnedScenario learned,
      harness::LearnScenarioRobust(wrapped, degradation_mode));
  report.AddStage("learn", stage_timer.ElapsedSeconds());
  ReportDegradation(learned.degradation, &report, out);
  stage_timer.Restart();
  const std::vector<harness::SourceCharacterization> rows =
      harness::CharacterizeSources(learned, wrapped.classes);
  report.AddStage("characterize", stage_timer.ElapsedSeconds());

  TablePrinter table("Source characterization at t0=" + std::to_string(t0),
                     {"source", "items", "coverage", "freshness",
                      "upd_interval", "Gi(7d)", "Gi(inf)", "Gd(inf)"});
  for (const harness::SourceCharacterization& row : rows) {
    table.AddRow({row.name, std::to_string(row.items_at_t0),
                  FormatDouble(row.coverage, 3),
                  FormatDouble(row.local_freshness, 3),
                  FormatDouble(row.update_interval, 2),
                  FormatDouble(row.insert_g_week, 3),
                  FormatDouble(row.insert_g_plateau, 3),
                  FormatDouble(row.delete_g_plateau, 3)});
  }
  table.Print(out);
  return obs_session.Finish();
}

Result<serve::QueryParams> ReadQueryParams(const ArgMap& args) {
  serve::QueryParams params;
  FRESHSEL_ASSIGN_OR_RETURN(params.t0, args.GetInt("t0", params.t0));
  params.metric = args.GetString("metric", params.metric);
  params.gain = args.GetString("gain", params.gain);
  params.algorithm = args.GetString("algorithm", params.algorithm);
  FRESHSEL_ASSIGN_OR_RETURN(params.points,
                            args.GetInt("points", params.points));
  FRESHSEL_ASSIGN_OR_RETURN(params.stride,
                            args.GetInt("stride", params.stride));
  FRESHSEL_ASSIGN_OR_RETURN(params.budget,
                            args.GetDouble("budget", params.budget));
  FRESHSEL_ASSIGN_OR_RETURN(params.max_divisor,
                            args.GetInt("max-divisor", params.max_divisor));
  FRESHSEL_ASSIGN_OR_RETURN(params.kappa, args.GetInt("kappa", params.kappa));
  FRESHSEL_ASSIGN_OR_RETURN(params.restarts,
                            args.GetInt("restarts", params.restarts));
  FRESHSEL_ASSIGN_OR_RETURN(params.seed, args.GetInt("seed", params.seed));
  FRESHSEL_ASSIGN_OR_RETURN(params.threads,
                            args.GetInt("threads", params.threads));
  FRESHSEL_ASSIGN_OR_RETURN(params.stochastic,
                            args.GetBool("stochastic", params.stochastic));
  FRESHSEL_ASSIGN_OR_RETURN(
      params.stochastic_epsilon,
      args.GetDouble("stochastic-epsilon", params.stochastic_epsilon));
  const std::string roster_flag = args.GetString("roster", "");
  if (!roster_flag.empty()) {
    params.roster = Split(roster_flag, ',');
  }
  FRESHSEL_RETURN_IF_ERROR(serve::ValidateQuery(params));
  return params;
}

Status RunSelect(const ArgMap& args, std::ostream& out) {
  const std::string dir = args.GetString("dir", "");
  FRESHSEL_ASSIGN_OR_RETURN(serve::QueryParams params,
                            ReadQueryParams(args));
  ObsSession obs_session("select", args);
  FRESHSEL_ASSIGN_OR_RETURN(RobustnessOptions robust,
                            ReadRobustnessFlags(args));
  obs_session.report()->deterministic = robust.deterministic_metrics;
  FRESHSEL_ASSIGN_OR_RETURN(estimation::DegradationMode degradation_mode,
                            ReadDegradationMode(args));
  FRESHSEL_RETURN_IF_ERROR(CheckUnreadFlags(args));
  FRESHSEL_RETURN_IF_ERROR(CheckNoPositionals(args));
  if (dir.empty()) {
    return Status::InvalidArgument("select requires --dir DIR");
  }
  obs::RunReport& report = *obs_session.report();
  report.labels["metric"] = params.metric;
  report.labels["gain"] = params.gain;
  obs::WallTimer stage_timer;

  FRESHSEL_ASSIGN_OR_RETURN(serve::ScenarioDirData data,
                            serve::ReadScenarioDir(dir, robust.retry));
  report.AddStage("load", stage_timer.ElapsedSeconds());
  stage_timer.Restart();
  serve::IngestOptions ingest;
  ingest.retry = robust.retry;
  ingest.degradation_mode = degradation_mode;
  ingest.t0 = params.t0;  // --t0 overrides the manifest cutoff.
  FRESHSEL_ASSIGN_OR_RETURN(
      serve::ResidentScenario resident,
      serve::LearnScenario("batch", std::move(data), ingest));
  report.AddStage("learn", stage_timer.ElapsedSeconds());
  ReportDegradation(resident.degradation, &report, out);

  // The same core the daemon answers queries with (serve/engine.h): batch
  // output and daemon responses are byte-identical by construction.
  auto scenario =
      std::make_shared<const serve::ResidentScenario>(std::move(resident));
  FRESHSEL_RETURN_IF_ERROR(
      serve::ExecuteSelect(std::move(scenario), params, out, &report));
  return obs_session.Finish();
}

int RunMain(int argc, const char* const* argv, std::ostream& out,
            std::ostream& err) {
  Result<ArgMap> args = ArgMap::Parse(argc, argv);
  if (!args.ok()) {
    err << args.status().ToString() << "\n";
    return 2;
  }
  Status status;
  if (args->command() == "simulate") {
    status = RunSimulate(*args, out);
  } else if (args->command() == "characterize") {
    status = RunCharacterize(*args, out);
  } else if (args->command() == "select") {
    status = RunSelect(*args, out);
  } else if (args->command() == "report") {
    status = RunReportCommand(*args, out);
  } else if (args->command() == "serve") {
    status = RunServe(*args, out);
  } else if (args->command() == "query") {
    status = RunQuery(*args, out);
  } else {
    err << "usage: freshsel <simulate|characterize|select|report|serve|"
           "query> [--flags]\n"
        << "  simulate     --workload bl|gdelt --out DIR [--seed N "
           "--scale X --locations N --categories N]\n"
        << "  characterize --dir DIR --t0 N\n"
        << "  select       --dir DIR --t0 N [--metric coverage|accuracy|"
           "freshness|mix --gain linear|quad|step|data\n"
        << "                --algorithm greedy|maxsub|grasp|budgeted "
           "--points N --stride N --budget X\n"
        << "                --max-divisor M --kappa K --restarts R "
           "--seed S --threads T\n"
        << "                --stochastic (sampled greedy rounds, "
           "--stochastic-epsilon E, seeded by --seed)\n"
        << "                --roster s1,s2,... (restrict selection to named "
           "sources)]\n"
        << "  serve        --dir DIR [--socket PATH | --host H --port N] "
           "[--scenario NAME --max-inflight N\n"
        << "                --max-queue N --prepared-cache N] - selection "
           "daemon (NDJSON; GET /metrics scrapes)\n"
        << "                (--prepared-cache counts estimator shapes: "
           "scenario, t0, eval grid, divisor, roster; not budgets)\n"
        << "  query        [--socket PATH | --host H --port N] [--op "
           "ping|list|metrics|query --raw\n"
        << "                + the select knobs] - one request against a "
           "running daemon\n"
        << "  report       show RUN.json [--rounds N --top N] | diff A.json "
           "B.json |\n"
        << "               check-regression FRESH.json --baseline BASE.json "
           "[--tolerance X --keys-only]\n"
        << "  every command also accepts --metrics-out FILE (JSON run "
           "report; --report-out is an alias,\n"
        << "                          --metrics-format json|openmetrics "
           "picks the encoding)\n"
        << "                          and --trace-out FILE (chrome://tracing "
           "JSON)\n"
        << "  robustness flags: --failpoints 'name=once|always|nth:N|"
           "prob:P[:SEED]' --retry-max N --retry-backoff SECONDS\n"
        << "                    --deterministic-metrics (byte-stable "
           "--metrics-out), and for characterize/select:\n"
        << "                    --strict (abort on unfittable sources) | "
           "--degrade (substitute subdomain priors; default)\n";
    return 2;
  }
  if (!status.ok()) {
    err << status.ToString() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace freshsel::cli
