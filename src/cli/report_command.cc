#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cli/commands.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "obs/decision_log.h"
#include "obs/json_reader.h"
#include "obs/report.h"

namespace freshsel::cli {

namespace {

std::string FormatCount(std::uint64_t value) { return std::to_string(value); }

/// `freshsel report show RUN.json [--rounds N] [--top N]`: renders one run
/// report for humans - stages, run-level results, the hottest registry
/// counters, histogram percentiles, and the per-round decision table.
Status ShowReport(const ArgMap& args, const std::string& path,
                  std::ostream& out) {
  FRESHSEL_ASSIGN_OR_RETURN(std::int64_t max_rounds,
                            args.GetInt("rounds", 0));
  FRESHSEL_ASSIGN_OR_RETURN(std::int64_t top, args.GetInt("top", 10));
  FRESHSEL_RETURN_IF_ERROR(CheckUnreadFlags(args));
  if (max_rounds < 0 || top < 0) {
    return Status::InvalidArgument("--rounds/--top must be >= 0");
  }
  FRESHSEL_ASSIGN_OR_RETURN(obs::RunReport report,
                            obs::RunReport::ReadJsonFile(path));

  out << "run: " << report.name << "\n";
  for (const auto& [key, value] : report.labels) {
    out << "  " << key << " = " << value << "\n";
  }

  if (!report.stages.empty()) {
    double total = 0.0;
    for (const obs::RunReport::Stage& stage : report.stages) {
      total += stage.seconds;
    }
    TablePrinter stages("Stages", {"stage", "seconds", "share"});
    for (const obs::RunReport::Stage& stage : report.stages) {
      stages.AddRow({stage.name, FormatDouble(stage.seconds, 6),
                     total > 0.0
                         ? FormatDouble(stage.seconds / total * 100.0, 1) + "%"
                         : "-"});
    }
    stages.Print(out);
  }

  if (!report.counters.empty() || !report.values.empty()) {
    TablePrinter results("Run results", {"key", "value"});
    for (const auto& [key, value] : report.counters) {
      results.AddRow({key, FormatCount(value)});
    }
    for (const auto& [key, value] : report.values) {
      results.AddRow({key, FormatDouble(value, 6)});
    }
    results.Print(out);
  }

  if (!report.metrics.counters.empty()) {
    // Hottest counters first: the interesting signal in a fat registry
    // snapshot is which code paths dominated, not the alphabet.
    std::vector<std::pair<std::string, std::uint64_t>> hot(
        report.metrics.counters.begin(), report.metrics.counters.end());
    std::stable_sort(hot.begin(), hot.end(),
                     [](const auto& a, const auto& b) {
                       return a.second > b.second;
                     });
    const std::size_t limit =
        top == 0 ? hot.size()
                 : std::min(hot.size(), static_cast<std::size_t>(top));
    TablePrinter counters(
        StringPrintf("Hot counters (top %zu of %zu)", limit, hot.size()),
        {"counter", "count"});
    for (std::size_t i = 0; i < limit; ++i) {
      counters.AddRow({hot[i].first, FormatCount(hot[i].second)});
    }
    counters.Print(out);
  }

  if (!report.metrics.histograms.empty()) {
    TablePrinter histograms(
        "Histograms", {"histogram", "count", "mean", "p50", "p95", "p99"});
    for (const auto& [name, snapshot] : report.metrics.histograms) {
      histograms.AddRow({name, FormatCount(snapshot.count),
                         FormatDouble(snapshot.Mean(), 6),
                         FormatDouble(snapshot.Percentile(0.50), 6),
                         FormatDouble(snapshot.Percentile(0.95), 6),
                         FormatDouble(snapshot.Percentile(0.99), 6)});
    }
    histograms.Print(out);
  }

  const obs::DecisionLog& log = report.decision_log;
  for (const obs::DecisionDegradation& degraded : log.degraded()) {
    out << "degraded: " << degraded.source << " - " << degraded.reason
        << "\n";
  }
  if (!log.records().empty()) {
    const std::size_t limit =
        max_rounds == 0
            ? log.records().size()
            : std::min(log.records().size(),
                       static_cast<std::size_t>(max_rounds));
    TablePrinter decisions(
        "Decision log (" +
            (log.algorithm().empty() ? std::string("unknown")
                                     : log.algorithm()) +
            ")",
        {"round", "restart", "kind", "chosen", "gain", "score", "margin",
         "runner_up", "calls", "saved", "hits", "sample", "pool"});
    for (std::size_t i = 0; i < limit; ++i) {
      const obs::DecisionRecord& r = log.records()[i];
      decisions.AddRow(
          {FormatCount(r.round), FormatCount(r.restart),
           std::string(obs::DecisionKindName(r.kind)),
           r.kind == obs::DecisionKind::kSwap
               ? FormatCount(r.chosen) + "<-" + FormatCount(r.partner)
               : FormatCount(r.chosen),
           FormatDouble(r.gain, 6), FormatDouble(r.score, 6),
           r.has_runner_up ? FormatDouble(r.margin, 6) : "-",
           r.has_runner_up ? FormatCount(r.runner_up) : "-",
           FormatCount(r.oracle_calls), FormatCount(r.calls_saved),
           FormatCount(r.cache_hits),
           r.sample_size > 0 ? FormatCount(r.sample_size) : "-",
           FormatCount(r.pool_size)});
    }
    decisions.Print(out);
    if (limit < log.records().size()) {
      out << "... " << log.records().size() - limit
          << " more decisions (raise --rounds)\n";
    }
  }
  return Status::OK();
}

/// First decision index where two logs stop agreeing on (kind, chosen),
/// or the shorter length when one is a prefix of the other; SIZE_MAX when
/// the logs match exactly.
std::size_t DivergencePoint(const obs::DecisionLog& a,
                            const obs::DecisionLog& b) {
  const std::size_t common = std::min(a.records().size(), b.records().size());
  for (std::size_t i = 0; i < common; ++i) {
    const obs::DecisionRecord& ra = a.records()[i];
    const obs::DecisionRecord& rb = b.records()[i];
    if (ra.kind != rb.kind || ra.chosen != rb.chosen ||
        ra.restart != rb.restart) {
      return i;
    }
  }
  if (a.records().size() != b.records().size()) return common;
  return static_cast<std::size_t>(-1);
}

std::string DescribeDecision(const obs::DecisionLog& log, std::size_t i) {
  if (i >= log.records().size()) return "(no decision)";
  const obs::DecisionRecord& r = log.records()[i];
  return StringPrintf("%s %u (gain %g)",
                      std::string(obs::DecisionKindName(r.kind)).c_str(),
                      r.chosen, r.gain);
}

/// `freshsel report diff A.json B.json`: counter / value / histogram
/// deltas between two runs, plus the first decision where the two
/// selection traces diverge.
Status DiffReports(const ArgMap& args, const std::string& path_a,
                   const std::string& path_b, std::ostream& out) {
  FRESHSEL_RETURN_IF_ERROR(CheckUnreadFlags(args));
  FRESHSEL_ASSIGN_OR_RETURN(obs::RunReport a,
                            obs::RunReport::ReadJsonFile(path_a));
  FRESHSEL_ASSIGN_OR_RETURN(obs::RunReport b,
                            obs::RunReport::ReadJsonFile(path_b));
  out << "A: " << path_a << " (" << a.name << ")\n"
      << "B: " << path_b << " (" << b.name << ")\n";

  TablePrinter counters("Counter deltas (A vs B)",
                        {"counter", "a", "b", "delta"});
  bool any_counter = false;
  auto diff_counters =
      [&](const std::map<std::string, std::uint64_t>& ca,
          const std::map<std::string, std::uint64_t>& cb) {
        std::vector<std::string> keys;
        for (const auto& [key, value] : ca) keys.push_back(key);
        for (const auto& [key, value] : cb) {
          if (!ca.count(key)) keys.push_back(key);
        }
        std::sort(keys.begin(), keys.end());
        for (const std::string& key : keys) {
          const auto ita = ca.find(key);
          const auto itb = cb.find(key);
          const std::int64_t va =
              ita == ca.end() ? 0 : static_cast<std::int64_t>(ita->second);
          const std::int64_t vb =
              itb == cb.end() ? 0 : static_cast<std::int64_t>(itb->second);
          if (va == vb) continue;
          any_counter = true;
          counters.AddRow({key, ita == ca.end() ? "-" : FormatCount(ita->second),
                           itb == cb.end() ? "-" : FormatCount(itb->second),
                           StringPrintf("%+lld",
                                        static_cast<long long>(vb - va))});
        }
      };
  diff_counters(a.counters, b.counters);
  diff_counters(a.metrics.counters, b.metrics.counters);
  if (any_counter) {
    counters.Print(out);
  } else {
    out << "counters: identical\n";
  }

  TablePrinter values("Value deltas (A vs B)", {"value", "a", "b", "delta"});
  bool any_value = false;
  for (const auto& [key, va] : a.values) {
    const auto itb = b.values.find(key);
    if (itb == b.values.end() || itb->second == va) continue;
    any_value = true;
    values.AddRow({key, FormatDouble(va, 6), FormatDouble(itb->second, 6),
                   FormatDouble(itb->second - va, 6)});
  }
  if (any_value) values.Print(out);

  TablePrinter histograms("Histogram deltas (A vs B)",
                          {"histogram", "count a", "count b", "p95 a",
                           "p95 b"});
  bool any_histogram = false;
  for (const auto& [name, ha] : a.metrics.histograms) {
    const auto itb = b.metrics.histograms.find(name);
    if (itb == b.metrics.histograms.end()) continue;
    if (ha.count == itb->second.count &&
        ha.Percentile(0.95) == itb->second.Percentile(0.95)) {
      continue;
    }
    any_histogram = true;
    histograms.AddRow({name, FormatCount(ha.count),
                       FormatCount(itb->second.count),
                       FormatDouble(ha.Percentile(0.95), 6),
                       FormatDouble(itb->second.Percentile(0.95), 6)});
  }
  if (any_histogram) histograms.Print(out);

  const std::size_t divergence =
      DivergencePoint(a.decision_log, b.decision_log);
  if (a.decision_log.records().empty() &&
      b.decision_log.records().empty()) {
    out << "decision logs: both empty\n";
  } else if (divergence == static_cast<std::size_t>(-1)) {
    out << "decision logs: identical selection order ("
        << a.decision_log.records().size() << " decisions)\n";
  } else {
    out << "decision logs diverge at decision " << divergence << ": A "
        << DescribeDecision(a.decision_log, divergence) << " vs B "
        << DescribeDecision(b.decision_log, divergence) << "\n";
  }
  return Status::OK();
}

/// True for metric keys that measure wall time or derived wall-time
/// ratios - machine-dependent by nature, excluded from regression bands.
bool IsTimingKey(const std::string& key) {
  return key.find("seconds") != std::string::npos ||
         key.find("speedup") != std::string::npos;
}

/// `freshsel report check-regression FRESH.json --baseline BASE.json
/// [--tolerance X] [--keys-only]`: every numeric key of the committed
/// baseline must exist in the fresh report and (unless --keys-only) stay
/// within the relative tolerance band; timing keys and gauges are skipped
/// (wall times and thread counts are machine-dependent). Extra fresh keys
/// are fine - new instrumentation is not a regression. Every top-level key
/// of the baseline document must be present in the fresh one too, since
/// `RunReport::FromJson` reads a missing section (`name`, `counters`, ...)
/// as empty.
/// Returns FailedPrecondition (non-zero exit) when any key regresses.
Status CheckRegression(const ArgMap& args, const std::string& fresh_path,
                       std::ostream& out) {
  const std::string baseline_path = args.GetString("baseline", "");
  FRESHSEL_ASSIGN_OR_RETURN(double tolerance,
                            args.GetDouble("tolerance", 0.0));
  FRESHSEL_ASSIGN_OR_RETURN(bool keys_only, args.GetBool("keys-only", false));
  FRESHSEL_RETURN_IF_ERROR(CheckUnreadFlags(args));
  if (baseline_path.empty()) {
    return Status::InvalidArgument(
        "check-regression requires --baseline FILE");
  }
  if (tolerance < 0.0) {
    return Status::InvalidArgument("--tolerance must be >= 0");
  }
  FRESHSEL_ASSIGN_OR_RETURN(obs::RunReport fresh,
                            obs::RunReport::ReadJsonFile(fresh_path));
  FRESHSEL_ASSIGN_OR_RETURN(obs::RunReport baseline,
                            obs::RunReport::ReadJsonFile(baseline_path));
  FRESHSEL_ASSIGN_OR_RETURN(obs::JsonValue fresh_doc,
                            obs::ParseJsonFile(fresh_path));
  FRESHSEL_ASSIGN_OR_RETURN(obs::JsonValue baseline_doc,
                            obs::ParseJsonFile(baseline_path));

  std::size_t compared = 0;
  std::size_t skipped = 0;
  TablePrinter failures("Regressions",
                        {"key", "baseline", "fresh", "allowed"});
  std::size_t failed = 0;

  auto check = [&](const std::string& key, double base, const double* value) {
    if (IsTimingKey(key)) {
      ++skipped;
      return;
    }
    ++compared;
    if (value == nullptr) {
      ++failed;
      failures.AddRow({key, FormatDouble(base, 6), "(missing)", "-"});
      return;
    }
    if (keys_only) return;
    const double band = tolerance * std::fabs(base);
    if (std::fabs(*value - base) > band) {
      ++failed;
      failures.AddRow({key, FormatDouble(base, 6), FormatDouble(*value, 6),
                       StringPrintf("+/-%s", FormatDouble(band, 6).c_str())});
    }
  };
  auto check_counters =
      [&](const std::map<std::string, std::uint64_t>& base,
          const std::map<std::string, std::uint64_t>& value) {
        for (const auto& [key, base_count] : base) {
          const auto it = value.find(key);
          const double fresh_count =
              it == value.end() ? 0.0 : static_cast<double>(it->second);
          check(key, static_cast<double>(base_count),
                it == value.end() ? nullptr : &fresh_count);
        }
      };
  for (const auto& [key, unused] : baseline_doc.members()) {
    ++compared;
    if (fresh_doc.Find(key) == nullptr) {
      ++failed;
      failures.AddRow({key, "(top-level key)", "(missing)", "-"});
    }
  }
  check_counters(baseline.counters, fresh.counters);
  check_counters(baseline.metrics.counters, fresh.metrics.counters);
  for (const auto& [key, base_value] : baseline.values) {
    const auto it = fresh.values.find(key);
    check(key, base_value, it == fresh.values.end() ? nullptr : &it->second);
  }
  // Gauges are skipped wholesale: pool_threads and friends describe the
  // machine, not the workload.
  skipped += baseline.metrics.gauges.size();

  if (failed > 0) {
    failures.Print(out);
    return Status::FailedPrecondition(StringPrintf(
        "%zu of %zu checked metrics regressed vs %s", failed, compared,
        baseline_path.c_str()));
  }
  out << "OK: " << compared << " metrics within "
      << (keys_only ? std::string("key-presence check")
                    : StringPrintf("%.3g relative tolerance", tolerance))
      << " of " << baseline_path << " (" << skipped
      << " timing/gauge keys skipped)\n";
  return Status::OK();
}

}  // namespace

Status RunReportCommand(const ArgMap& args, std::ostream& out) {
  const std::vector<std::string>& positionals = args.positionals();
  if (positionals.empty()) {
    return Status::InvalidArgument(
        "report requires a subcommand: show | diff | check-regression");
  }
  const std::string& subcommand = positionals[0];
  if (subcommand == "show") {
    if (positionals.size() != 2) {
      return Status::InvalidArgument("usage: report show RUN.json");
    }
    return ShowReport(args, positionals[1], out);
  }
  if (subcommand == "diff") {
    if (positionals.size() != 3) {
      return Status::InvalidArgument("usage: report diff A.json B.json");
    }
    return DiffReports(args, positionals[1], positionals[2], out);
  }
  if (subcommand == "check-regression") {
    if (positionals.size() != 2) {
      return Status::InvalidArgument(
          "usage: report check-regression FRESH.json --baseline BASE.json");
    }
    return CheckRegression(args, positionals[1], out);
  }
  return Status::InvalidArgument("unknown report subcommand: " + subcommand);
}

}  // namespace freshsel::cli
