// End-to-end gate for the incremental marginal-gain oracle: runs greedy
// selection on a full BL-pipeline ProfitOracle (100 sources, 4 eval
// times, k = 20 cardinality matroid) with incremental delta evaluation on
// and off, and verifies the acceleration is pure - identical selections,
// profits within 1e-9, and no oracle-call regression - while printing the
// measured end-to-end speedup. `--check` turns verification failures into
// a nonzero exit (the CI equivalence gate); `--metrics-out=FILE` records
// the timings, the speedup and the estimation.delta/full.evals counters
// (BENCH_estimation.json is a committed snapshot of that output).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "harness/learned_scenario.h"
#include "obs/decision_log.h"
#include "obs/timer.h"
#include "selection/algorithms.h"
#include "selection/cost.h"
#include "testing/forced_path_oracle.h"
#include "workloads/bl_generator.h"

namespace freshsel {
namespace {

constexpr double kProfitTol = 1e-9;
constexpr int kReps = 3;

struct Pipeline {
  std::unique_ptr<workloads::Scenario> scenario;
  std::unique_ptr<harness::LearnedScenario> learned;
  std::unique_ptr<estimation::QualityEstimator> estimator;
  std::unique_ptr<selection::ProfitOracle> oracle;
  std::unique_ptr<selection::PartitionMatroid> matroid;
};

Pipeline MakePipeline() {
  Pipeline p;
  workloads::BlConfig config;
  config.locations = 20;
  config.categories = 6;
  config.horizon = 430;
  config.t0 = 300;
  config.scale = 0.3;
  config.n_uniform = 7;
  config.n_location_specialists = 46;
  config.n_category_specialists = 33;
  config.n_medium = 14;  // 100 sources total.
  p.scenario = std::make_unique<workloads::Scenario>(
      workloads::GenerateBlScenario(config).value());
  p.learned = std::make_unique<harness::LearnedScenario>(
      harness::LearnScenario(*p.scenario).value());
  p.estimator = std::make_unique<estimation::QualityEstimator>(
      estimation::QualityEstimator::Create(
          p.scenario->world, p.learned->world_model, {},
          MakeTimePoints(p.scenario->t0 + 30, 4, 30), {})
          .value());
  std::vector<const estimation::SourceProfile*> profiles;
  for (const auto& profile : p.learned->profiles) {
    profiles.push_back(&profile);
    p.estimator->AddSource(&profile).value();
  }
  selection::ProfitOracle::Config oracle_config;
  oracle_config.budget = std::numeric_limits<double>::infinity();
  // Pure-gain regime: with the default cost weight the profit peaks after
  // a handful of sources; zero weight makes greedy run to the k = 20
  // matroid cap, the regime where full re-evaluation cost grows with |S|.
  oracle_config.cost_weight = 0.0;
  p.oracle = std::make_unique<selection::ProfitOracle>(
      selection::ProfitOracle::Create(p.estimator.get(),
                                      selection::CostModel::ItemShareCosts(
                                          profiles),
                                      oracle_config)
          .value());
  p.matroid = std::make_unique<selection::PartitionMatroid>(
      selection::PartitionMatroid::Create(
          std::vector<std::uint32_t>(profiles.size(), 0), {20})
          .value());
  return p;
}

struct TimedRun {
  selection::SelectionResult result;
  double best_seconds = std::numeric_limits<double>::infinity();
};

/// The pipeline oracle on the path `lazy` x `incremental`: the default
/// CELF + incremental path itself, or a reference path reached through
/// testing::ForcedPathOracle.
std::unique_ptr<testing::ForcedPathOracle> PathOracle(const Pipeline& p,
                                                      bool lazy,
                                                      bool incremental) {
  if (lazy && incremental) return nullptr;
  return std::make_unique<testing::ForcedPathOracle>(
      *p.oracle, lazy ? testing::ForcedPath::kPlain
                      : (incremental ? testing::ForcedPath::kEager
                                     : testing::ForcedPath::kEagerPlain));
}

TimedRun Run(const Pipeline& p, bool lazy, bool incremental) {
  const auto forced = PathOracle(p, lazy, incremental);
  const selection::ProfitFunction& oracle =
      forced ? *forced : static_cast<const selection::ProfitFunction&>(
                             *p.oracle);
  TimedRun run;
  for (int rep = 0; rep < kReps; ++rep) {
    obs::WallTimer timer;
    run.result = selection::Greedy(oracle, p.matroid.get());
    run.best_seconds = std::min(run.best_seconds, timer.ElapsedSeconds());
  }
  return run;
}

/// Hill climb (GRASP(1,1)): construction plus swap-based local search.
/// The local-search scans evaluate every move at the full |S| = k, the
/// regime where delta evaluation pays off most - this is the headline
/// speedup row of BENCH_estimation.json.
TimedRun RunHillClimb(const Pipeline& p, bool incremental) {
  const auto forced = PathOracle(p, true, incremental);
  const selection::ProfitFunction& oracle =
      forced ? *forced : static_cast<const selection::ProfitFunction&>(
                             *p.oracle);
  const selection::GraspParams params{1, 1, 42, nullptr};
  TimedRun run;
  for (int rep = 0; rep < kReps; ++rep) {
    obs::WallTimer timer;
    run.result = selection::Grasp(oracle, params, p.matroid.get());
    run.best_seconds = std::min(run.best_seconds, timer.ElapsedSeconds());
  }
  return run;
}

/// Decision-log reconstruction gate: a CELF run with a DecisionLog
/// attached must replay the SelectionResult exactly - one kAdd record per
/// accepted source, the same handle set, bit-identical telescoping of
/// gain/profit (each recorded gain was computed as `profit_after -
/// profit_before` on the very same doubles, so re-evaluating the identity
/// tolerates no drift), and the final recorded profit equal to
/// SelectionResult::profit.
int CheckDecisionLog(const Pipeline& p, obs::RunReport* report) {
  obs::DecisionLog log;
  selection::GreedyOptions options;
  options.decision_log = &log;
  const selection::SelectionResult result =
      selection::Greedy(*p.oracle, p.matroid.get(), options);
  int failures = 0;
  if (log.algorithm() != "greedy/lazy") {
    std::fprintf(stderr, "FAIL: decision log algorithm '%s' != greedy/lazy\n",
                 log.algorithm().c_str());
    ++failures;
  }
  std::vector<selection::SourceHandle> chosen;
  double prev_profit = 0.0;
  std::uint64_t log_calls = 0;
  for (std::size_t i = 0; i < log.records().size(); ++i) {
    const obs::DecisionRecord& record = log.records()[i];
    log_calls += record.oracle_calls;
    if (record.kind != obs::DecisionKind::kAdd ||
        record.round != static_cast<std::uint32_t>(i)) {
      std::fprintf(
          stderr, "FAIL: decision %zu: kind %s round %u (want add/%zu)\n",
          i, std::string(obs::DecisionKindName(record.kind)).c_str(),
          record.round, i);
      ++failures;
    }
    chosen.push_back(static_cast<selection::SourceHandle>(record.chosen));
    // Bit-exact: the algorithm computed gain from these same doubles.
    if (i > 0 && record.gain != record.profit - prev_profit) {
      std::fprintf(stderr,
                   "FAIL: decision %zu: gain %.17g != profit delta %.17g\n",
                   i, record.gain, record.profit - prev_profit);
      ++failures;
    }
    prev_profit = record.profit;
  }
  if (log.records().back().profit != result.profit) {
    std::fprintf(stderr,
                 "FAIL: final logged profit %.17g != result profit %.17g\n",
                 log.records().back().profit, result.profit);
    ++failures;
  }
  std::sort(chosen.begin(), chosen.end());
  if (chosen != result.selected) {
    std::fprintf(stderr,
                 "FAIL: logged chosen set (%zu) != selected set (%zu)\n",
                 chosen.size(), result.selected.size());
    ++failures;
  }
  // Committed rounds cannot claim more evaluations than the run made;
  // strict equality does not hold (the empty-set seed eval precedes round
  // 0 and the final sub-epsilon re-scores never commit a record).
  if (log_calls > result.oracle_calls) {
    std::fprintf(stderr,
                 "FAIL: logged oracle calls %llu > result calls %llu\n",
                 static_cast<unsigned long long>(log_calls),
                 static_cast<unsigned long long>(result.oracle_calls));
    ++failures;
  }
  std::printf(
      "  decision log: %zu add decisions reconstruct the selection "
      "(%zu sources, %llu calls)%s\n",
      log.records().size(), result.selected.size(),
      static_cast<unsigned long long>(result.oracle_calls),
      failures == 0 ? "" : " FAILED");
  report->counters["decision_log_rounds"] = log.records().size();
  return failures;
}

}  // namespace
}  // namespace freshsel

int main(int argc, char** argv) {
  using freshsel::selection::SelectionResult;
  freshsel::bench::ObsSession obs_session("bench_incremental_check", &argc,
                                          argv);
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) check = true;
  }

  freshsel::Pipeline pipeline = freshsel::MakePipeline();
  std::printf(
      "incremental-oracle gate: BL pipeline, n=%zu sources, "
      "|T_f|=%zu eval times, k<=20, best of %d runs\n",
      pipeline.oracle->universe_size(),
      pipeline.estimator->eval_times().size(), freshsel::kReps);

  int failures = 0;
  double speedup_lazy = 0.0;
  freshsel::obs::RunReport& report = obs_session.report();
  for (bool lazy : {false, true}) {
    const freshsel::TimedRun plain = freshsel::Run(pipeline, lazy, false);
    const freshsel::TimedRun inc = freshsel::Run(pipeline, lazy, true);
    const double speedup = plain.best_seconds / inc.best_seconds;
    const char* label = lazy ? "lazy " : "eager";
    std::printf(
        "  %s greedy: plain %8.2f ms, incremental %8.2f ms, "
        "speedup %5.2fx, selected %zu, calls %llu -> %llu\n",
        label, plain.best_seconds * 1e3, inc.best_seconds * 1e3, speedup,
        plain.result.selected.size(),
        static_cast<unsigned long long>(plain.result.oracle_calls),
        static_cast<unsigned long long>(inc.result.oracle_calls));
    if (inc.result.selected != plain.result.selected) {
      std::fprintf(stderr, "FAIL: %s greedy selections differ\n", label);
      ++failures;
    }
    const double tol =
        freshsel::kProfitTol * (1.0 + std::abs(plain.result.profit));
    if (!(std::abs(inc.result.profit - plain.result.profit) <= tol)) {
      std::fprintf(stderr, "FAIL: %s greedy profits differ: %.17g vs %.17g\n",
                   label, inc.result.profit, plain.result.profit);
      ++failures;
    }
    if (inc.result.oracle_calls > plain.result.oracle_calls) {
      std::fprintf(stderr,
                   "FAIL: %s greedy oracle calls regressed: %llu > %llu\n",
                   label,
                   static_cast<unsigned long long>(inc.result.oracle_calls),
                   static_cast<unsigned long long>(
                       plain.result.oracle_calls));
      ++failures;
    }
    const std::string prefix = lazy ? "lazy" : "eager";
    report.values[prefix + "_plain_seconds"] = plain.best_seconds;
    report.values[prefix + "_incremental_seconds"] = inc.best_seconds;
    report.values[prefix + "_speedup"] = speedup;
    report.counters[prefix + "_selected"] = plain.result.selected.size();
    report.counters[prefix + "_oracle_calls"] = inc.result.oracle_calls;
    if (lazy) speedup_lazy = speedup;
  }
  double speedup_hill = 0.0;
  {
    const freshsel::TimedRun plain = freshsel::RunHillClimb(pipeline, false);
    const freshsel::TimedRun inc = freshsel::RunHillClimb(pipeline, true);
    speedup_hill = plain.best_seconds / inc.best_seconds;
    std::printf(
        "  hillclimb  : plain %8.2f ms, incremental %8.2f ms, "
        "speedup %5.2fx, selected %zu, calls %llu -> %llu\n",
        plain.best_seconds * 1e3, inc.best_seconds * 1e3, speedup_hill,
        plain.result.selected.size(),
        static_cast<unsigned long long>(plain.result.oracle_calls),
        static_cast<unsigned long long>(inc.result.oracle_calls));
    if (inc.result.selected != plain.result.selected) {
      std::fprintf(stderr, "FAIL: hillclimb selections differ\n");
      ++failures;
    }
    const double tol =
        freshsel::kProfitTol * (1.0 + std::abs(plain.result.profit));
    if (!(std::abs(inc.result.profit - plain.result.profit) <= tol)) {
      std::fprintf(stderr, "FAIL: hillclimb profits differ: %.17g vs %.17g\n",
                   inc.result.profit, plain.result.profit);
      ++failures;
    }
    if (inc.result.oracle_calls > plain.result.oracle_calls) {
      std::fprintf(stderr,
                   "FAIL: hillclimb oracle calls regressed: %llu > %llu\n",
                   static_cast<unsigned long long>(inc.result.oracle_calls),
                   static_cast<unsigned long long>(
                       plain.result.oracle_calls));
      ++failures;
    }
    report.values["hillclimb_plain_seconds"] = plain.best_seconds;
    report.values["hillclimb_incremental_seconds"] = inc.best_seconds;
    report.values["hillclimb_speedup"] = speedup_hill;
    report.counters["hillclimb_selected"] = plain.result.selected.size();
    report.counters["hillclimb_oracle_calls"] = inc.result.oracle_calls;
  }

  failures += freshsel::CheckDecisionLog(pipeline, &report);

  report.labels["sources"] =
      std::to_string(pipeline.oracle->universe_size());
  report.labels["eval_times"] =
      std::to_string(pipeline.estimator->eval_times().size());
  report.labels["k"] = "20";

  if (!check) return 0;
  if (failures == 0) {
    std::printf(
        "incremental oracle check: OK (lazy greedy %.2fx, hillclimb "
        "%.2fx)\n",
        speedup_lazy, speedup_hill);
  }
  return failures == 0 ? 0 : 1;
}
