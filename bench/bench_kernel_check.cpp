// CI gate for the SIMD miss-product kernels and stochastic greedy: checks
// (1) that the active kernel backend is value-equivalent to the
// always-compiled scalar reference (bit-identical for the elementwise
// kernels, reassociation-bounded for the reductions) and at least 2x
// faster on the miss-product panel when a vector backend is compiled in,
// (2) that --fast-math-kernels changes published estimates by <= 1e-9 and
// selections not at all on the BL pipeline, and (3) that stochastic
// greedy at epsilon = 0.1 reaches >= 95% of the exact greedy's gain with
// >= 3x fewer oracle evaluations (epsilon = 0.2 is reported alongside).
// `--check` turns violations into a nonzero exit; `--metrics-out=FILE`
// records the panel (BENCH_estimation.json holds a committed snapshot).

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
#include "common/random.h"
#include "common/simd.h"
#include "estimation/quality_estimator.h"
#include "harness/learned_scenario.h"
#include "obs/timer.h"
#include "selection/algorithms.h"
#include "selection/cost.h"
#include "testing/forced_path_oracle.h"
#include "workloads/bl_generator.h"

namespace freshsel {
namespace {

constexpr double kFastMathTol = 1e-9;
constexpr int kReps = 3;

// ---------------------------------------------------------------------------
// Panel 1: raw kernels - scalar-reference equivalence and throughput.

std::vector<double> RandomFactors(Rng& rng, std::size_t n) {
  std::vector<double> out(n);
  for (double& v : out) {
    const double roll = rng.NextDouble();
    if (roll < 0.1) {
      v = 1.0;
    } else if (roll < 0.2) {
      v = rng.UniformDouble(1e-140, 1e-120);
    } else {
      v = rng.UniformDouble(0.05, 1.0);
    }
  }
  return out;
}

int CheckKernelEquivalence() {
  int failures = 0;
  Rng rng(71);
  for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                        std::size_t{430}}) {
    const std::vector<double> src = RandomFactors(rng, n);
    std::vector<double> a = RandomFactors(rng, n);
    std::vector<double> b = a;
    simd::MulInPlaceFloored(a.data(), src.data(), n,
                            estimation::kMissProductFloor);
    simd::scalar::MulInPlaceFloored(b.data(), src.data(), n,
                                    estimation::kMissProductFloor);
    for (std::size_t i = 0; i < n; ++i) {
      if (a[i] != b[i]) {
        std::fprintf(stderr,
                     "FAIL: MulInPlaceFloored diverges from scalar at "
                     "n=%zu i=%zu (%.17g vs %.17g)\n",
                     n, i, a[i], b[i]);
        ++failures;
        break;
      }
    }
    const std::vector<double> w = RandomFactors(rng, n);
    const double got = simd::DotOneMinus(w.data(), src.data(), n);
    const double want = simd::scalar::DotOneMinus(w.data(), src.data(), n);
    double mag = 1.0;
    for (double x : w) mag += std::abs(x);
    const double bound = 8.0 * static_cast<double>(n + 1) *
                         std::numeric_limits<double>::epsilon() * mag;
    if (!(std::abs(got - want) <= bound)) {
      std::fprintf(stderr,
                   "FAIL: DotOneMinus outside reassociation bound at "
                   "n=%zu (%.17g vs %.17g)\n",
                   n, got, want);
      ++failures;
    }
  }
  return failures;
}

/// Miss-product panel: the estimator's hot loop shape - 100 sources x 4
/// tables folded into per-tau products of length 430 (the BL pipeline's
/// t - t0), each fold followed by the weighted-expectation reduction the
/// estimator takes over the products (the fast-math kernel pair). The
/// reduction is the part auto-vectorization cannot touch - the strict
/// scalar fold is a serial FP dependency chain - so the ratio measures
/// the shipped kernels, not compiler flags. Product values park at the
/// floor after enough passes, which is the steady state the underflow
/// guard is for; both backends see the same parked inputs.
struct KernelTiming {
  double active_seconds = std::numeric_limits<double>::infinity();
  double scalar_seconds = std::numeric_limits<double>::infinity();
  double speedup = 1.0;
};

/// Optimizer sink: forces the timed products to be materialized.
volatile double g_kernel_sink = 0.0;

KernelTiming TimeMissProductPanel() {
  constexpr std::size_t kSteps = 430;
  constexpr int kTables = 400;  // 100 sources x 4 factor arrays.
  constexpr int kPasses = 50;
  Rng rng(73);
  std::vector<std::vector<double>> sources(kTables);
  for (auto& s : sources) s = RandomFactors(rng, kSteps);
  std::vector<double> weights(kSteps);
  for (auto& w : weights) w = rng.UniformDouble(0.0, 1.0);

  KernelTiming timing;
  std::vector<double> product(kSteps, 1.0);
  for (int rep = 0; rep < kReps; ++rep) {
    obs::WallTimer timer;
    double folded = 0.0;
    for (int pass = 0; pass < kPasses; ++pass) {
      for (const auto& s : sources) {
        simd::MulInPlaceFloored(product.data(), s.data(), kSteps,
                                estimation::kMissProductFloor);
        folded += simd::DotOneMinus(weights.data(), product.data(), kSteps);
      }
    }
    timing.active_seconds =
        std::min(timing.active_seconds, timer.ElapsedSeconds());
    g_kernel_sink = g_kernel_sink + folded + product[kSteps / 2];
  }
  std::fill(product.begin(), product.end(), 1.0);
  for (int rep = 0; rep < kReps; ++rep) {
    obs::WallTimer timer;
    double folded = 0.0;
    for (int pass = 0; pass < kPasses; ++pass) {
      for (const auto& s : sources) {
        simd::scalar::MulInPlaceFloored(product.data(), s.data(), kSteps,
                                        estimation::kMissProductFloor);
        folded += simd::scalar::DotOneMinus(weights.data(), product.data(),
                                            kSteps);
      }
    }
    timing.scalar_seconds =
        std::min(timing.scalar_seconds, timer.ElapsedSeconds());
    g_kernel_sink = g_kernel_sink + folded + product[kSteps / 2];
  }
  timing.speedup = timing.scalar_seconds / timing.active_seconds;
  return timing;
}

// ---------------------------------------------------------------------------
// Panels 2 + 3: BL pipeline - fast-math equivalence, stochastic quality.

struct Pipeline {
  std::unique_ptr<workloads::Scenario> scenario;
  std::unique_ptr<harness::LearnedScenario> learned;
  std::unique_ptr<estimation::QualityEstimator> estimator;
  std::unique_ptr<estimation::QualityEstimator> estimator_fast;
  std::unique_ptr<selection::ProfitOracle> oracle;
  std::unique_ptr<selection::ProfitOracle> oracle_fast;
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
  const TimePoints eval_times =
      MakeTimePoints(p.scenario->t0 + 30, 4, 30);
  estimation::QualityEstimator::Options exact_options;
  estimation::QualityEstimator::Options fast_options;
  fast_options.fast_math_kernels = true;
  p.estimator = std::make_unique<estimation::QualityEstimator>(
      estimation::QualityEstimator::Create(p.scenario->world,
                                           p.learned->world_model, {},
                                           eval_times, exact_options)
          .value());
  p.estimator_fast = std::make_unique<estimation::QualityEstimator>(
      estimation::QualityEstimator::Create(p.scenario->world,
                                           p.learned->world_model, {},
                                           eval_times, fast_options)
          .value());
  std::vector<const estimation::SourceProfile*> profiles;
  for (const auto& profile : p.learned->profiles) {
    profiles.push_back(&profile);
    p.estimator->AddSource(&profile).value();
    p.estimator_fast->AddSource(&profile).value();
  }
  selection::ProfitOracle::Config oracle_config;
  oracle_config.budget = std::numeric_limits<double>::infinity();
  oracle_config.cost_weight = 0.0;  // Greedy runs to the k = 20 cap.
  p.oracle = std::make_unique<selection::ProfitOracle>(
      selection::ProfitOracle::Create(
          p.estimator.get(), selection::CostModel::ItemShareCosts(profiles),
          oracle_config)
          .value());
  p.oracle_fast = std::make_unique<selection::ProfitOracle>(
      selection::ProfitOracle::Create(
          p.estimator_fast.get(),
          selection::CostModel::ItemShareCosts(profiles), oracle_config)
          .value());
  p.matroid = std::make_unique<selection::PartitionMatroid>(
      selection::PartitionMatroid::Create(
          std::vector<std::uint32_t>(profiles.size(), 0), {20})
          .value());
  return p;
}

double MaxFieldDelta(const estimation::EstimatedQuality& a,
                     const estimation::EstimatedQuality& b) {
  double d = std::abs(a.coverage - b.coverage);
  d = std::max(d, std::abs(a.local_freshness - b.local_freshness));
  d = std::max(d, std::abs(a.global_freshness - b.global_freshness));
  d = std::max(d, std::abs(a.accuracy - b.accuracy));
  return d;
}

int CheckFastMathPanel(const Pipeline& p, obs::RunReport& report) {
  int failures = 0;
  // Estimate-level deviation over random sets at every eval time.
  Rng rng(79);
  double max_delta = 0.0;
  std::vector<estimation::EstimatedQuality> exact_q;
  std::vector<estimation::EstimatedQuality> fast_q;
  const std::size_t n = p.estimator->source_count();
  for (int round = 0; round < 30; ++round) {
    std::vector<estimation::QualityEstimator::SourceHandle> set;
    for (std::size_t e = 0; e < n; ++e) {
      if (rng.NextDouble() < 0.15) {
        set.push_back(
            static_cast<estimation::QualityEstimator::SourceHandle>(e));
      }
    }
    p.estimator->EstimateAllTimes(set, exact_q);
    p.estimator_fast->EstimateAllTimes(set, fast_q);
    for (std::size_t i = 0; i < exact_q.size(); ++i) {
      max_delta = std::max(max_delta, MaxFieldDelta(exact_q[i], fast_q[i]));
    }
  }
  report.values["fast_math_max_estimate_delta"] = max_delta;
  if (!(max_delta <= kFastMathTol)) {
    std::fprintf(stderr,
                 "FAIL: fast-math estimates deviate by %.3g > %.3g\n",
                 max_delta, kFastMathTol);
    ++failures;
  }
  // Selection-level: same greedy trajectory, profits within tolerance.
  const selection::SelectionResult exact =
      selection::Greedy(*p.oracle, p.matroid.get());
  const selection::SelectionResult fast =
      selection::Greedy(*p.oracle_fast, p.matroid.get());
  if (fast.selected != exact.selected) {
    std::fprintf(stderr, "FAIL: fast-math greedy selections differ\n");
    ++failures;
  }
  const double tol = kFastMathTol * (1.0 + std::abs(exact.profit));
  if (!(std::abs(fast.profit - exact.profit) <= tol)) {
    std::fprintf(stderr, "FAIL: fast-math profits differ: %.17g vs %.17g\n",
                 fast.profit, exact.profit);
    ++failures;
  }
  std::printf("  fast-math  : max estimate delta %.3g, selections %s\n",
              max_delta, failures == 0 ? "identical" : "DIFFER");
  return failures;
}

struct StochasticRow {
  double gain_ratio = 0.0;
  double call_reduction = 0.0;
  double seconds = 0.0;
};

StochasticRow RunStochastic(const Pipeline& p, double eps,
                            const selection::SelectionResult& exact,
                            std::uint64_t exact_calls) {
  selection::GreedyOptions options;
  options.stochastic = true;
  options.stochastic_epsilon = eps;
  options.stochastic_seed = 42;
  StochasticRow row;
  selection::SelectionResult result;
  row.seconds = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kReps; ++rep) {
    obs::WallTimer timer;
    result = selection::Greedy(*p.oracle, p.matroid.get(), options);
    row.seconds = std::min(row.seconds, timer.ElapsedSeconds());
  }
  row.gain_ratio = exact.profit > 0 ? result.profit / exact.profit : 1.0;
  row.call_reduction =
      result.oracle_calls > 0
          ? static_cast<double>(exact_calls) /
                static_cast<double>(result.oracle_calls)
          : 0.0;
  std::printf(
      "  stochastic : eps=%.2f gain ratio %.4f, calls %llu (%.1fx fewer "
      "than exact), %0.2f ms\n",
      eps, row.gain_ratio,
      static_cast<unsigned long long>(result.oracle_calls),
      row.call_reduction, row.seconds * 1e3);
  return row;
}

}  // namespace
}  // namespace freshsel

int main(int argc, char** argv) {
  freshsel::bench::ObsSession obs_session("bench_kernel_check", &argc, argv);
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) check = true;
  }
  freshsel::obs::RunReport& report = obs_session.report();

  std::printf("kernel gate: backend=%s, vectorized=%d\n",
              freshsel::simd::kBackendName, freshsel::simd::kVectorized);
  report.labels["simd_backend"] = freshsel::simd::kBackendName;

  int failures = freshsel::CheckKernelEquivalence();

  const freshsel::KernelTiming timing = freshsel::TimeMissProductPanel();
  std::printf(
      "  kernels    : miss-product panel active %8.3f ms, scalar %8.3f "
      "ms, speedup %.2fx\n",
      timing.active_seconds * 1e3, timing.scalar_seconds * 1e3,
      timing.speedup);
  report.values["kernel_active_seconds"] = timing.active_seconds;
  report.values["kernel_scalar_seconds"] = timing.scalar_seconds;
  report.values["kernel_speedup"] = timing.speedup;
  if (freshsel::simd::kVectorized && timing.speedup < 2.0) {
    std::fprintf(stderr,
                 "FAIL: vector backend %s only %.2fx over scalar "
                 "(gate: >= 2x)\n",
                 freshsel::simd::kBackendName, timing.speedup);
    ++failures;
  }

  freshsel::Pipeline pipeline = freshsel::MakePipeline();
  std::printf(
      "pipeline   : BL, n=%zu sources, |T_f|=%zu eval times, k<=20\n",
      pipeline.oracle->universe_size(),
      pipeline.estimator->eval_times().size());

  failures += freshsel::CheckFastMathPanel(pipeline, report);

  // Exact baseline for the stochastic panel: the eager scan is the
  // canonical "exact greedy" evaluation count (n per round); its lazy
  // variant is reported for context but not the reduction base. The eager
  // scan is reached by hiding the oracle's submodularity.
  const freshsel::selection::SelectionResult exact =
      freshsel::selection::Greedy(
          freshsel::testing::ForcedPathOracle(
              *pipeline.oracle, freshsel::testing::ForcedPath::kEager),
          pipeline.matroid.get());
  const freshsel::selection::SelectionResult lazy_exact =
      freshsel::selection::Greedy(*pipeline.oracle, pipeline.matroid.get());
  std::printf(
      "  exact      : profit %.6f, selected %zu, calls eager %llu / lazy "
      "%llu\n",
      exact.profit, exact.selected.size(),
      static_cast<unsigned long long>(exact.oracle_calls),
      static_cast<unsigned long long>(lazy_exact.oracle_calls));
  report.values["exact_profit"] = exact.profit;
  report.counters["exact_eager_calls"] = exact.oracle_calls;
  report.counters["exact_lazy_calls"] = lazy_exact.oracle_calls;

  const freshsel::StochasticRow eps10 =
      freshsel::RunStochastic(pipeline, 0.1, exact, exact.oracle_calls);
  const freshsel::StochasticRow eps20 =
      freshsel::RunStochastic(pipeline, 0.2, exact, exact.oracle_calls);
  report.values["stochastic_eps10_gain_ratio"] = eps10.gain_ratio;
  report.values["stochastic_eps10_call_reduction"] = eps10.call_reduction;
  report.values["stochastic_eps20_gain_ratio"] = eps20.gain_ratio;
  report.values["stochastic_eps20_call_reduction"] = eps20.call_reduction;
  if (eps10.gain_ratio < 0.95) {
    std::fprintf(stderr,
                 "FAIL: stochastic eps=0.1 gain ratio %.4f < 0.95\n",
                 eps10.gain_ratio);
    ++failures;
  }
  if (eps10.call_reduction < 3.0) {
    std::fprintf(stderr,
                 "FAIL: stochastic eps=0.1 call reduction %.2fx < 3x\n",
                 eps10.call_reduction);
    ++failures;
  }

  if (!check) return 0;
  if (failures == 0) {
    std::printf(
        "kernel check: OK (backend %s %.2fx, fast-math bounded, "
        "stochastic eps=0.1 %.1f%% of exact at %.1fx fewer calls)\n",
        freshsel::simd::kBackendName, timing.speedup,
        eps10.gain_ratio * 100.0, eps10.call_reduction);
  }
  return failures == 0 ? 0 : 1;
}
