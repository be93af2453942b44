// Microbenchmarks + ablations for the selection algorithms on synthetic
// weighted-coverage profit functions: run time / oracle calls vs universe
// size, the lazy (CELF) and cached-oracle accelerations, and the epsilon
// (local-search threshold) sweep called out in DESIGN.md.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "harness/learned_scenario.h"
#include "selection/algorithms.h"
#include "selection/cached_oracle.h"
#include "selection/cost.h"
#include "testing/forced_path_oracle.h"
#include "workloads/bl_generator.h"

namespace freshsel::selection {
namespace {

/// Weighted-coverage submodular gain minus additive cost (the structure of
/// the paper's profit; see also the algorithm tests). Evaluation is
/// stateless (per-call coverage buffer), so the function is thread-safe
/// and the parallel selection paths may share one instance.
class CoverageFunction : public ProfitFunction {
 public:
  static CoverageFunction Random(std::size_t n_elements,
                                 std::size_t n_items, std::uint64_t seed) {
    Rng rng(seed);
    CoverageFunction f;
    f.covers_.resize(n_elements);
    for (auto& c : f.covers_) {
      // Heavy-tailed coverage sizes (quadratic skew): most sources cover a
      // few items, a few cover many - the head/tail split the paper
      // observes in real source populations.
      const std::size_t r = rng.NextBounded(n_items);
      const std::size_t k = 1 + (r * r) / (4 * n_items + 1);
      for (std::size_t j = 0; j < k; ++j) {
        c.push_back(static_cast<int>(rng.NextBounded(n_items)));
      }
    }
    f.item_weights_.resize(n_items);
    for (auto& w : f.item_weights_) {
      const double u = rng.UniformDouble(0.0, 1.0);
      w = 0.05 + u * u;  // Skewed item importance.
    }
    f.costs_.resize(n_elements);
    for (auto& c : f.costs_) c = rng.UniformDouble(0.0, 0.3);
    return f;
  }

  std::size_t universe_size() const override { return covers_.size(); }
  bool submodular() const override { return true; }

  double Profit(const std::vector<SourceHandle>& set) const override {
    ++calls_;
    std::vector<bool> covered(item_weights_.size(), false);
    double cost = 0.0;
    for (SourceHandle e : set) {
      cost += costs_[e];
      for (int item : covers_[e]) {
        covered[static_cast<std::size_t>(item)] = true;
      }
    }
    double gain = 0.0;
    for (std::size_t i = 0; i < covered.size(); ++i) {
      if (covered[i]) gain += item_weights_[i];
    }
    return gain - cost;
  }

  bool thread_safe() const override { return true; }

 private:
  std::vector<std::vector<int>> covers_;
  std::vector<double> item_weights_;
  std::vector<double> costs_;
};

void ReportCalls(benchmark::State& state, const ProfitFunction& f) {
  state.counters["oracle_calls"] = benchmark::Counter(
      static_cast<double>(f.call_count()) /
          static_cast<double>(state.iterations()),
      benchmark::Counter::kAvgThreads);
}

void BM_GreedyVsUniverse(benchmark::State& state) {
  auto f = CoverageFunction::Random(
      static_cast<std::size_t>(state.range(0)), 64, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Greedy(f));
  }
  ReportCalls(state, f);
}
BENCHMARK(BM_GreedyVsUniverse)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

// Lazy (CELF, the default for a submodular oracle) vs eager greedy (the
// same oracle behind testing::ForcedPathOracle) at matched instances:
// identical selections, far fewer full oracle evaluations. `calls` counts
// the oracle evaluations actually made per run and `calls_saved` the
// evaluations the CELF queue skipped; eager spends calls + calls_saved. The
// n=100 rows are the acceptance gate: lazy must evaluate >= 3x fewer than
// eager.
void BM_GreedyEager(benchmark::State& state) {
  auto f = CoverageFunction::Random(
      static_cast<std::size_t>(state.range(0)), 64, 11);
  const testing::ForcedPathOracle eager(f, testing::ForcedPath::kEager);
  SelectionResult result;
  for (auto _ : state) {
    result = Greedy(eager);
    benchmark::DoNotOptimize(result);
  }
  state.counters["calls"] = static_cast<double>(result.oracle_calls);
  ReportCalls(state, f);
}
BENCHMARK(BM_GreedyEager)->Arg(100)->Arg(256)->Arg(1024);

void BM_GreedyLazy(benchmark::State& state) {
  auto f = CoverageFunction::Random(
      static_cast<std::size_t>(state.range(0)), 64, 11);
  SelectionResult result;
  for (auto _ : state) {
    result = Greedy(f);
    benchmark::DoNotOptimize(result);
  }
  state.counters["calls"] = static_cast<double>(result.oracle_calls);
  state.counters["calls_saved"] =
      static_cast<double>(result.oracle_calls_saved);
  state.counters["eager_to_lazy_calls"] =
      static_cast<double>(result.oracle_calls + result.oracle_calls_saved) /
      static_cast<double>(result.oracle_calls);
  ReportCalls(state, f);
}
BENCHMARK(BM_GreedyLazy)->Arg(100)->Arg(256)->Arg(1024);

// Stochastic greedy (GreedyOptions::stochastic) on synthetic instances:
// quality vs speed at epsilon in {0.1, 0.2}. `gain_ratio` is the
// stochastic profit over the exact eager greedy's, `call_reduction` the
// exact evaluation count over the stochastic one - the committed
// acceptance panel (>= 95% gain at >= 3x fewer calls for eps=0.1) runs on
// the scenario-backed pipeline in bench_kernel_check; this is the
// universe-size sweep.
void BM_GreedyStochastic(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const double eps = static_cast<double>(state.range(1)) / 100.0;
  auto f = CoverageFunction::Random(n, 64, 11);
  const SelectionResult exact =
      Greedy(testing::ForcedPathOracle(f, testing::ForcedPath::kEager));
  GreedyOptions options;
  options.stochastic = true;
  options.stochastic_epsilon = eps;
  options.stochastic_k = exact.selected.size();  // Matched sample budget.
  SelectionResult result;
  for (auto _ : state) {
    result = Greedy(f, nullptr, options);
    benchmark::DoNotOptimize(result);
  }
  state.counters["calls"] = static_cast<double>(result.oracle_calls);
  state.counters["gain_ratio"] =
      exact.profit > 0 ? result.profit / exact.profit : 1.0;
  state.counters["call_reduction"] =
      result.oracle_calls > 0
          ? static_cast<double>(exact.oracle_calls) /
                static_cast<double>(result.oracle_calls)
          : 0.0;
  ReportCalls(state, f);
}
BENCHMARK(BM_GreedyStochastic)
    ->Args({100, 10})
    ->Args({100, 20})
    ->Args({1024, 10})
    ->Args({1024, 20})
    ->ArgNames({"n", "eps_x100"});

// Memoizing decorator in front of the oracle: GRASP restarts revisit the
// same sets over and over, so a large share of evaluations become map
// lookups. `cache_hit_rate` is the fraction of evaluations served from the
// cache across the whole run.
void BM_GraspCachedOracle(benchmark::State& state) {
  auto f = CoverageFunction::Random(
      static_cast<std::size_t>(state.range(0)), 64, 17);
  GraspParams params{2, 10, 7};
  CachedProfitOracle cached(f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Grasp(cached, params));
  }
  state.counters["cache_hit_rate"] = cached.stats().hit_rate();
  ReportCalls(state, f);  // Underlying (miss) evaluations only.
}
BENCHMARK(BM_GraspCachedOracle)->Arg(16)->Arg(64)->Arg(256);

// Scenario-backed incremental-oracle panel: greedy selection on a full
// BL-pipeline ProfitOracle (100 sources, 4 eval times, k = 20 cardinality
// matroid), with candidate scoring through the estimator's incremental
// context on vs off. Selections are identical either way (the
// incremental-equivalence tests and bench_incremental_check --check gate
// that); the wall-clock ratio of these two benches is the end-to-end
// speedup the acceptance gate records in BENCH_estimation.json.
struct ScenarioOracleFixture {
  std::unique_ptr<workloads::Scenario> scenario;
  std::unique_ptr<harness::LearnedScenario> learned;
  std::unique_ptr<estimation::QualityEstimator> estimator;
  std::unique_ptr<ProfitOracle> oracle;
  std::unique_ptr<PartitionMatroid> matroid;

  static const ScenarioOracleFixture& Get() {
    static const ScenarioOracleFixture* fixture = [] {
      auto* f = new ScenarioOracleFixture;
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
      f->scenario = std::make_unique<workloads::Scenario>(
          workloads::GenerateBlScenario(config).value());
      f->learned = std::make_unique<harness::LearnedScenario>(
          harness::LearnScenario(*f->scenario).value());
      f->estimator = std::make_unique<estimation::QualityEstimator>(
          estimation::QualityEstimator::Create(
              f->scenario->world, f->learned->world_model, {},
              MakeTimePoints(f->scenario->t0 + 30, 4, 30), {})
              .value());
      std::vector<const estimation::SourceProfile*> profiles;
      for (const auto& profile : f->learned->profiles) {
        profiles.push_back(&profile);
        f->estimator->AddSource(&profile).value();
      }
      ProfitOracle::Config oracle_config;
      oracle_config.budget = std::numeric_limits<double>::infinity();
      // Zero cost weight so greedy runs to the k = 20 matroid cap (the
      // default weight makes the profit peak after a handful of sources).
      oracle_config.cost_weight = 0.0;
      f->oracle = std::make_unique<ProfitOracle>(
          ProfitOracle::Create(f->estimator.get(),
                               CostModel::ItemShareCosts(profiles),
                               oracle_config)
              .value());
      f->matroid = std::make_unique<PartitionMatroid>(
          PartitionMatroid::Create(
              std::vector<std::uint32_t>(profiles.size(), 0), {20})
              .value());
      return f;
    }();
    return *fixture;
  }
};

/// The fixture oracle on the path `lazy` x `incremental` picks: the default
/// path itself, or a reference path through testing::ForcedPathOracle.
std::unique_ptr<testing::ForcedPathOracle> PathOracle(
    const ProfitFunction& oracle, bool lazy, bool incremental) {
  if (lazy && incremental) return nullptr;
  return std::make_unique<testing::ForcedPathOracle>(
      oracle, lazy ? testing::ForcedPath::kPlain
                   : (incremental ? testing::ForcedPath::kEager
                                  : testing::ForcedPath::kEagerPlain));
}

void BM_ScenarioGreedyIncremental(benchmark::State& state) {
  const ScenarioOracleFixture& fixture = ScenarioOracleFixture::Get();
  const auto forced = PathOracle(*fixture.oracle, state.range(0) != 0, true);
  const ProfitFunction& oracle =
      forced ? *forced : static_cast<const ProfitFunction&>(*fixture.oracle);
  SelectionResult result;
  for (auto _ : state) {
    result = Greedy(oracle, fixture.matroid.get());
    benchmark::DoNotOptimize(result);
  }
  state.counters["selected"] = static_cast<double>(result.selected.size());
  state.counters["calls"] = static_cast<double>(result.oracle_calls);
  ReportCalls(state, *fixture.oracle);
}
BENCHMARK(BM_ScenarioGreedyIncremental)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("lazy")
    ->Unit(benchmark::kMillisecond);

void BM_ScenarioGreedyIncrementalOff(benchmark::State& state) {
  const ScenarioOracleFixture& fixture = ScenarioOracleFixture::Get();
  const auto forced = PathOracle(*fixture.oracle, state.range(0) != 0, false);
  SelectionResult result;
  for (auto _ : state) {
    result = Greedy(*forced, fixture.matroid.get());
    benchmark::DoNotOptimize(result);
  }
  state.counters["selected"] = static_cast<double>(result.selected.size());
  state.counters["calls"] = static_cast<double>(result.oracle_calls);
  ReportCalls(state, *fixture.oracle);
}
BENCHMARK(BM_ScenarioGreedyIncrementalOff)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("lazy")
    ->Unit(benchmark::kMillisecond);

// Stochastic greedy on the same scenario-backed pipeline (matroid-derived
// k = 20): the quality-vs-speed row the acceptance gate records - eps=0.1
// must keep >= 95% of the exact gain at >= 3x fewer oracle evaluations
// (enforced by bench_kernel_check --check; reported here as counters).
void BM_ScenarioGreedyStochastic(benchmark::State& state) {
  const ScenarioOracleFixture& fixture = ScenarioOracleFixture::Get();
  static const SelectionResult exact = Greedy(
      testing::ForcedPathOracle(*fixture.oracle, testing::ForcedPath::kEager),
      fixture.matroid.get());
  GreedyOptions options;
  options.stochastic = true;
  options.stochastic_epsilon = static_cast<double>(state.range(0)) / 100.0;
  SelectionResult result;
  for (auto _ : state) {
    result = Greedy(*fixture.oracle, fixture.matroid.get(), options);
    benchmark::DoNotOptimize(result);
  }
  state.counters["selected"] = static_cast<double>(result.selected.size());
  state.counters["calls"] = static_cast<double>(result.oracle_calls);
  state.counters["gain_ratio"] =
      exact.profit > 0 ? result.profit / exact.profit : 1.0;
  state.counters["call_reduction"] =
      result.oracle_calls > 0
          ? static_cast<double>(exact.oracle_calls) /
                static_cast<double>(result.oracle_calls)
          : 0.0;
  ReportCalls(state, *fixture.oracle);
}
BENCHMARK(BM_ScenarioGreedyStochastic)
    ->Arg(10)
    ->Arg(20)
    ->ArgName("eps_x100")
    ->Unit(benchmark::kMillisecond);

// Hill climb (GRASP(1,1)) on the same pipeline: the local-search swap
// scans evaluate every move at the full |S| = k = 20, the regime where
// delta evaluation pays off most (>= 3x end to end, the acceptance gate
// recorded in BENCH_estimation.json).
void BM_ScenarioHillClimbIncremental(benchmark::State& state) {
  const ScenarioOracleFixture& fixture = ScenarioOracleFixture::Get();
  const auto forced =
      PathOracle(*fixture.oracle, true, state.range(0) != 0);
  const ProfitFunction& oracle =
      forced ? *forced : static_cast<const ProfitFunction&>(*fixture.oracle);
  const GraspParams params{1, 1, 42, nullptr};
  SelectionResult result;
  for (auto _ : state) {
    result = Grasp(oracle, params, fixture.matroid.get());
    benchmark::DoNotOptimize(result);
  }
  state.counters["selected"] = static_cast<double>(result.selected.size());
  state.counters["calls"] = static_cast<double>(result.oracle_calls);
  ReportCalls(state, *fixture.oracle);
}
BENCHMARK(BM_ScenarioHillClimbIncremental)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("incremental")
    ->Unit(benchmark::kMillisecond);

void BM_MaxSubVsUniverse(benchmark::State& state) {
  auto f = CoverageFunction::Random(
      static_cast<std::size_t>(state.range(0)), 64, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MaxSub(f));
  }
  ReportCalls(state, f);
}
BENCHMARK(BM_MaxSubVsUniverse)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_GraspVsUniverse(benchmark::State& state) {
  auto f = CoverageFunction::Random(
      static_cast<std::size_t>(state.range(0)), 64, 17);
  GraspParams params{2, 10, 7};
  for (auto _ : state) {
    benchmark::DoNotOptimize(Grasp(f, params));
  }
  ReportCalls(state, f);
}
BENCHMARK(BM_GraspVsUniverse)->Arg(16)->Arg(64)->Arg(256);

// GRASP with candidate marginals fanned out across the shared thread pool.
// Bit-identical selections to the serial run (serial reduction in handle
// order); the speedup scales with cores and evaluation cost.
void BM_GraspParallel(benchmark::State& state) {
  auto f = CoverageFunction::Random(
      static_cast<std::size_t>(state.range(0)), 64, 17);
  GraspParams params{2, 10, 7, &ThreadPool::Shared()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(Grasp(f, params));
  }
  state.counters["pool_threads"] =
      static_cast<double>(ThreadPool::Shared().size());
  ReportCalls(state, f);
}
BENCHMARK(BM_GraspParallel)->Arg(16)->Arg(64)->Arg(256);

void BM_MaxSubEpsilonSweep(benchmark::State& state) {
  // Ablation: larger epsilon = coarser improvement threshold = fewer
  // oracle calls, potentially worse solutions. The solution quality
  // relative to epsilon=0.01 is reported as a counter.
  const double epsilon = static_cast<double>(state.range(0)) / 100.0;
  auto f = CoverageFunction::Random(128, 64, 23);
  const double reference = MaxSub(f, 0.01).profit;
  double profit = 0.0;
  for (auto _ : state) {
    profit = MaxSub(f, epsilon).profit;
    benchmark::DoNotOptimize(profit);
  }
  ReportCalls(state, f);
  state.counters["profit_vs_eps0.01"] =
      reference > 0 ? profit / reference : 1.0;
}
BENCHMARK(BM_MaxSubEpsilonSweep)
    ->Arg(1)
    ->Arg(10)
    ->Arg(50)
    ->Arg(200)
    ->ArgName("eps_x100");

void BM_MatroidLocalSearch(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto f = CoverageFunction::Random(n, 64, 29);
  // Rank-1 partition matroid with n/4 groups of 4 versions each - the
  // varying-frequency structure.
  std::vector<std::uint32_t> group_of(n);
  for (std::size_t i = 0; i < n; ++i) {
    group_of[i] = static_cast<std::uint32_t>(i / 4);
  }
  auto matroid = PartitionMatroid::Create(
                     group_of,
                     std::vector<std::uint32_t>((n + 3) / 4, 1))
                     .value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(MaxSubMatroid(f, {&matroid}));
  }
  ReportCalls(state, f);
}
BENCHMARK(BM_MatroidLocalSearch)->Arg(16)->Arg(64)->Arg(256);

}  // namespace
}  // namespace freshsel::selection
