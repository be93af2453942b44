// Microbenchmarks + ablations for the quality-estimation kernel: oracle-call
// latency vs set size and horizon, registered vs ad-hoc factor tables,
// signature union width, and the estimator model variants called out in
// DESIGN.md.
// BM_ReadScenarioDir times the scenario-ingest layer in front of them.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/bit_vector.h"
#include "common/check.h"
#include "common/random.h"
#include "common/simd.h"
#include "estimation/quality_estimator.h"
#include "harness/learned_scenario.h"
#include "io/scenario_io.h"
#include "serve/ingest.h"
#include "workloads/bl_generator.h"

namespace freshsel {
namespace {

/// Shared scenario + learned models, built once per process. Never
/// destroyed (static-lifetime benchmark data).
struct MicroFixture {
  const workloads::Scenario& scenario;
  const harness::LearnedScenario& learned;

  static const MicroFixture& Get() {
    static const MicroFixture* fixture = [] {
      workloads::BlConfig config;
      config.locations = 20;
      config.categories = 6;
      config.horizon = 480;
      config.t0 = 300;
      config.scale = 0.6;
      auto* scenario = new workloads::Scenario(
          workloads::GenerateBlScenario(config).value());
      auto* learned = new harness::LearnedScenario(
          harness::LearnScenario(*scenario).value());
      return new MicroFixture{*scenario, *learned};
    }();
    return *fixture;
  }
};

estimation::QualityEstimator MakeEstimator(
    const MicroFixture& fixture, TimePoint horizon_days,
    estimation::QualityEstimator::Options options = {}) {
  TimePoints eval_times{fixture.scenario.t0 + horizon_days};
  auto estimator = estimation::QualityEstimator::Create(
                       fixture.scenario.world, fixture.learned.world_model,
                       {}, eval_times, options)
                       .value();
  for (const auto& profile : fixture.learned.profiles) {
    estimator.AddSource(&profile, 1).value();
  }
  return estimator;
}

std::vector<estimation::QualityEstimator::SourceHandle> FirstK(std::size_t k) {
  std::vector<estimation::QualityEstimator::SourceHandle> set;
  for (std::size_t i = 0; i < k; ++i) {
    set.push_back(static_cast<estimation::QualityEstimator::SourceHandle>(i));
  }
  return set;
}

void BM_EstimateVsSetSize(benchmark::State& state) {
  const MicroFixture& fixture = MicroFixture::Get();
  auto estimator = MakeEstimator(fixture, 60);
  const auto set = FirstK(static_cast<std::size_t>(state.range(0)));
  const TimePoint t = fixture.scenario.t0 + 60;
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.Estimate(set, t));
  }
}
BENCHMARK(BM_EstimateVsSetSize)->Arg(1)->Arg(4)->Arg(16)->Arg(43);

void BM_EstimateVsHorizon(benchmark::State& state) {
  const MicroFixture& fixture = MicroFixture::Get();
  const TimePoint horizon = state.range(0);
  auto estimator = MakeEstimator(fixture, horizon);
  const auto set = FirstK(8);
  const TimePoint t = fixture.scenario.t0 + horizon;
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.Estimate(set, t));
  }
}
BENCHMARK(BM_EstimateVsHorizon)->Arg(7)->Arg(30)->Arg(90)->Arg(180);

void BM_EstimateCacheAblation(benchmark::State& state) {
  // cache=1 evaluates at the registered eval time (tables built at
  // AddSource); cache=0 registers the day before, so the same call folds
  // the factors ad hoc.
  const MicroFixture& fixture = MicroFixture::Get();
  auto estimator = MakeEstimator(fixture, state.range(0) != 0 ? 90 : 89);
  const auto set = FirstK(8);
  const TimePoint t = fixture.scenario.t0 + 90;
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.Estimate(set, t));
  }
}
BENCHMARK(BM_EstimateCacheAblation)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("cache");

void BM_EstimateSurvivalVariant(benchmark::State& state) {
  const MicroFixture& fixture = MicroFixture::Get();
  estimation::QualityEstimator::Options options;
  options.per_event_survival = state.range(0) != 0;
  auto estimator = MakeEstimator(fixture, 90, options);
  const auto set = FirstK(8);
  const TimePoint t = fixture.scenario.t0 + 90;
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.Estimate(set, t));
  }
}
BENCHMARK(BM_EstimateSurvivalVariant)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("per_event");

void BM_EstimateModelExtensions(benchmark::State& state) {
  // Ablation: cost of the estimator extensions (DESIGN.md section 5).
  // arg 0: 0=paper-faithful, 1=+capture backlog, 2=+ghost result,
  // 3=both.
  const MicroFixture& fixture = MicroFixture::Get();
  estimation::QualityEstimator::Options options;
  options.model_capture_backlog = state.range(0) == 1 || state.range(0) == 3;
  options.model_ghost_result = state.range(0) == 2 || state.range(0) == 3;
  auto estimator = MakeEstimator(fixture, 90, options);
  const auto set = FirstK(8);
  const TimePoint t = fixture.scenario.t0 + 90;
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.Estimate(set, t));
  }
}
BENCHMARK(BM_EstimateModelExtensions)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->ArgName("ext");

// Incremental delta evaluation vs the full oracle at matched set sizes:
// `EstimateWith` multiplies one candidate factor into the context's
// running per-tau products, so its cost is O(steps) regardless of |S|,
// while the full `Estimate` of S + {x} refolds every member. The ratio of
// these two panels is the per-call speedup the greedy loop's inner scan
// sees (the end-to-end gate lives in bench_incremental_check).
void BM_EstimateFullAppend(benchmark::State& state) {
  const MicroFixture& fixture = MicroFixture::Get();
  auto estimator = MakeEstimator(fixture, 60);
  auto set = FirstK(static_cast<std::size_t>(state.range(0)));
  const auto candidate = static_cast<
      estimation::QualityEstimator::SourceHandle>(
      estimator.source_count() - 1);
  set.push_back(candidate);
  const TimePoint t = fixture.scenario.t0 + 60;
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.Estimate(set, t));
  }
}
BENCHMARK(BM_EstimateFullAppend)->Arg(1)->Arg(8)->Arg(16)->Arg(32);

void BM_EstimateIncrementalDelta(benchmark::State& state) {
  const MicroFixture& fixture = MicroFixture::Get();
  auto estimator = MakeEstimator(fixture, 60);
  estimation::QualityEstimator::EvalContext ctx =
      estimator.MakeEvalContext();
  for (const auto handle :
       FirstK(static_cast<std::size_t>(state.range(0)))) {
    ctx.Push(handle);
  }
  const auto candidate = static_cast<
      estimation::QualityEstimator::SourceHandle>(
      estimator.source_count() - 1);
  const TimePoint t = fixture.scenario.t0 + 60;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.EstimateWith(candidate, t));
  }
}
BENCHMARK(BM_EstimateIncrementalDelta)->Arg(1)->Arg(8)->Arg(16)->Arg(32);

// Batched multi-time estimation: one union-signature pass shared by all
// eval times vs one full `Estimate` per time point.
void BM_EstimateFourTimesLooped(benchmark::State& state) {
  const MicroFixture& fixture = MicroFixture::Get();
  TimePoints eval_times;
  for (TimePoint d : {15, 30, 45, 60}) {
    eval_times.push_back(fixture.scenario.t0 + d);
  }
  auto estimator = estimation::QualityEstimator::Create(
                       fixture.scenario.world, fixture.learned.world_model,
                       {}, eval_times, {})
                       .value();
  for (const auto& profile : fixture.learned.profiles) {
    estimator.AddSource(&profile, 1).value();
  }
  const auto set = FirstK(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    for (TimePoint t : eval_times) {
      benchmark::DoNotOptimize(estimator.Estimate(set, t));
    }
  }
}
BENCHMARK(BM_EstimateFourTimesLooped)->Arg(8)->Arg(32);

void BM_EstimateFourTimesBatched(benchmark::State& state) {
  const MicroFixture& fixture = MicroFixture::Get();
  TimePoints eval_times;
  for (TimePoint d : {15, 30, 45, 60}) {
    eval_times.push_back(fixture.scenario.t0 + d);
  }
  auto estimator = estimation::QualityEstimator::Create(
                       fixture.scenario.world, fixture.learned.world_model,
                       {}, eval_times, {})
                       .value();
  for (const auto& profile : fixture.learned.profiles) {
    estimator.AddSource(&profile, 1).value();
  }
  const auto set = FirstK(static_cast<std::size_t>(state.range(0)));
  std::vector<estimation::EstimatedQuality> out;
  for (auto _ : state) {
    estimator.EstimateAllTimes(set, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_EstimateFourTimesBatched)->Arg(8)->Arg(32);

// SIMD kernel panels (DESIGN.md section 13): the miss-product fold at the
// estimator's own array shapes, on the configured backend vs the
// always-compiled scalar reference (the same loop on x86-64, where the
// vector path comes from the dispatched callers instead; bench_kernel_check
// times those).
std::vector<double> KernelFactors(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (double& v : out) v = rng.UniformDouble(0.05, 1.0);
  return out;
}

void BM_KernelMissProductActive(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<double> src = KernelFactors(n, 31);
  std::vector<double> dst(n, 1.0);
  for (auto _ : state) {
    simd::MulInPlaceFloored(dst.data(), src.data(), n,
                            estimation::kMissProductFloor);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetLabel(simd::kBackendName);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 16);
}
BENCHMARK(BM_KernelMissProductActive)->Arg(64)->Arg(430)->Arg(4096);

void BM_KernelMissProductScalar(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<double> src = KernelFactors(n, 31);
  std::vector<double> dst(n, 1.0);
  for (auto _ : state) {
    simd::scalar::MulInPlaceFloored(dst.data(), src.data(), n,
                                    estimation::kMissProductFloor);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 16);
}
BENCHMARK(BM_KernelMissProductScalar)->Arg(64)->Arg(430)->Arg(4096);

void BM_SignatureUnionCount(benchmark::State& state) {
  const std::size_t width = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  std::vector<BitVector> vectors(16, BitVector(width));
  for (auto& v : vectors) {
    for (std::size_t i = 0; i < width / 8; ++i) {
      v.Set(static_cast<std::size_t>(rng.NextBounded(width)));
    }
  }
  std::vector<const BitVector*> ptrs;
  for (const auto& v : vectors) ptrs.push_back(&v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BitVector::UnionCountOf(ptrs));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(width / 8) * 16);
}
BENCHMARK(BM_SignatureUnionCount)
    ->Arg(1 << 10)
    ->Arg(1 << 14)
    ->Arg(1 << 17)
    ->ArgName("bits");

void BM_LearnSourceProfile(benchmark::State& state) {
  const MicroFixture& fixture = MicroFixture::Get();
  const auto& scenario = fixture.scenario;
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimation::LearnSourceProfile(
        scenario.world, scenario.sources[0], scenario.t0));
  }
}
BENCHMARK(BM_LearnSourceProfile);

/// The default BL panel (the one perfbench serves) written once per process
/// in the `freshsel simulate` layout, removed at exit.
struct PanelDir {
  std::string path;
  std::uint64_t bytes = 0;
  std::uint64_t records = 0;

  PanelDir() {
    const workloads::Scenario scenario =
        workloads::GenerateBlScenario(workloads::BlConfig()).value();
    path = (std::filesystem::temp_directory_path() /
            ("freshsel_bm_read_" + std::to_string(::getpid())))
               .string();
    std::filesystem::create_directories(path);
    FRESHSEL_CHECK(
        io::WriteWorldCsv(scenario.world, path + "/world.csv").ok());
    for (std::size_t i = 0; i < scenario.sources.size(); ++i) {
      char name[32];
      std::snprintf(name, sizeof(name), "/source_%03zu.csv", i);
      FRESHSEL_CHECK(
          io::WriteSourceHistoryCsv(scenario.sources[i], path + name).ok());
      records += scenario.sources[i].records().size();
    }
    for (const auto& entry : std::filesystem::directory_iterator(path)) {
      bytes += entry.file_size();
    }
  }
  ~PanelDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

void BM_ReadScenarioDir(benchmark::State& state) {
  static const PanelDir panel;
  const fault::RetryPolicy retry;
  for (auto _ : state) {
    Result<serve::ScenarioDirData> data =
        serve::ReadScenarioDir(panel.path, retry);
    FRESHSEL_CHECK(data.ok());
    benchmark::DoNotOptimize(data);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(panel.bytes));
  state.counters["records_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(panel.records),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ReadScenarioDir)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace freshsel
