// Reproduces Figure 13: scalability of the selection algorithms.
//  (a) run time vs number of available sources, on the BL+ micro-source
//      datasets (43 -> 8,643 sources in FULL mode);
//  (b) run time vs the size of the queried data domain (number of
//      (location, category) pairs), on BL, for coverage and accuracy gains.

#include <cstdint>
#include <iostream>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "harness/learned_scenario.h"
#include "harness/selection_experiment.h"
#include "selection/cached_oracle.h"
#include "selection/cost.h"
#include "selection/selector.h"
#include "testing/forced_path_oracle.h"
#include "workloads/blplus_generator.h"

namespace freshsel {
namespace {

struct Entrant {
  harness::AlgoSpec spec;
  double runtime_ms = 0.0;
  std::uint64_t oracle_calls = 0;
};

/// Runs every entrant once on the given estimator universe and records
/// wall time.
Status RunEntrants(const estimation::QualityEstimator& estimator,
                   const std::vector<double>& costs,
                   selection::QualityMetric metric,
                   std::vector<Entrant>& entrants) {
  selection::ProfitOracle::Config oracle_config;
  oracle_config.gain =
      selection::GainModel(selection::GainFamily::kLinear, metric);
  FRESHSEL_ASSIGN_OR_RETURN(
      selection::ProfitOracle oracle,
      selection::ProfitOracle::Create(&estimator, costs, oracle_config));
  for (Entrant& entrant : entrants) {
    selection::SelectorConfig config;
    config.algorithm = entrant.spec.algorithm;
    config.grasp_kappa = entrant.spec.kappa;
    config.grasp_restarts = entrant.spec.restarts;
    oracle.ResetCallCount();
    obs::ScopedLatencyTimer timer(obs::MetricsRegistry::Global().GetHistogram(
        "bench.fig13.select.seconds"));
    FRESHSEL_ASSIGN_OR_RETURN(selection::SelectionResult result,
                              selection::SelectSources(oracle, config));
    entrant.runtime_ms = timer.ElapsedMillis();
    entrant.oracle_calls = result.oracle_calls;
  }
  return Status::OK();
}

std::vector<Entrant> MakeEntrants(bool full) {
  std::vector<Entrant> entrants = {
      {{selection::Algorithm::kGreedy, 1, 1}},
      {{selection::Algorithm::kMaxSub, 1, 1}},
      {{selection::Algorithm::kGrasp, 1, 1}},
      {{selection::Algorithm::kGrasp, 2, 10}},
      {{selection::Algorithm::kGrasp, 5, 20}},
  };
  if (full) entrants.push_back({{selection::Algorithm::kGrasp, 10, 100}});
  return entrants;
}

Status PanelA(const workloads::Scenario& bl) {
  std::vector<std::uint32_t> micro_counts = {0, 1, 2, 5, 10, 20};
  if (bench::FullMode()) {
    micro_counts.push_back(50);
    micro_counts.push_back(100);
    micro_counts.push_back(200);
  }
  std::vector<Entrant> entrants = MakeEntrants(bench::FullMode());
  std::vector<std::string> labels;
  for (const Entrant& e : entrants) labels.push_back(e.spec.Name());
  TablePrinter table("Fig 13(a): run time (ms) vs number of sources (BL+)",
                     [&] {
                       std::vector<std::string> cols{"#sources"};
                       cols.insert(cols.end(), labels.begin(), labels.end());
                       return cols;
                     }());

  // Selection over the single largest domain point, 10 future time points.
  std::vector<harness::DomainPoint> point =
      harness::LargestSubdomainPoints(bl.world, bl.t0, 1);
  TimePoints eval_times;
  for (int i = 1; i <= 10; ++i) eval_times.push_back(bl.t0 + 7 * i);

  for (std::uint32_t micro : micro_counts) {
    FRESHSEL_ASSIGN_OR_RETURN(
        workloads::MicroRoster roster,
        workloads::GenerateBlPlusRoster(bl, micro, /*seed=*/101));
    FRESHSEL_ASSIGN_OR_RETURN(
        harness::LearnedScenario learned,
        harness::LearnScenarioWithSources(bl, roster.sources));
    FRESHSEL_ASSIGN_OR_RETURN(
        estimation::QualityEstimator estimator,
        estimation::QualityEstimator::Create(bl.world, learned.world_model,
                                             point[0].subdomains,
                                             eval_times));
    std::vector<const estimation::SourceProfile*> profiles;
    for (const auto& p : learned.profiles) profiles.push_back(&p);
    for (const auto* p : profiles) {
      FRESHSEL_ASSIGN_OR_RETURN(auto handle, estimator.AddSource(p, 1));
      (void)handle;
    }
    std::vector<double> costs =
        selection::CostModel::ItemShareCosts(profiles);
    FRESHSEL_RETURN_IF_ERROR(RunEntrants(
        estimator, costs, selection::QualityMetric::kCoverage, entrants));
    std::vector<std::string> row{std::to_string(roster.sources.size())};
    for (const Entrant& e : entrants) {
      row.push_back(FormatDouble(e.runtime_ms, 1));
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  std::printf("(paper: MaxSub is one to two orders of magnitude faster "
              "than the best GRASP configurations and scales better)\n\n");
  return Status::OK();
}

Status PanelB(const workloads::Scenario& bl,
              const harness::LearnedScenario& learned) {
  std::vector<std::size_t> domain_sizes = {1, 50, 100, 200};
  if (bench::FullMode()) {
    domain_sizes.push_back(300);
    domain_sizes.push_back(400);
    domain_sizes.push_back(500);
  }
  std::vector<Entrant> cov_entrants = {
      {{selection::Algorithm::kGreedy, 1, 1}},
      {{selection::Algorithm::kMaxSub, 1, 1}},
      {{selection::Algorithm::kGrasp, 1, 1}},
      {{selection::Algorithm::kGrasp, 5, 20}},
  };
  std::vector<Entrant> acc_entrants = cov_entrants;

  std::vector<std::string> cols{"domain_size"};
  for (const Entrant& e : cov_entrants) cols.push_back("cov-" + e.spec.Name());
  for (const Entrant& e : acc_entrants) cols.push_back("acc-" + e.spec.Name());
  TablePrinter table(
      "Fig 13(b): run time (ms) vs data-domain size (BL, 12 categories)",
      cols);

  TimePoints eval_times;
  for (int i = 1; i <= 10; ++i) eval_times.push_back(bl.t0 + 7 * i);
  std::vector<const estimation::SourceProfile*> profiles;
  for (const auto& p : learned.profiles) profiles.push_back(&p);
  const std::vector<double> costs =
      selection::CostModel::ItemShareCosts(profiles);

  for (std::size_t size : domain_sizes) {
    if (size > bl.domain().subdomain_count()) break;
    std::vector<world::SubdomainId> domain;
    for (std::size_t sub = 0; sub < size; ++sub) {
      domain.push_back(static_cast<world::SubdomainId>(sub));
    }
    FRESHSEL_ASSIGN_OR_RETURN(
        estimation::QualityEstimator estimator,
        estimation::QualityEstimator::Create(bl.world, learned.world_model,
                                             domain, eval_times));
    for (const auto* p : profiles) {
      FRESHSEL_ASSIGN_OR_RETURN(auto handle, estimator.AddSource(p, 1));
      (void)handle;
    }
    FRESHSEL_RETURN_IF_ERROR(
        RunEntrants(estimator, costs, selection::QualityMetric::kCoverage,
                    cov_entrants));
    FRESHSEL_RETURN_IF_ERROR(
        RunEntrants(estimator, costs, selection::QualityMetric::kAccuracy,
                    acc_entrants));
    std::vector<std::string> row{std::to_string(size)};
    for (const Entrant& e : cov_entrants) {
      row.push_back(FormatDouble(e.runtime_ms, 1));
    }
    for (const Entrant& e : acc_entrants) {
      row.push_back(FormatDouble(e.runtime_ms, 1));
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  std::printf("(paper: MaxSub stays an order of magnitude faster than "
              "GRASP-(5,20) as the queried domain grows)\n");
  return Status::OK();
}

/// One configuration of the oracle-acceleration ablation in Panel C.
struct AccelVariant {
  const char* label;
  selection::Algorithm algorithm;
  int kappa;
  int restarts;
  bool lazy;       ///< CELF lazy greedy (vs the eager full re-scan,
                   ///< reached through testing::ForcedPathOracle).
  bool use_pool;   ///< Shared thread pool for GRASP candidate marginals.
  bool use_cache;  ///< Wrap the oracle in CachedProfitOracle.
  int baseline;    ///< Index of the unaccelerated row to compare, or -1.
};

/// Panel (c): same pipeline as Panel (a) at fixed roster sizes, isolating
/// the acceleration layer. Every variant returns identical selections; the
/// table shows what each one pays for them.
Status PanelC(const workloads::Scenario& bl) {
  std::vector<std::uint32_t> micro_counts = {5, 20};
  if (bench::FullMode()) micro_counts.push_back(100);

  const std::vector<AccelVariant> variants = {
      {"greedy-eager", selection::Algorithm::kGreedy, 1, 1,
       false, false, false, -1},
      {"greedy-lazy", selection::Algorithm::kGreedy, 1, 1,
       true, false, false, 0},
      {"grasp(2,10)", selection::Algorithm::kGrasp, 2, 10,
       true, false, false, -1},
      {"grasp(2,10)+pool", selection::Algorithm::kGrasp, 2, 10,
       true, true, false, 2},
      {"grasp(2,10)+cache", selection::Algorithm::kGrasp, 2, 10,
       true, false, true, 2},
  };

  TablePrinter table(
      "Fig 13(c): oracle-acceleration ablation (BL+, coverage gain)",
      {"#sources", "variant", "ms", "oracle_calls", "calls_saved",
       "hit_rate", "speedup"});

  std::vector<harness::DomainPoint> point =
      harness::LargestSubdomainPoints(bl.world, bl.t0, 1);
  TimePoints eval_times;
  for (int i = 1; i <= 10; ++i) eval_times.push_back(bl.t0 + 7 * i);

  for (std::uint32_t micro : micro_counts) {
    FRESHSEL_ASSIGN_OR_RETURN(
        workloads::MicroRoster roster,
        workloads::GenerateBlPlusRoster(bl, micro, /*seed=*/101));
    FRESHSEL_ASSIGN_OR_RETURN(
        harness::LearnedScenario learned,
        harness::LearnScenarioWithSources(bl, roster.sources));
    FRESHSEL_ASSIGN_OR_RETURN(
        estimation::QualityEstimator estimator,
        estimation::QualityEstimator::Create(bl.world, learned.world_model,
                                             point[0].subdomains,
                                             eval_times));
    std::vector<const estimation::SourceProfile*> profiles;
    for (const auto& p : learned.profiles) profiles.push_back(&p);
    for (const auto* p : profiles) {
      FRESHSEL_ASSIGN_OR_RETURN(auto handle, estimator.AddSource(p, 1));
      (void)handle;
    }
    std::vector<double> costs =
        selection::CostModel::ItemShareCosts(profiles);
    selection::ProfitOracle::Config oracle_config;
    oracle_config.gain = selection::GainModel(
        selection::GainFamily::kLinear, selection::QualityMetric::kCoverage);
    FRESHSEL_ASSIGN_OR_RETURN(
        selection::ProfitOracle oracle,
        selection::ProfitOracle::Create(&estimator, costs, oracle_config));

    const testing::ForcedPathOracle eager(oracle,
                                          testing::ForcedPath::kEager);
    std::vector<double> times(variants.size(), 0.0);
    for (std::size_t i = 0; i < variants.size(); ++i) {
      const AccelVariant& v = variants[i];
      const selection::ProfitFunction& base =
          v.lazy ? static_cast<const selection::ProfitFunction&>(oracle)
                 : eager;
      selection::SelectorConfig config;
      config.algorithm = v.algorithm;
      config.grasp_kappa = v.kappa;
      config.grasp_restarts = v.restarts;
      if (v.use_pool) config.pool = &ThreadPool::Shared();
      oracle.ResetCallCount();
      obs::ScopedLatencyTimer timer(
          obs::MetricsRegistry::Global().GetHistogram(
              "bench.fig13.accel.seconds"));
      selection::SelectionResult result;
      if (v.use_cache) {
        selection::CachedProfitOracle cached(base);
        FRESHSEL_ASSIGN_OR_RETURN(result,
                                  selection::SelectSources(cached, config));
        result.cache_hit_rate = cached.stats().hit_rate();
      } else {
        FRESHSEL_ASSIGN_OR_RETURN(result,
                                  selection::SelectSources(base, config));
      }
      times[i] = timer.ElapsedMillis();
      const double speedup =
          v.baseline >= 0 && times[i] > 0.0 ? times[v.baseline] / times[i]
                                            : 1.0;
      table.AddRow({std::to_string(roster.sources.size()), v.label,
                    FormatDouble(times[i], 1),
                    std::to_string(result.oracle_calls),
                    std::to_string(result.oracle_calls_saved),
                    FormatDouble(result.cache_hit_rate, 2),
                    FormatDouble(speedup, 2) + "x"});
    }
  }
  table.Print(std::cout);
  std::printf("(all variants return identical selections; lazy/cache/pool "
              "only change what the answer costs)\n");
  return Status::OK();
}

}  // namespace
}  // namespace freshsel

int main(int argc, char** argv) {
  freshsel::bench::ObsSession obs_session("bench_fig13_scalability", &argc, argv);
  using namespace freshsel;
  bench::PrintHeader("bench_fig13_scalability",
                     "Figure 13 (a), (b): selection run time vs #sources "
                     "and vs domain size");
  Result<workloads::Scenario> bl =
      workloads::GenerateBlScenario(bench::WideBl());
  if (!bl.ok()) return 1;
  Status a = PanelA(*bl);
  if (!a.ok()) {
    std::fprintf(stderr, "panel (a): %s\n", a.ToString().c_str());
    return 1;
  }
  Result<harness::LearnedScenario> learned = harness::LearnScenario(*bl);
  if (!learned.ok()) return 1;
  Status b = PanelB(*bl, *learned);
  if (!b.ok()) {
    std::fprintf(stderr, "panel (b): %s\n", b.ToString().c_str());
    return 1;
  }
  std::printf("\n");
  Status c = PanelC(*bl);
  if (!c.ok()) {
    std::fprintf(stderr, "panel (c): %s\n", c.ToString().c_str());
    return 1;
  }
  return 0;
}
