#include "harness/selection_experiment.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>

#include "common/string_util.h"
#include "obs/macros.h"
#include "obs/metrics.h"
#include "selection/cost.h"
#include "selection/frequency_selection.h"

namespace freshsel::harness {

namespace {

using estimation::QualityEstimator;
using selection::CostModel;
using selection::ProfitOracle;
using selection::SelectionResult;

/// Everything needed to run all algorithms on one domain point. The
/// estimator and oracle live behind unique_ptrs because the oracle holds a
/// pointer to the estimator; heap placement keeps that pointer stable when
/// the setup is moved.
struct PointSetup {
  std::unique_ptr<QualityEstimator> estimator;
  std::unique_ptr<ProfitOracle> oracle;
  // Element -> (source index, divisor); identity divisor 1 when fixed.
  std::vector<std::uint32_t> source_of;
  std::vector<std::int64_t> divisor_of;
  std::optional<selection::PartitionMatroid> matroid;
};

Result<PointSetup> BuildPoint(const LearnedScenario& learned,
                              const DomainPoint& point,
                              const ComparisonConfig& config) {
  TimePoints eval_times;
  eval_times.reserve(config.eval_offsets.size());
  for (std::int64_t offset : config.eval_offsets) {
    eval_times.push_back(learned.t0() + offset);
  }
  FRESHSEL_ASSIGN_OR_RETURN(
      QualityEstimator estimator_value,
      QualityEstimator::Create(learned.world(), learned.world_model,
                               point.subdomains, eval_times));
  auto estimator_ptr =
      std::make_unique<QualityEstimator>(std::move(estimator_value));
  QualityEstimator& estimator = *estimator_ptr;

  std::vector<const estimation::SourceProfile*> profile_ptrs;
  profile_ptrs.reserve(learned.profiles.size());
  for (const auto& profile : learned.profiles) {
    profile_ptrs.push_back(&profile);
  }
  FRESHSEL_ASSIGN_OR_RETURN(
      selection::SelectionUniverse universe,
      selection::BuildSelectionUniverse(estimator, profile_ptrs,
                                        CostModel::ItemShareCosts(profile_ptrs),
                                        config.max_divisor));

  ProfitOracle::Config oracle_config;
  oracle_config.gain = config.gain;
  oracle_config.budget = config.budget;
  oracle_config.cost_weight = config.cost_weight;

  FRESHSEL_ASSIGN_OR_RETURN(
      ProfitOracle oracle_value,
      ProfitOracle::Create(estimator_ptr.get(), std::move(universe.costs),
                           oracle_config));
  PointSetup setup;
  setup.estimator = std::move(estimator_ptr);
  setup.oracle = std::make_unique<ProfitOracle>(std::move(oracle_value));
  setup.source_of = std::move(universe.source_of);
  setup.divisor_of = std::move(universe.divisor_of);
  setup.matroid = std::move(universe.matroid);
  return setup;
}

}  // namespace

Result<std::vector<AlgoAggregate>> RunComparison(
    const LearnedScenario& learned,
    const std::vector<workloads::SourceClass>& classes,
    const std::vector<DomainPoint>& points, const ComparisonConfig& config) {
  if (classes.size() != learned.profiles.size()) {
    return Status::InvalidArgument(
        "need one source class per learned profile");
  }
  FRESHSEL_TRACE_SPAN("harness/run_comparison");
  std::vector<AlgoAggregate> aggregates(config.algorithms.size());
  for (std::size_t a = 0; a < config.algorithms.size(); ++a) {
    aggregates[a].name = config.algorithms[a].Name();
  }

  // Per-run latency histogram: every algorithm invocation across every
  // domain point lands in one distribution (the old raw WallTimer reading
  // still feeds the per-algorithm RunningStats below).
  obs::Histogram& run_latency =
      obs::MetricsRegistry::Global().GetHistogram("harness.algo_run.seconds");

  for (const DomainPoint& point : points) {
    FRESHSEL_TRACE_SPAN("harness/domain_point");
    FRESHSEL_OBS_COUNT("harness.domain_points.evaluated", 1);
    FRESHSEL_ASSIGN_OR_RETURN(PointSetup setup,
                              BuildPoint(learned, point, config));
    const selection::PartitionMatroid* matroid =
        setup.matroid.has_value() ? &*setup.matroid : nullptr;

    std::vector<SelectionResult> results(config.algorithms.size());
    std::vector<double> runtimes(config.algorithms.size());
    for (std::size_t a = 0; a < config.algorithms.size(); ++a) {
      const AlgoSpec& algo = config.algorithms[a];
      selection::SelectorConfig selector_config;
      selector_config.algorithm = algo.algorithm;
      selector_config.epsilon = config.epsilon;
      selector_config.grasp_kappa = algo.kappa;
      selector_config.grasp_restarts = algo.restarts;
      selector_config.seed = config.seed;
      selector_config.report = config.report;
      obs::ScopedLatencyTimer timer(run_latency);
      FRESHSEL_ASSIGN_OR_RETURN(
          results[a],
          selection::SelectSources(*setup.oracle, selector_config, matroid));
      runtimes[a] = timer.ElapsedMillis();
    }

    double best_profit = -std::numeric_limits<double>::infinity();
    for (const SelectionResult& result : results) {
      best_profit = std::max(best_profit, result.profit);
    }

    for (std::size_t a = 0; a < config.algorithms.size(); ++a) {
      AlgoAggregate& agg = aggregates[a];
      const SelectionResult& result = results[a];
      agg.run_count += 1;
      agg.runtime_ms.Add(runtimes[a]);
      agg.oracle_calls.Add(static_cast<double>(result.oracle_calls));
      const double denom = std::max(std::fabs(best_profit), 1e-9);
      const double diff_pct = 100.0 * (best_profit - result.profit) / denom;
      if (diff_pct <= 1e-6) {
        agg.best_count += 1;
      } else {
        agg.profit_diff_pct.Add(diff_pct);
      }

      const estimation::EstimatedQuality quality =
          setup.estimator->EstimateAverage(result.selected);
      agg.quality.Add(config.gain.MetricValue(quality));
      agg.coverage.Add(quality.coverage);
      // Count distinct original sources (relevant for augmented sets).
      std::vector<std::uint32_t> distinct;
      for (selection::SourceHandle h : result.selected) {
        distinct.push_back(setup.source_of[h]);
      }
      std::sort(distinct.begin(), distinct.end());
      distinct.erase(std::unique(distinct.begin(), distinct.end()),
                     distinct.end());
      agg.n_sources.Add(static_cast<double>(distinct.size()));

      for (selection::SourceHandle h : result.selected) {
        const std::uint32_t source = setup.source_of[h];
        const workloads::SourceClass cls = classes[source];
        agg.selected_by_class[cls] += 1;
        agg.selected_size.Add(static_cast<double>(
            learned.profiles[source].sig_t0.all.Count()));
        agg.selected_scope.Add(static_cast<double>(
            learned.profiles[source].observed_scope.size()));
        if (config.max_divisor > 1) {
          agg.divisor_by_class[cls].Add(
              static_cast<double>(setup.divisor_of[h]));
        }
      }
    }
  }
  return aggregates;
}

std::vector<DomainPoint> LargestSubdomainPoints(const world::World& world,
                                                TimePoint t0,
                                                std::size_t count,
                                                std::uint32_t dim1_filter) {
  std::vector<std::pair<std::int64_t, world::SubdomainId>> sizes;
  for (world::SubdomainId sub = 0; sub < world.domain().subdomain_count();
       ++sub) {
    if (dim1_filter != UINT32_MAX &&
        world.domain().Dim1Of(sub) != dim1_filter) {
      continue;
    }
    sizes.emplace_back(world.CountAt(sub, t0), sub);
  }
  std::sort(sizes.begin(), sizes.end(), [](const auto& a, const auto& b) {
    return a.first > b.first;
  });
  std::vector<DomainPoint> points;
  for (std::size_t i = 0; i < std::min(count, sizes.size()); ++i) {
    const world::SubdomainId sub = sizes[i].second;
    points.push_back(DomainPoint{
        StringPrintf("%s%u-%s%u", world.domain().dim1_name().c_str(),
                     world.domain().Dim1Of(sub),
                     world.domain().dim2_name().c_str(),
                     world.domain().Dim2Of(sub)),
        {sub}});
  }
  return points;
}

}  // namespace freshsel::harness
