// Acceleration-layer equivalence suite: the lazy (CELF) evaluation order,
// the memoizing oracle decorator, and the thread-pool parallel paths are
// pure accelerations - selections and profits must be byte-identical to
// the plain implementations, on synthetic functions and on full BL / BL+
// scenario oracles, across seeds. The eager reference runs go through
// testing::ForcedPathOracle, which hides the oracle's submodularity.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "harness/learned_scenario.h"
#include "selection/algorithms.h"
#include "selection/budgeted_greedy.h"
#include "selection/cached_oracle.h"
#include "selection/cost.h"
#include "testing/forced_path_oracle.h"
#include "workloads/bl_generator.h"
#include "workloads/blplus_generator.h"

namespace freshsel::selection {
namespace {

/// Weighted-coverage-minus-cost profit (monotone submodular gain, additive
/// cost), thread-safe via stateless evaluation.
class CoverageFunction : public ProfitFunction {
 public:
  CoverageFunction(std::vector<std::vector<int>> covers,
                   std::vector<double> item_weights,
                   std::vector<double> costs)
      : covers_(std::move(covers)),
        item_weights_(std::move(item_weights)),
        costs_(std::move(costs)) {}

  std::size_t universe_size() const override { return covers_.size(); }
  bool submodular() const override { return true; }
  double Profit(const std::vector<SourceHandle>& set) const override {
    ++calls_;
    std::vector<bool> covered(item_weights_.size(), false);
    double cost = 0.0;
    for (SourceHandle e : set) {
      cost += costs_[e];
      for (int item : covers_[e]) covered[item] = true;
    }
    double gain = 0.0;
    for (std::size_t i = 0; i < covered.size(); ++i) {
      if (covered[i]) gain += item_weights_[i];
    }
    return gain - cost;
  }
  bool thread_safe() const override { return true; }

  static CoverageFunction Random(std::size_t n_elements,
                                 std::size_t n_items, double cost_scale,
                                 Rng& rng) {
    std::vector<std::vector<int>> covers(n_elements);
    for (auto& c : covers) {
      const std::size_t k = 1 + rng.NextBounded(n_items / 2);
      for (std::size_t j = 0; j < k; ++j) {
        c.push_back(static_cast<int>(rng.NextBounded(n_items)));
      }
    }
    std::vector<double> weights(n_items);
    for (auto& weight : weights) weight = rng.UniformDouble(0.1, 1.0);
    std::vector<double> costs(n_elements);
    for (auto& cost : costs) cost = rng.UniformDouble(0.0, cost_scale);
    return CoverageFunction(std::move(covers), std::move(weights),
                            std::move(costs));
  }

 private:
  std::vector<std::vector<int>> covers_;
  std::vector<double> item_weights_;
  std::vector<double> costs_;
};

/// The eager full-scan reference path over `oracle`.
testing::ForcedPathOracle Eager(const ProfitFunction& oracle) {
  return testing::ForcedPathOracle(oracle, testing::ForcedPath::kEager);
}

void ExpectIdentical(const SelectionResult& a, const SelectionResult& b,
                     const char* what, std::uint64_t seed) {
  EXPECT_EQ(a.selected, b.selected) << what << ", seed " << seed;
  // Byte-identical, not approximately equal: accelerations reuse the very
  // same floating-point values the plain path computes.
  EXPECT_EQ(a.profit, b.profit) << what << ", seed " << seed;
}

TEST(GreedyEquivalenceTest, LazyCachedAndPlainAgreeAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    CoverageFunction f = CoverageFunction::Random(20, 30, 0.4, rng);
    SelectionResult eager = Greedy(Eager(f));
    SelectionResult lazy = Greedy(f);
    CachedProfitOracle cached(f);
    SelectionResult through_cache = Greedy(cached);
    ExpectIdentical(lazy, eager, "lazy vs eager", seed);
    ExpectIdentical(through_cache, eager, "cached vs eager", seed);
    EXPECT_LE(lazy.oracle_calls, eager.oracle_calls) << "seed " << seed;
  }
}

TEST(GreedyEquivalenceTest, LazyMatchesEagerUnderMatroid) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed * 13);
    CoverageFunction f = CoverageFunction::Random(12, 20, 0.3, rng);
    PartitionMatroid matroid =
        PartitionMatroid::Create({0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2},
                                 {2, 2, 2})
            .value();
    SelectionResult eager = Greedy(Eager(f), &matroid);
    SelectionResult lazy = Greedy(f, &matroid);
    ExpectIdentical(lazy, eager, "matroid lazy vs eager", seed);
  }
}

TEST(GraspEquivalenceTest, ParallelPoolMatchesSerialAcrossSeeds) {
  ThreadPool pool(4);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed * 17);
    CoverageFunction f = CoverageFunction::Random(14, 22, 0.4, rng);
    GraspParams serial{3, 4, seed, nullptr};
    GraspParams parallel{3, 4, seed, &pool};
    ExpectIdentical(Grasp(f, parallel), Grasp(f, serial),
                    "grasp pool vs serial", seed);
  }
}

/// Full-pipeline fixture: BL scenario -> learned models -> estimator ->
/// ProfitOracle, the configuration the paper's experiments run.
class ScenarioEquivalenceTest
    : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    workloads::BlConfig config;
    config.seed = GetParam();
    config.locations = 8;
    config.categories = 3;
    config.horizon = 220;
    config.t0 = 150;
    config.scale = 0.3;
    config.n_uniform = 2;
    config.n_location_specialists = 4;
    config.n_category_specialists = 3;
    config.n_medium = 2;
    scenario_ = std::make_unique<workloads::Scenario>(
        workloads::GenerateBlScenario(config).value());
  }

  /// Estimator + oracle over `sources` (the scenario's own by default).
  struct Pipeline {
    std::unique_ptr<harness::LearnedScenario> learned;
    std::unique_ptr<estimation::QualityEstimator> estimator;
    std::unique_ptr<ProfitOracle> oracle;
  };

  Pipeline MakePipeline(double budget,
                        const std::vector<source::SourceHistory>* sources =
                            nullptr) {
    Pipeline p;
    p.learned = std::make_unique<harness::LearnedScenario>(
        (sources == nullptr
             ? harness::LearnScenario(*scenario_)
             : harness::LearnScenarioWithSources(*scenario_, *sources))
            .value());
    p.estimator = std::make_unique<estimation::QualityEstimator>(
        estimation::QualityEstimator::Create(
            scenario_->world, p.learned->world_model, {},
            MakeTimePoints(scenario_->t0 + 14, 3, 14))
            .value());
    std::vector<const estimation::SourceProfile*> profiles;
    for (const auto& profile : p.learned->profiles) {
      profiles.push_back(&profile);
      EXPECT_TRUE(p.estimator->AddSource(&profile).ok());
    }
    ProfitOracle::Config config;
    config.budget = budget;
    p.oracle = std::make_unique<ProfitOracle>(
        ProfitOracle::Create(p.estimator.get(),
                             CostModel::ItemShareCosts(profiles), config)
            .value());
    return p;
  }

  std::unique_ptr<workloads::Scenario> scenario_;
};

TEST_P(ScenarioEquivalenceTest, GreedyVariantsAgreeOnBlOracle) {
  Pipeline p = MakePipeline(std::numeric_limits<double>::infinity());
  SelectionResult eager = Greedy(Eager(*p.oracle));
  SelectionResult lazy = Greedy(*p.oracle);
  CachedProfitOracle cached(*p.oracle);
  SelectionResult through_cache = Greedy(cached);
  ExpectIdentical(lazy, eager, "BL lazy vs eager", GetParam());
  ExpectIdentical(through_cache, eager, "BL cached vs eager", GetParam());
}

TEST_P(ScenarioEquivalenceTest, BudgetedGreedyVariantsAgreeOnBlOracle) {
  for (double budget : {0.2, 0.5}) {
    Pipeline p = MakePipeline(budget);
    SelectionResult eager = BudgetedGreedy(Eager(*p.oracle));
    SelectionResult lazy = BudgetedGreedy(*p.oracle);
    ExpectIdentical(lazy, eager, "BL budgeted lazy vs eager", GetParam());
    EXPECT_LE(lazy.oracle_calls, eager.oracle_calls);
  }
}

TEST_P(ScenarioEquivalenceTest, GraspPoolMatchesSerialOnBlOracle) {
  Pipeline p = MakePipeline(std::numeric_limits<double>::infinity());
  ThreadPool pool(3);
  GraspParams serial{2, 3, GetParam(), nullptr};
  GraspParams parallel{2, 3, GetParam(), &pool};
  ExpectIdentical(Grasp(*p.oracle, parallel), Grasp(*p.oracle, serial),
                  "BL grasp pool vs serial", GetParam());
}

TEST_P(ScenarioEquivalenceTest, GreedyVariantsAgreeOnBlPlusRoster) {
  workloads::MicroRoster roster =
      workloads::GenerateBlPlusRoster(*scenario_, /*micro_per_source=*/1,
                                      GetParam())
          .value();
  Pipeline p = MakePipeline(std::numeric_limits<double>::infinity(),
                            &roster.sources);
  SelectionResult eager = Greedy(Eager(*p.oracle));
  SelectionResult lazy = Greedy(*p.oracle);
  ExpectIdentical(lazy, eager, "BL+ lazy vs eager", GetParam());
  EXPECT_LE(lazy.oracle_calls, eager.oracle_calls);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScenarioEquivalenceTest,
                         ::testing::Values(3u, 11u, 42u));

}  // namespace
}  // namespace freshsel::selection
