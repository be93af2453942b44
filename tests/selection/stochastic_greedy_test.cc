#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/random.h"
#include "estimation/source_profile.h"
#include "estimation/world_change_model.h"
#include "selection/algorithms.h"
#include "selection/budgeted_greedy.h"
#include "selection/cached_oracle.h"
#include "selection/set_util.h"
#include "source/source_simulator.h"
#include "testing/forced_path_oracle.h"
#include "world/world_simulator.h"

namespace freshsel::selection {
namespace {

/// Weighted-coverage submodular function minus additive costs (same shape
/// as the algorithms_test oracle): monotone submodular gain, additive
/// cost - the structure stochastic greedy's guarantee assumes.
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

/// Modular (additive) profit for the degenerate-termination cases.
class ModularFunction : public ProfitFunction {
 public:
  explicit ModularFunction(std::vector<double> weights)
      : weights_(std::move(weights)) {}
  std::size_t universe_size() const override { return weights_.size(); }
  bool submodular() const override { return true; }
  double Profit(const std::vector<SourceHandle>& set) const override {
    ++calls_;
    double total = 0.0;
    for (SourceHandle e : set) total += weights_[e];
    return total;
  }

 private:
  std::vector<double> weights_;
};

/// Budgeted variant: coverage gain, additive cost, fixed budget.
class CoverageGainCost : public GainCostFunction {
 public:
  CoverageGainCost(CoverageFunction gain_part, std::vector<double> costs,
                   double budget)
      : gain_part_(std::move(gain_part)),
        costs_(std::move(costs)),
        budget_(budget) {}

  std::size_t universe_size() const override {
    return gain_part_.universe_size();
  }
  bool submodular() const override { return true; }
  double Profit(const std::vector<SourceHandle>& set) const override {
    ++calls_;
    return gain_part_.Profit(set);
  }
  double Gain(const std::vector<SourceHandle>& set) const override {
    ++calls_;
    return gain_part_.Profit(set);
  }
  double Cost(const std::vector<SourceHandle>& set) const override {
    double total = 0.0;
    for (SourceHandle e : set) total += costs_[e];
    return total;
  }
  double budget() const override { return budget_; }

 private:
  CoverageFunction gain_part_;
  std::vector<double> costs_;
  double budget_;
};

using testing::ForcedPath;
using testing::ForcedPathOracle;

GreedyOptions Stochastic(std::uint64_t seed, double eps = 0.1,
                         std::size_t k = 0) {
  GreedyOptions options;
  options.stochastic = true;
  options.stochastic_epsilon = eps;
  options.stochastic_seed = seed;
  options.stochastic_k = k;
  return options;
}

TEST(StochasticSampleSizeTest, MatchesFormula) {
  // ceil((n/k) * ln(1/eps)).
  EXPECT_EQ(internal::StochasticSampleSize(100, 10, 0.1),
            static_cast<std::size_t>(std::ceil(10.0 * std::log(10.0))));
  EXPECT_EQ(internal::StochasticSampleSize(100, 10, 0.2),
            static_cast<std::size_t>(std::ceil(10.0 * std::log(5.0))));
  EXPECT_EQ(internal::StochasticSampleSize(60, 20, 0.1),
            static_cast<std::size_t>(std::ceil(3.0 * std::log(10.0))));
  // Floors: never below one candidate per round, k never below 1.
  EXPECT_EQ(internal::StochasticSampleSize(0, 5, 0.1), 1u);
  EXPECT_GE(internal::StochasticSampleSize(10, 0, 0.5), 1u);
  // eps clamped into (0, 1): out-of-range values stay finite.
  EXPECT_GE(internal::StochasticSampleSize(10, 2, 0.0), 1u);
  EXPECT_EQ(internal::StochasticSampleSize(10, 2, 1.0), 1u);
  // Smaller eps -> larger samples (monotonicity of the guarantee knob).
  EXPECT_GT(internal::StochasticSampleSize(100, 10, 0.05),
            internal::StochasticSampleSize(100, 10, 0.2));
}

TEST(DeriveSampleKTest, MatroidEffectiveRank) {
  // No matroid: k = n (one sample of ~ln(1/eps) candidates per round).
  EXPECT_EQ(internal::DeriveSampleK(7, nullptr), 7u);
  EXPECT_EQ(internal::DeriveSampleK(0, nullptr), 1u);
  // Two groups of 3, capacities 2 and 10: rank = min(3,2) + min(3,10).
  PartitionMatroid matroid =
      PartitionMatroid::Create({0, 0, 0, 1, 1, 1}, {2, 10}).value();
  EXPECT_EQ(internal::DeriveSampleK(6, &matroid), 5u);
  // A universe smaller than the matroid only counts its own elements.
  EXPECT_EQ(internal::DeriveSampleK(2, &matroid), 2u);
}

TEST(StochasticGreedyTest, DeterministicPerSeed) {
  Rng rng(401);
  CoverageFunction f = CoverageFunction::Random(30, 40, 0.3, rng);
  const SelectionResult a = Greedy(f, nullptr, Stochastic(7));
  const SelectionResult b = Greedy(f, nullptr, Stochastic(7));
  EXPECT_EQ(a.selected, b.selected);
  EXPECT_DOUBLE_EQ(a.profit, b.profit);
  EXPECT_EQ(a.oracle_calls, b.oracle_calls);
}

TEST(StochasticGreedyTest, SelectionsIdenticalAcrossLazyAndEager) {
  // The sampling stream is drawn once per round before any scoring and the
  // winner is always freshly scored, so the stale-bound skipping of a
  // submodular oracle must not change what gets selected - only how many
  // evaluations it costs. The eager pass hides the submodularity.
  Rng rng(403);
  for (int round = 0; round < 10; ++round) {
    CoverageFunction f = CoverageFunction::Random(25, 30, 0.4, rng);
    for (std::uint64_t seed : {1u, 17u, 99u}) {
      const SelectionResult lazy = Greedy(f, nullptr, Stochastic(seed));
      const SelectionResult eager =
          Greedy(ForcedPathOracle(f, ForcedPath::kEager), nullptr,
                 Stochastic(seed));
      EXPECT_EQ(lazy.selected, eager.selected)
          << "round " << round << " seed " << seed;
      EXPECT_DOUBLE_EQ(lazy.profit, eager.profit);
      // Every skip the lazy pass takes is an evaluation the eager pass
      // actually ran: spent + saved reconstructs the eager budget.
      EXPECT_LE(lazy.oracle_calls, eager.oracle_calls);
      EXPECT_EQ(lazy.oracle_calls + lazy.oracle_calls_saved,
                eager.oracle_calls)
          << "round " << round << " seed " << seed;
    }
  }
}

TEST(StochasticGreedyTest, DifferentSeedsExploreDifferentSamples) {
  // Not a hard guarantee per instance, but across many seeds on an
  // instance with many near-equivalent elements at least one pair of runs
  // must differ - otherwise the sampler is not actually sampling.
  Rng rng(407);
  CoverageFunction f = CoverageFunction::Random(40, 25, 0.2, rng);
  std::vector<std::vector<SourceHandle>> runs;
  bool any_difference = false;
  for (std::uint64_t seed = 1; seed <= 8 && !any_difference; ++seed) {
    runs.push_back(
        Greedy(f, nullptr, Stochastic(seed, 0.5, 8)).selected);
    if (runs.size() > 1 && runs.back() != runs.front()) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(StochasticGreedyTest, FullSampleDegeneratesToExactGreedy) {
  // When the per-round sample covers every feasible candidate (tiny eps,
  // or k = 1 so the ratio is n), stochastic greedy must reproduce the
  // exact eager greedy selection - same argmax, same tie-breaks.
  Rng rng(409);
  for (int round = 0; round < 10; ++round) {
    CoverageFunction f = CoverageFunction::Random(15, 20, 0.4, rng);
    const SelectionResult exact =
        Greedy(ForcedPathOracle(f, ForcedPath::kEager));
    const SelectionResult full_sample =
        Greedy(f, nullptr, Stochastic(5, /*eps=*/0.1, /*k=*/1));
    EXPECT_EQ(full_sample.selected, exact.selected) << "round " << round;
    EXPECT_DOUBLE_EQ(full_sample.profit, exact.profit);
  }
}

TEST(StochasticGreedyTest, QualityCloseToExactUnderMatroid) {
  // Mirzasoleiman et al.: expected (1 - 1/e - eps) * OPT. On these small
  // instances, demand >= 90% of the exact greedy's profit on average.
  Rng rng(411);
  double stochastic_total = 0.0;
  double exact_total = 0.0;
  for (int round = 0; round < 20; ++round) {
    CoverageFunction f = CoverageFunction::Random(30, 25, 0.2, rng);
    PartitionMatroid matroid =
        PartitionMatroid::Create(std::vector<std::uint32_t>(30, 0), {5})
            .value();
    exact_total += Greedy(f, &matroid).profit;
    stochastic_total +=
        Greedy(f, &matroid, Stochastic(static_cast<std::uint64_t>(round)))
            .profit;
  }
  EXPECT_GE(stochastic_total, 0.9 * exact_total);
}

TEST(StochasticGreedyTest, RespectsMatroid) {
  Rng rng(419);
  CoverageFunction f = CoverageFunction::Random(24, 20, 0.2, rng);
  PartitionMatroid matroid =
      PartitionMatroid::Create(
          {0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2,
           3, 3, 3, 3, 3, 3},
          {2, 2, 2, 2})
          .value();
  for (std::uint64_t seed : {3u, 31u}) {
    const SelectionResult result = Greedy(f, &matroid, Stochastic(seed));
    EXPECT_TRUE(matroid.IsIndependent(result.selected)) << "seed " << seed;
  }
}

TEST(StochasticGreedyTest, OracleCallsBoundedBySampleBudget) {
  // Per round: at most sample_size evaluations (plus the initial empty-set
  // call, plus one final round that finds no improvement). With k fixed at
  // 5 on n = 40 the per-round sample is well under n, so the stochastic
  // run must also undercut the eager scan's quadratic budget.
  Rng rng(421);
  CoverageFunction f = CoverageFunction::Random(40, 30, 0.2, rng);
  const std::size_t sample_size =
      internal::StochasticSampleSize(40, 5, 0.1);
  ASSERT_LT(sample_size, 40u);

  const ForcedPathOracle eager_oracle(f, ForcedPath::kEager);
  const SelectionResult eager = Greedy(eager_oracle);
  const SelectionResult stochastic =
      Greedy(eager_oracle, nullptr, Stochastic(13, 0.1, 5));
  const std::uint64_t rounds = stochastic.selected.size() + 1;
  EXPECT_LE(stochastic.oracle_calls, 1 + rounds * sample_size);
  EXPECT_LT(stochastic.oracle_calls, eager.oracle_calls);
}

TEST(StochasticGreedyTest, AllNegativeTerminatesEmpty) {
  ModularFunction f({-1.0, -2.0, -0.5});
  const SelectionResult result = Greedy(f, nullptr, Stochastic(5));
  EXPECT_TRUE(result.selected.empty());
  EXPECT_DOUBLE_EQ(result.profit, 0.0);
}

TEST(StochasticGreedyTest, NearZeroMarginalsNotTaken) {
  // The shared improvement threshold applies to the sampled argmax too.
  ModularFunction f({internal::kImprovementEps,
                     internal::kImprovementEps / 2.0, 0.0});
  const SelectionResult result = Greedy(f, nullptr, Stochastic(5));
  EXPECT_TRUE(result.selected.empty());
}

TEST(StochasticGreedyTest, EmptyUniverse) {
  ModularFunction f({});
  const SelectionResult result = Greedy(f, nullptr, Stochastic(5));
  EXPECT_TRUE(result.selected.empty());
  EXPECT_DOUBLE_EQ(result.profit, 0.0);
}

TEST(StochasticGreedyTest, CachedOracleGivesSameSelection) {
  // The cache is value-transparent, so routing the sampled evaluations
  // through CachedProfitOracle must not change the selection; repeated
  // runs on the warmed cache answer from memory.
  Rng rng(431);
  CoverageFunction f = CoverageFunction::Random(20, 25, 0.3, rng);
  CachedProfitOracle cached(f);
  const SelectionResult direct = Greedy(f, nullptr, Stochastic(21));
  const SelectionResult through_cache =
      Greedy(cached, nullptr, Stochastic(21));
  EXPECT_EQ(through_cache.selected, direct.selected);
  EXPECT_DOUBLE_EQ(through_cache.profit, direct.profit);
  const std::uint64_t misses_after_first = cached.stats().misses;
  const SelectionResult warmed = Greedy(cached, nullptr, Stochastic(21));
  EXPECT_EQ(warmed.selected, direct.selected);
  EXPECT_EQ(cached.stats().misses, misses_after_first)
      << "second identical run must be all cache hits";
}

TEST(BudgetedStochasticTest, DeterministicAndWithinBudget) {
  Rng rng(433);
  CoverageFunction gain = CoverageFunction::Random(25, 30, 0.0, rng);
  std::vector<double> costs(25);
  for (auto& c : costs) c = rng.UniformDouble(0.5, 2.0);
  CoverageGainCost oracle(std::move(gain), costs, /*budget=*/6.0);

  BudgetedGreedyOptions options;
  options.stochastic = true;
  options.stochastic_seed = 11;
  const SelectionResult a = BudgetedGreedy(oracle, options);
  const SelectionResult b = BudgetedGreedy(oracle, options);
  EXPECT_EQ(a.selected, b.selected);
  EXPECT_DOUBLE_EQ(a.profit, b.profit);
  EXPECT_LE(oracle.Cost(a.selected), oracle.budget() + 1e-9);
}

TEST(BudgetedStochasticTest, LazyAndEagerSelectIdentically) {
  Rng rng(439);
  for (int round = 0; round < 8; ++round) {
    CoverageFunction gain = CoverageFunction::Random(20, 24, 0.0, rng);
    std::vector<double> costs(20);
    for (auto& c : costs) c = rng.UniformDouble(0.5, 2.0);
    CoverageGainCost oracle(std::move(gain), costs, /*budget=*/5.0);
    BudgetedGreedyOptions options;
    options.stochastic = true;
    options.stochastic_seed = 3;
    const SelectionResult a = BudgetedGreedy(oracle, options);
    const SelectionResult b = BudgetedGreedy(
        ForcedPathOracle(oracle, ForcedPath::kEager), options);
    EXPECT_EQ(a.selected, b.selected) << "round " << round;
    EXPECT_DOUBLE_EQ(a.profit, b.profit);
  }
}

TEST(BudgetedStochasticTest, SingletonSafeguardStillApplies) {
  // One expensive element dominates every cheap union; the phase-2
  // safeguard scans all affordable singletons regardless of sampling, so
  // the stochastic run must still find it.
  std::vector<std::vector<int>> covers(9);
  for (int item = 0; item < 12; ++item) covers[8].push_back(item);
  for (int e = 0; e < 8; ++e) covers[e] = {e % 3};
  CoverageFunction gain(std::move(covers),
                        std::vector<double>(12, 1.0),
                        std::vector<double>(9, 0.0));
  std::vector<double> costs(9, 0.5);
  costs[8] = 4.0;  // Affordable alone, not alongside many cheap ones.
  CoverageGainCost oracle(std::move(gain), costs, /*budget=*/4.0);
  BudgetedGreedyOptions options;
  options.stochastic = true;
  options.stochastic_epsilon = 0.5;  // Small samples: miss-prone phase 1.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    options.stochastic_seed = seed;
    const SelectionResult result = BudgetedGreedy(oracle, options);
    EXPECT_EQ(result.selected, (std::vector<SourceHandle>{8}))
        << "seed " << seed;
  }
}

/// Real-estimator fixture (mirrors budgeted_greedy_test): ProfitOracle
/// supports incremental contexts and is submodular here, so this is where
/// the full lazy x incremental grid is exercised end to end.
class EstimatorStochasticTest : public ::testing::Test {
 protected:
  static constexpr TimePoint kT0 = 150;

  void SetUp() override {
    world::DataDomain domain =
        world::DataDomain::Create("loc", 2, "cat", 1).value();
    world::WorldSpec spec{std::move(domain), {}, 200};
    spec.rates.push_back({2.0, 0.01, 0.02, 200});
    spec.rates.push_back({1.0, 0.01, 0.02, 100});
    Rng rng(509);
    world_ = std::make_unique<world::World>(
        world::SimulateWorld(spec, rng).value());
    auto add = [&](const char* name,
                   std::vector<world::SubdomainId> scope,
                   double visibility) {
      source::SourceSpec s;
      s.name = name;
      s.scope = std::move(scope);
      s.schedule = {1, 0};
      s.insert_capture = {0.0, 1.0};
      s.visibility = visibility;
      specs_.push_back(s);
    };
    add("big", {0, 1}, 0.85);
    add("small-a", {0}, 0.6);
    add("small-b", {0}, 0.95);
    add("small-c", {1}, 0.7);
    add("small-d", {1}, 0.9);
    add("small-e", {0}, 0.5);
    add("small-f", {1}, 0.55);
    histories_ = source::SimulateSources(*world_, specs_, rng).value();
    model_ = std::make_unique<estimation::WorldChangeModel>(
        estimation::WorldChangeModel::Learn(*world_, kT0).value());
    profiles_ =
        estimation::LearnSourceProfiles(*world_, histories_, kT0).value();
    estimator_ = std::make_unique<estimation::QualityEstimator>(
        estimation::QualityEstimator::Create(*world_, *model_, {},
                                             {kT0 + 20})
            .value());
    for (const auto& p : profiles_) {
      ASSERT_TRUE(estimator_->AddSource(&p, 1).ok());
    }
  }

  ProfitOracle MakeOracle() {
    ProfitOracle::Config config;
    config.gain = GainModel(GainFamily::kLinear, QualityMetric::kCoverage);
    config.cost_weight = 0.02;
    return ProfitOracle::Create(estimator_.get(),
                                std::vector<double>(specs_.size(), 1.0),
                                config)
        .value();
  }

  std::unique_ptr<world::World> world_;
  std::vector<source::SourceSpec> specs_;
  std::vector<source::SourceHistory> histories_;
  std::unique_ptr<estimation::WorldChangeModel> model_;
  std::vector<estimation::SourceProfile> profiles_;
  std::unique_ptr<estimation::QualityEstimator> estimator_;
};

TEST_F(EstimatorStochasticTest, IdenticalSelectionsAcrossScoringModes) {
  // Same seed, all four scoring modes: the sampled pools are identical and
  // the incremental context's delta evaluations track the plain oracle's
  // values to selection-identical precision on this instance.
  ProfitOracle oracle = MakeOracle();
  ASSERT_TRUE(oracle.submodular());
  const std::vector<SourceHandle> reference =
      Greedy(oracle, nullptr, Stochastic(29, /*eps=*/0.2, /*k=*/3)).selected;
  EXPECT_FALSE(reference.empty());
  for (ForcedPath path :
       {ForcedPath::kEager, ForcedPath::kPlain, ForcedPath::kEagerPlain}) {
    const SelectionResult result =
        Greedy(ForcedPathOracle(oracle, path), nullptr,
               Stochastic(29, /*eps=*/0.2, /*k=*/3));
    EXPECT_EQ(result.selected, reference)
        << "path " << static_cast<int>(path);
  }
}

TEST_F(EstimatorStochasticTest, StochasticSpendsFewerOracleCalls) {
  ProfitOracle oracle = MakeOracle();
  const ForcedPathOracle reference(oracle, ForcedPath::kEagerPlain);
  const SelectionResult exact = Greedy(reference);
  const SelectionResult stochastic =
      Greedy(reference, nullptr, Stochastic(29, /*eps=*/0.3, /*k=*/3));
  EXPECT_LT(stochastic.oracle_calls, exact.oracle_calls);
  EXPECT_GE(stochastic.profit, 0.8 * exact.profit);
}

}  // namespace
}  // namespace freshsel::selection
