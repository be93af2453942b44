#include "selection/budgeted_greedy.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "estimation/source_profile.h"
#include "estimation/world_change_model.h"
#include "obs/decision_log.h"
#include "obs/json.h"
#include "obs/report.h"
#include "selection/selector.h"
#include "source/source_simulator.h"
#include "testing/forced_path_oracle.h"
#include "world/world_simulator.h"

namespace freshsel::selection {
namespace {

/// Small simulated scenario with sources of very different sizes so the
/// budget bites.
class BudgetedFixture : public ::testing::Test {
 protected:
  static constexpr TimePoint kT0 = 150;

  void SetUp() override {
    world::DataDomain domain =
        world::DataDomain::Create("loc", 2, "cat", 1).value();
    world::WorldSpec spec{std::move(domain), {}, 200};
    spec.rates.push_back({2.0, 0.01, 0.02, 200});
    spec.rates.push_back({1.0, 0.01, 0.02, 100});
    Rng rng(307);
    world_ = std::make_unique<world::World>(
        world::SimulateWorld(spec, rng).value());
    // Sources: one big covering everything, several small specialists with
    // varied visibility so their union beats the big one.
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

  ProfitOracle MakeOracle(double budget,
                          std::vector<double> costs = {50, 10, 12, 9,
                                                       11}) {
    ProfitOracle::Config config;
    config.gain = GainModel(GainFamily::kLinear,
                            QualityMetric::kCoverage);
    config.budget = budget;
    config.cost_weight = 0.0;  // Pure budgeted gain maximization.
    return ProfitOracle::Create(estimator_.get(), std::move(costs), config)
        .value();
  }

  std::unique_ptr<world::World> world_;
  std::vector<source::SourceSpec> specs_;
  std::vector<source::SourceHistory> histories_;
  std::unique_ptr<estimation::WorldChangeModel> model_;
  std::vector<estimation::SourceProfile> profiles_;
  std::unique_ptr<estimation::QualityEstimator> estimator_;
};

TEST_F(BudgetedFixture, RespectsBudget) {
  for (double budget : {0.1, 0.25, 0.5, 0.8}) {
    ProfitOracle oracle = MakeOracle(budget);
    SelectionResult result = BudgetedGreedy(oracle);
    EXPECT_LE(oracle.Cost(result.selected), budget + 1e-9)
        << "budget " << budget;
  }
}

TEST_F(BudgetedFixture, UnlimitedBudgetTakesEverythingUseful) {
  ProfitOracle oracle =
      MakeOracle(std::numeric_limits<double>::infinity());
  SelectionResult result = BudgetedGreedy(oracle);
  // With zero cost weight and unlimited budget, every source with positive
  // marginal coverage should be taken.
  EXPECT_GE(result.selected.size(), 4u);
}

TEST_F(BudgetedFixture, MatchesBruteForceWithinFactor) {
  for (double budget : {0.3, 0.5}) {
    ProfitOracle oracle = MakeOracle(budget);
    SelectionResult greedy = BudgetedGreedy(oracle);
    SelectionResult optimal = BruteForce(oracle);
    // KMN-style guarantee is (1 - 1/e)/2 ~ 0.31; expect much better in
    // practice on these small instances.
    EXPECT_GE(oracle.Gain(greedy.selected),
              0.7 * oracle.Gain(optimal.selected))
        << "budget " << budget;
  }
}

TEST_F(BudgetedFixture, PrefersCheapUnionOverExpensiveSingle) {
  // Budget fits either the big expensive source or all four small ones;
  // the smalls' union covers more per unit cost.
  ProfitOracle oracle = MakeOracle(/*budget=*/0.46);
  SelectionResult result = BudgetedGreedy(oracle);
  // Whatever it picks, it must be at least as good as the best single
  // affordable source (the phase-2 safeguard).
  double best_single = 0.0;
  for (std::size_t e = 0; e < oracle.universe_size(); ++e) {
    const SourceHandle handle = static_cast<SourceHandle>(e);
    if (oracle.Cost({handle}) <= 0.46) {
      best_single = std::max(best_single, oracle.Gain({handle}));
    }
  }
  EXPECT_GE(oracle.Gain(result.selected), best_single - 1e-12);
}

TEST_F(BudgetedFixture, ZeroBudgetSelectsNothing) {
  ProfitOracle oracle = MakeOracle(0.0);
  SelectionResult result = BudgetedGreedy(oracle);
  EXPECT_TRUE(result.selected.empty());
}

TEST_F(BudgetedFixture, LazyMatchesEagerExactly) {
  for (double budget : {0.1, 0.25, 0.46, 0.5, 0.8}) {
    ProfitOracle oracle = MakeOracle(budget);
    SelectionResult lazy = BudgetedGreedy(oracle);
    SelectionResult eager = BudgetedGreedy(
        testing::ForcedPathOracle(oracle, testing::ForcedPath::kEager));
    EXPECT_EQ(lazy.selected, eager.selected) << "budget " << budget;
    EXPECT_DOUBLE_EQ(lazy.profit, eager.profit) << "budget " << budget;
    EXPECT_LE(lazy.oracle_calls, eager.oracle_calls) << "budget " << budget;
  }
}

std::uint64_t Bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

std::string LogJson(const obs::DecisionLog& log) {
  obs::JsonWriter writer;
  log.AppendJson(writer);
  return writer.TakeString();
}

TEST_F(BudgetedFixture, SelectorFacadeRunsBudgetedGreedyExactly) {
  for (bool stochastic : {false, true}) {
    for (double budget :
         {0.25, 0.46, std::numeric_limits<double>::infinity()}) {
      const ProfitOracle direct_oracle = MakeOracle(budget);
      obs::DecisionLog direct_log;
      BudgetedGreedyOptions options;
      options.stochastic = stochastic;
      options.stochastic_epsilon = 0.3;
      options.stochastic_seed = 9;
      options.decision_log = &direct_log;
      const SelectionResult direct = BudgetedGreedy(direct_oracle, options);

      const ProfitOracle facade_oracle = MakeOracle(budget);
      obs::DecisionLog facade_log;
      obs::RunReport report;
      SelectorConfig config;
      config.algorithm = Algorithm::kBudgeted;
      config.stochastic_greedy = stochastic;
      config.stochastic_epsilon = 0.3;
      config.seed = 9;
      config.decision_log = &facade_log;
      config.report = &report;
      Result<SelectionResult> facade = SelectSources(facade_oracle, config);
      ASSERT_TRUE(facade.ok()) << facade.status().ToString();

      EXPECT_EQ(facade->selected, direct.selected) << budget;
      EXPECT_EQ(facade->oracle_calls, direct.oracle_calls) << budget;
      EXPECT_EQ(facade->oracle_calls_saved, direct.oracle_calls_saved);
      EXPECT_EQ(Bits(facade->profit), Bits(direct.profit)) << budget;
      EXPECT_FALSE(direct_log.records().empty());
      EXPECT_EQ(LogJson(facade_log), LogJson(direct_log)) << budget;
      // Labelled as the serve path always has, stochastic or not.
      EXPECT_EQ(report.labels["algorithm"], "BudgetedGreedy");
      ASSERT_EQ(report.stages.size(), 1u);
      EXPECT_EQ(report.stages[0].name, "select/BudgetedGreedy");
      EXPECT_EQ(report.counters["oracle_calls"], direct.oracle_calls);
    }
  }
}

/// Synthetic gain/cost function that counts Gain and Cost calls
/// separately, for the cost-call budget regressions.
class CountingGainCost : public GainCostFunction {
 public:
  CountingGainCost(std::vector<double> weights, std::vector<double> costs,
                   double budget)
      : weights_(std::move(weights)),
        costs_(std::move(costs)),
        budget_(budget) {}

  std::size_t universe_size() const override { return weights_.size(); }
  bool submodular() const override { return true; }
  double Gain(const std::vector<SourceHandle>& set) const override {
    ++calls_;
    ++gain_calls_;
    // Concave-over-modular: sqrt of the weight sum, monotone submodular.
    double total = 0.0;
    for (SourceHandle e : set) total += weights_[e];
    return std::sqrt(total);
  }
  double Cost(const std::vector<SourceHandle>& set) const override {
    ++calls_;
    ++cost_calls_;
    double total = 0.0;
    for (SourceHandle e : set) total += costs_[e];
    return total;
  }
  double Profit(const std::vector<SourceHandle>& set) const override {
    return Cost(set) <= budget_ + 1e-12
               ? Gain(set)
               : -std::numeric_limits<double>::infinity();
  }
  double budget() const override { return budget_; }

  std::uint64_t gain_calls() const { return gain_calls_; }
  std::uint64_t cost_calls() const { return cost_calls_; }

 private:
  std::vector<double> weights_;
  std::vector<double> costs_;
  double budget_;
  mutable std::uint64_t gain_calls_ = 0;
  mutable std::uint64_t cost_calls_ = 0;
};

TEST(BudgetedGreedyCostCallsTest, SingletonCostsAreEvaluatedOncePerElement) {
  // Regression: each round used to re-evaluate oracle.Cost({e}) for the
  // affordability check, the ratio, and the running total - up to three
  // times per element per round. Costs are now hoisted: exactly one
  // Cost({e}) call per element for the whole run, in both modes, however
  // many rounds the greedy takes.
  const std::size_t n = 12;
  std::vector<double> weights(n), costs(n);
  for (std::size_t e = 0; e < n; ++e) {
    weights[e] = 1.0 + static_cast<double>(e % 5);
    costs[e] = 0.5 + 0.25 * static_cast<double>(e % 3);
  }
  for (bool eager : {false, true}) {
    CountingGainCost oracle(weights, costs, /*budget=*/4.0);
    SelectionResult result =
        eager ? BudgetedGreedy(testing::ForcedPathOracle(
                    oracle, testing::ForcedPath::kEager))
              : BudgetedGreedy(oracle);
    EXPECT_GE(result.selected.size(), 2u) << "eager=" << eager;
    // One Cost call per element, plus the final Profit's cost check.
    EXPECT_EQ(oracle.cost_calls(), n + 1) << "eager=" << eager;
  }
}

}  // namespace
}  // namespace freshsel::selection
