#include "selection/profit.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include <memory>

#include "estimation/source_profile.h"
#include "estimation/world_change_model.h"
#include "selection/algorithms.h"
#include "selection/cached_oracle.h"
#include "source/source_simulator.h"
#include "testing/forced_path_oracle.h"
#include "world/world_simulator.h"

namespace freshsel::selection {
namespace {

class ProfitOracleFixture : public ::testing::Test {
 protected:
  static constexpr TimePoint kT0 = 200;

  void SetUp() override {
    world::DataDomain domain =
        world::DataDomain::Create("loc", 1, "cat", 2).value();
    world::WorldSpec spec{std::move(domain), {}, 300};
    spec.rates.push_back({1.0, 0.005, 0.01, 100});
    spec.rates.push_back({0.5, 0.005, 0.01, 60});
    Rng rng(211);
    world_ = std::make_unique<world::World>(
        world::SimulateWorld(spec, rng).value());
    for (int i = 0; i < 3; ++i) {
      source::SourceSpec s;
      s.name = "s" + std::to_string(i);
      s.scope = {0, 1};
      s.schedule = {1 + i, 0};
      s.insert_capture = {0.05 * i, 1.0 + 2.0 * i};
      s.initial_awareness = 0.9 - 0.2 * i;
      specs_.push_back(s);
    }
    histories_ = source::SimulateSources(*world_, specs_, rng).value();
    model_ = std::make_unique<estimation::WorldChangeModel>(
        estimation::WorldChangeModel::Learn(*world_, kT0).value());
    profiles_ =
        estimation::LearnSourceProfiles(*world_, histories_, kT0).value();
    estimator_ = MakeEstimator({});
    estimation::QualityEstimator::Options backlog;
    backlog.model_capture_backlog = true;
    backlog_estimator_ = MakeEstimator(backlog);
  }

  std::unique_ptr<estimation::QualityEstimator> MakeEstimator(
      estimation::QualityEstimator::Options options) {
    auto estimator = std::make_unique<estimation::QualityEstimator>(
        estimation::QualityEstimator::Create(*world_, *model_, {},
                                             {kT0 + 20, kT0 + 40}, options)
            .value());
    for (const auto& p : profiles_) {
      EXPECT_TRUE(estimator->AddSource(&p, 1).ok());
    }
    return estimator;
  }

  ProfitOracle MakeOracle(ProfitOracle::Config config,
                          std::vector<double> costs = {10.0, 20.0, 30.0}) {
    return ProfitOracle::Create(estimator_.get(), std::move(costs), config)
        .value();
  }

  std::unique_ptr<world::World> world_;
  std::vector<source::SourceSpec> specs_;
  std::vector<source::SourceHistory> histories_;
  std::unique_ptr<estimation::WorldChangeModel> model_;
  std::vector<estimation::SourceProfile> profiles_;
  std::unique_ptr<estimation::QualityEstimator> estimator_;
  std::unique_ptr<estimation::QualityEstimator> backlog_estimator_;
};

TEST_F(ProfitOracleFixture, CreateValidates) {
  EXPECT_FALSE(
      ProfitOracle::Create(nullptr, {1.0}, ProfitOracle::Config{}).ok());
  EXPECT_FALSE(ProfitOracle::Create(estimator_.get(), {1.0},
                                    ProfitOracle::Config{})
                   .ok());  // Wrong cost count.
  EXPECT_TRUE(ProfitOracle::Create(estimator_.get(), {1.0, 2.0, 3.0},
                                   ProfitOracle::Config{})
                  .ok());
}

TEST_F(ProfitOracleFixture, SubmodularTruthTable) {
  // Average aggregate. Rows: Linear, Quadratic, Step, Data. Columns:
  // coverage, accuracy, global freshness, local freshness, mix. Only the
  // Linear gain of coverage, global freshness or their mix, and the Data
  // gain, are submodular (Thms. 1-2); max and min never are. A budget is a
  // constraint, not part of the set function, so it changes nothing.
  const GainFamily families[] = {GainFamily::kLinear, GainFamily::kQuadratic,
                                 GainFamily::kStep, GainFamily::kData};
  const QualityMetric metrics[] = {
      QualityMetric::kCoverage, QualityMetric::kAccuracy,
      QualityMetric::kGlobalFreshness, QualityMetric::kLocalFreshness,
      QualityMetric::kCoverageFreshnessMix};
  constexpr bool kAverage[4][5] = {
      {true, false, true, false, true},
      {false, false, false, false, false},
      {false, false, false, false, false},
      {true, true, true, true, true},
  };
  for (int f = 0; f < 4; ++f) {
    for (int m = 0; m < 5; ++m) {
      for (AggregateMode aggregate :
           {AggregateMode::kAverage, AggregateMode::kMax,
            AggregateMode::kMin}) {
        for (double budget : {std::numeric_limits<double>::infinity(),
                              0.4}) {
          ProfitOracle::Config config;
          config.gain = GainModel(families[f], metrics[m]);
          config.aggregate = aggregate;
          config.budget = budget;
          const ProfitOracle oracle = MakeOracle(config);
          const bool expected =
              aggregate == AggregateMode::kAverage && kAverage[f][m];
          EXPECT_EQ(oracle.submodular(), expected)
              << "family " << f << " metric " << m << " aggregate "
              << static_cast<int>(aggregate) << " budget " << budget;
          // The memoizing decorator the serve path wraps every oracle in
          // must forward the verdict, or every served query goes eager.
          EXPECT_EQ(CachedProfitOracle(oracle).submodular(), expected);
          // The capture-backlog term is only approximately submodular,
          // whatever the gain.
          const ProfitOracle backlog =
              ProfitOracle::Create(backlog_estimator_.get(),
                                   {10.0, 20.0, 30.0}, config)
                  .value();
          EXPECT_FALSE(backlog.submodular())
              << "family " << f << " metric " << m << " aggregate "
              << static_cast<int>(aggregate) << " budget " << budget;
        }
      }
    }
  }
}

TEST_F(ProfitOracleFixture, BacklogEstimatorGetsTheFullScan) {
  // Linear coverage is submodular under the paper's estimator, but not once
  // the capture backlog is modelled: Greedy must re-score every candidate
  // each round instead of trusting CELF's stale bounds.
  const ProfitOracle oracle =
      ProfitOracle::Create(backlog_estimator_.get(), {10.0, 20.0, 30.0},
                           ProfitOracle::Config{})
          .value();
  ASSERT_FALSE(oracle.submodular());
  const SelectionResult result = Greedy(oracle);
  EXPECT_EQ(result.oracle_calls_saved, 0u);
  const SelectionResult eager = Greedy(
      testing::ForcedPathOracle(oracle, testing::ForcedPath::kEager));
  EXPECT_EQ(result.selected, eager.selected);
  EXPECT_EQ(result.oracle_calls, eager.oracle_calls);
}

TEST_F(ProfitOracleFixture, CostsAreNormalized) {
  ProfitOracle oracle = MakeOracle(ProfitOracle::Config{});
  EXPECT_DOUBLE_EQ(oracle.Cost({0, 1, 2}), 1.0);
  EXPECT_DOUBLE_EQ(oracle.Cost({0}), 10.0 / 60.0);
  EXPECT_DOUBLE_EQ(oracle.Cost({}), 0.0);
}

TEST_F(ProfitOracleFixture, GainIsNormalizedToUnitInterval) {
  ProfitOracle oracle = MakeOracle(ProfitOracle::Config{});
  const double gain = oracle.Gain({0, 1, 2});
  EXPECT_GT(gain, 0.0);
  EXPECT_LE(gain, 1.0);
}

TEST_F(ProfitOracleFixture, ProfitIsGainMinusWeightedCost) {
  ProfitOracle::Config config;
  config.cost_weight = 0.5;
  ProfitOracle oracle = MakeOracle(config);
  const double profit = oracle.Profit({0, 1});
  EXPECT_NEAR(profit, oracle.Gain({0, 1}) - 0.5 * oracle.Cost({0, 1}),
              1e-12);
}

TEST_F(ProfitOracleFixture, BudgetMakesSetsInfeasible) {
  ProfitOracle::Config config;
  config.budget = 0.4;  // Normalized: selecting everything costs 1.
  ProfitOracle oracle = MakeOracle(config);
  EXPECT_TRUE(std::isinf(oracle.Profit({0, 1, 2})));
  EXPECT_LT(oracle.Profit({0, 1, 2}), 0.0);
  EXPECT_TRUE(std::isfinite(oracle.Profit({0})));
  EXPECT_TRUE(oracle.WithinBudget({0}));
  EXPECT_FALSE(oracle.WithinBudget({0, 1, 2}));
}

TEST_F(ProfitOracleFixture, GainCallsAreCounted) {
  ProfitOracle oracle = MakeOracle(ProfitOracle::Config{});
  EXPECT_EQ(oracle.call_count(), 0u);
  oracle.Profit({0});
  oracle.Profit({0, 1});
  EXPECT_EQ(oracle.call_count(), 2u);
  oracle.ResetCallCount();
  EXPECT_EQ(oracle.call_count(), 0u);
}

TEST_F(ProfitOracleFixture, DataGainScalesWithWorldSize) {
  ProfitOracle::Config config;
  config.gain = GainModel(GainFamily::kData, QualityMetric::kCoverage);
  ProfitOracle oracle = MakeOracle(config);
  const double gain = oracle.Gain({0, 1, 2});
  EXPECT_GT(gain, 0.0);
  EXPECT_LE(gain, 1.0);
}

TEST_F(ProfitOracleFixture, AggregateModes) {
  ProfitOracle::Config avg_config;
  ProfitOracle::Config max_config;
  max_config.aggregate = AggregateMode::kMax;
  ProfitOracle::Config min_config;
  min_config.aggregate = AggregateMode::kMin;
  ProfitOracle avg = MakeOracle(avg_config);
  ProfitOracle best = MakeOracle(max_config);
  ProfitOracle worst = MakeOracle(min_config);
  const std::vector<SourceHandle> set{0, 1};
  EXPECT_LE(worst.Gain(set), avg.Gain(set) + 1e-12);
  EXPECT_LE(avg.Gain(set), best.Gain(set) + 1e-12);
}

TEST_F(ProfitOracleFixture, GainAveragesPerTimeGains) {
  // For the quadratic family, avg(G(q_t)) != G(avg(q_t)); verify the oracle
  // averages per-time-point gains as Section 5 requires.
  ProfitOracle::Config config;
  config.gain = GainModel(GainFamily::kQuadratic, QualityMetric::kCoverage);
  ProfitOracle oracle = MakeOracle(config);
  double expected = 0.0;
  for (TimePoint t : estimator_->eval_times()) {
    const double cov = estimator_->Estimate({0}, t).coverage;
    expected += 100.0 * cov * cov;
  }
  expected /= 100.0 * static_cast<double>(estimator_->eval_times().size());
  EXPECT_NEAR(oracle.Gain({0}), expected, 1e-12);
}

}  // namespace
}  // namespace freshsel::selection
