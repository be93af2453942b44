#include "estimation/world_change_model.h"

#include <cstdint>
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <string>

#include "testing/test_world.h"
#include "world/world_simulator.h"

namespace freshsel::estimation {
namespace {

TEST(WorldChangeModelTest, LearnValidatesT0) {
  world::World w = testing::MakeTestWorld();
  EXPECT_FALSE(WorldChangeModel::Learn(w, 0).ok());
  EXPECT_FALSE(WorldChangeModel::Learn(w, -5).ok());
  EXPECT_FALSE(WorldChangeModel::Learn(w, 101).ok());
  EXPECT_TRUE(WorldChangeModel::Learn(w, 100).ok());
}

TEST(WorldChangeModelTest, HandBuiltWorldRates) {
  world::World w = testing::MakeTestWorld();
  WorldChangeModel model = WorldChangeModel::Learn(w, 100).value();
  // Subdomain 0 (entities 0, 1, 5): appearances in (0,100] = 1 (entity 5 at
  // day 60); disappearances = 1 (entity 0 at 50); updates = 10,30,20,70 = 4.
  const SubdomainChangeModel& m0 = model.subdomain(0);
  EXPECT_DOUBLE_EQ(m0.lambda_insert, 1.0 / 100.0);
  EXPECT_DOUBLE_EQ(m0.lambda_disappear, 1.0 / 100.0);
  EXPECT_DOUBLE_EQ(m0.lambda_update, 4.0 / 100.0);
  // Lifespans: e0 observed 50; e1 censored 100; e5 censored 40.
  // gamma_d = 1 / 190.
  EXPECT_NEAR(m0.gamma_disappear, 1.0 / 190.0, 1e-12);
  // Entities 1 and 5 alive at 100; entity 0 died -> count 2.
  EXPECT_EQ(m0.count_at_t0, 2);
}

TEST(WorldChangeModelTest, NoDeathsGivesZeroGamma) {
  world::World w = testing::MakeTestWorld();
  WorldChangeModel model = WorldChangeModel::Learn(w, 100).value();
  // Subdomain 2 holds entity 3 only (never dies).
  EXPECT_DOUBLE_EQ(model.subdomain(2).gamma_disappear, 0.0);
  EXPECT_DOUBLE_EQ(model.subdomain(2).lambda_disappear, 0.0);
}

TEST(WorldChangeModelTest, LearnerIgnoresPostT0Events) {
  world::World w = testing::MakeTestWorld();
  // t0 = 40: entity 0's death (50), entity 3's update (60), entity 5's
  // birth (60) are all in the future and must not leak into the model.
  WorldChangeModel model = WorldChangeModel::Learn(w, 40).value();
  const SubdomainChangeModel& m0 = model.subdomain(0);
  EXPECT_DOUBLE_EQ(m0.lambda_insert, 0.0);     // Entity 5 not seen.
  EXPECT_DOUBLE_EQ(m0.lambda_disappear, 0.0);  // Entity 0 death not seen.
  EXPECT_DOUBLE_EQ(m0.gamma_disappear, 0.0);
  // Updates seen by day 40 in sub 0: 10, 30 (e0), 20 (e1) = 3.
  EXPECT_DOUBLE_EQ(m0.lambda_update, 3.0 / 40.0);
  EXPECT_EQ(m0.count_at_t0, 2);  // Entities 0 and 1.
}

struct RateParams {
  double lambda_insert;
  double gamma_d;
  double gamma_u;
};

// Prints GetParam() as "lambda,gamma_d,gamma_u" instead of raw bytes.
void PrintTo(const RateParams& p, std::ostream* os) {
  *os << p.lambda_insert << ',' << p.gamma_d << ',' << p.gamma_u;
}

class RateRecoveryTest : public ::testing::TestWithParam<RateParams> {};

TEST_P(RateRecoveryTest, RecoversSimulatedRates) {
  const RateParams p = GetParam();
  world::DataDomain domain =
      world::DataDomain::Create("a", 1, "b", 1).value();
  world::WorldSpec spec{std::move(domain), {}, 600};
  spec.rates.push_back({p.lambda_insert, p.gamma_d, p.gamma_u, 2000});
  Rng rng(43);
  world::World w = world::SimulateWorld(spec, rng).value();
  WorldChangeModel model = WorldChangeModel::Learn(w, 400).value();
  const SubdomainChangeModel& m = model.subdomain(0);

  EXPECT_NEAR(m.lambda_insert, p.lambda_insert,
              0.15 * p.lambda_insert + 0.02);
  if (p.gamma_d > 0.0) {
    EXPECT_NEAR(m.gamma_disappear, p.gamma_d, 0.15 * p.gamma_d);
  } else {
    EXPECT_DOUBLE_EQ(m.gamma_disappear, 0.0);
  }
  if (p.gamma_u > 0.0) {
    EXPECT_NEAR(m.gamma_update, p.gamma_u, 0.15 * p.gamma_u);
  }
  EXPECT_EQ(m.count_at_t0, w.TotalCountAt(400));
}

INSTANTIATE_TEST_SUITE_P(
    Rates, RateRecoveryTest,
    ::testing::Values(RateParams{2.0, 0.01, 0.02},
                      RateParams{5.0, 0.002, 0.005},
                      RateParams{0.5, 0.02, 0.0},
                      RateParams{1.0, 0.0, 0.01},
                      RateParams{10.0, 0.005, 0.05}),
    [](const ::testing::TestParamInfo<RateParams>& info) {
      // gtest names allow only [A-Za-z0-9_]: print each rate with %g and
      // spell its decimal point as 'p' (0.005 -> 0p005).
      auto rate = [](double value) {
        char buffer[32];
        std::snprintf(buffer, sizeof(buffer), "%g", value);
        std::string text = buffer;
        std::replace(text.begin(), text.end(), '.', 'p');
        return text;
      };
      return "lambda" + rate(info.param.lambda_insert) + "_gd" +
             rate(info.param.gamma_d) + "_gu" + rate(info.param.gamma_u);
    });

TEST(WorldChangeModelTest, AggregatePoolsSubdomains) {
  world::World w = testing::MakeTestWorld();
  WorldChangeModel model = WorldChangeModel::Learn(w, 100).value();
  SubdomainChangeModel agg = model.Aggregate({0, 1, 2, 3});
  double lambda_sum = 0.0;
  std::int64_t count_sum = 0;
  for (world::SubdomainId sub = 0; sub < 4; ++sub) {
    lambda_sum += model.subdomain(sub).lambda_insert;
    count_sum += model.subdomain(sub).count_at_t0;
  }
  EXPECT_DOUBLE_EQ(agg.lambda_insert, lambda_sum);
  EXPECT_EQ(agg.count_at_t0, count_sum);
}

TEST(WorldChangeModelTest, PredictCountLinearGrowth) {
  // Pure growth world: no deaths. E[count at t] = count_t0 + lambda (t-t0).
  world::DataDomain domain =
      world::DataDomain::Create("a", 1, "b", 1).value();
  world::WorldSpec spec{std::move(domain), {}, 500};
  spec.rates.push_back({3.0, 0.0, 0.0, 100});
  Rng rng(47);
  world::World w = world::SimulateWorld(spec, rng).value();
  WorldChangeModel model = WorldChangeModel::Learn(w, 300).value();
  const double predicted = model.PredictCount({0}, 500);
  const double actual = static_cast<double>(w.TotalCountAt(500));
  EXPECT_NEAR(predicted / actual, 1.0, 0.05);
}

TEST(WorldChangeModelTest, PredictCountStationaryWorld) {
  // Birth-death balance: prediction should stay near the t0 population.
  world::DataDomain domain =
      world::DataDomain::Create("a", 1, "b", 1).value();
  world::WorldSpec spec{std::move(domain), {}, 800};
  // Stationary population ~ lambda/gamma = 4 / 0.004 = 1000.
  spec.rates.push_back({4.0, 0.004, 0.0, 1000});
  Rng rng(53);
  world::World w = world::SimulateWorld(spec, rng).value();
  WorldChangeModel model = WorldChangeModel::Learn(w, 500).value();
  const double predicted = model.PredictCount({0}, 700);
  const double actual = static_cast<double>(w.TotalCountAt(700));
  EXPECT_NEAR(predicted / actual, 1.0, 0.08);
}

TEST(WorldChangeModelTest, PredictCountNeverNegative) {
  world::World w = testing::MakeTestWorld();
  WorldChangeModel model = WorldChangeModel::Learn(w, 60).value();
  EXPECT_GE(model.PredictCount({0, 1, 2, 3}, 100000), 0.0);
}

}  // namespace
}  // namespace freshsel::estimation
