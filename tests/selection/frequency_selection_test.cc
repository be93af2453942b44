#include "selection/frequency_selection.h"

#include <cstdint>
#include <gtest/gtest.h>

#include <cmath>

#include <memory>
#include <vector>

#include "selection/algorithms.h"
#include "selection/selector.h"
#include "source/source_simulator.h"
#include "world/world_simulator.h"

namespace freshsel::selection {
namespace {

class FrequencyFixture : public ::testing::Test {
 protected:
  static constexpr TimePoint kT0 = 200;

  void SetUp() override {
    world::DataDomain domain =
        world::DataDomain::Create("loc", 1, "cat", 1).value();
    world::WorldSpec spec{std::move(domain), {}, 300};
    spec.rates.push_back({2.0, 0.01, 0.02, 200});
    Rng rng(223);
    world_ = std::make_unique<world::World>(
        world::SimulateWorld(spec, rng).value());
    for (int i = 0; i < 3; ++i) {
      source::SourceSpec s;
      s.name = "s" + std::to_string(i);
      s.scope = {0};
      s.schedule = {1, 0};
      s.insert_capture = {0.0, 1.0 + i};
      specs_.push_back(s);
    }
    histories_ = source::SimulateSources(*world_, specs_, rng).value();
    model_ = std::make_unique<estimation::WorldChangeModel>(
        estimation::WorldChangeModel::Learn(*world_, kT0).value());
    profiles_ =
        estimation::LearnSourceProfiles(*world_, histories_, kT0).value();
    estimator_ = std::make_unique<estimation::QualityEstimator>(
        estimation::QualityEstimator::Create(*world_, *model_, {},
                                             {kT0 + 30})
            .value());
  }

  std::vector<const estimation::SourceProfile*> ProfilePtrs() const {
    std::vector<const estimation::SourceProfile*> out;
    for (const auto& p : profiles_) out.push_back(&p);
    return out;
  }

  std::unique_ptr<world::World> world_;
  std::vector<source::SourceSpec> specs_;
  std::vector<source::SourceHistory> histories_;
  std::unique_ptr<estimation::WorldChangeModel> model_;
  std::vector<estimation::SourceProfile> profiles_;
  std::unique_ptr<estimation::QualityEstimator> estimator_;
};

TEST_F(FrequencyFixture, BuildValidates) {
  EXPECT_FALSE(BuildAugmentedUniverse(*estimator_, ProfilePtrs(),
                                      {1.0}, 3)
                   .ok());  // Cost count mismatch.
  EXPECT_FALSE(BuildAugmentedUniverse(*estimator_, ProfilePtrs(),
                                      {1.0, 1.0, 1.0}, 0)
                   .ok());  // Bad divisor.
}

TEST_F(FrequencyFixture, AugmentedUniverseStructure) {
  AugmentedUniverse universe =
      BuildAugmentedUniverse(*estimator_, ProfilePtrs(),
                             {100.0, 200.0, 300.0}, 4)
          .value();
  ASSERT_EQ(universe.handles.size(), 12u);  // 3 sources x 4 divisors.
  EXPECT_EQ(estimator_->source_count(), 12u);
  // Elements 0..3 are versions of source 0 with divisors 1..4.
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(universe.source_of[i], i / 4);
    EXPECT_EQ(universe.divisor_of[i], static_cast<std::int64_t>(i % 4 + 1));
    EXPECT_EQ(universe.matroid.GroupOf(
                  static_cast<SourceHandle>(i)),
              i / 4);
  }
  // Costs follow the paper's discount.
  EXPECT_DOUBLE_EQ(universe.costs[0], 100.0 / 1.1);
  EXPECT_DOUBLE_EQ(universe.costs[3], 100.0 / 1.4);
  EXPECT_DOUBLE_EQ(universe.costs[4], 200.0 / 1.1);
}

TEST_F(FrequencyFixture, SelectionUniverseAtDivisorOneHasNoMatroid) {
  SelectionUniverse universe =
      BuildSelectionUniverse(*estimator_, ProfilePtrs(),
                             {100.0, 200.0, 300.0}, 1)
          .value();
  EXPECT_EQ(estimator_->source_count(), 3u);
  EXPECT_EQ(universe.source_of, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(universe.divisor_of, (std::vector<std::int64_t>{1, 1, 1}));
  EXPECT_EQ(universe.costs, (std::vector<double>{100.0, 200.0, 300.0}));
  EXPECT_FALSE(universe.matroid.has_value());
  EXPECT_FALSE(BuildSelectionUniverse(*estimator_, ProfilePtrs(), {1.0}, 1)
                   .ok());  // Cost count mismatch.
}

TEST_F(FrequencyFixture, SelectionUniverseAboveDivisorOneIsAugmented) {
  SelectionUniverse universe =
      BuildSelectionUniverse(*estimator_, ProfilePtrs(),
                             {100.0, 200.0, 300.0}, 2)
          .value();
  EXPECT_EQ(estimator_->source_count(), 6u);
  EXPECT_EQ(universe.source_of,
            (std::vector<std::uint32_t>{0, 0, 1, 1, 2, 2}));
  EXPECT_EQ(universe.divisor_of,
            (std::vector<std::int64_t>{1, 2, 1, 2, 1, 2}));
  EXPECT_DOUBLE_EQ(universe.costs[1], 100.0 / 1.2);
  ASSERT_TRUE(universe.matroid.has_value());
  EXPECT_FALSE(universe.matroid->IsIndependent({0, 1}));
}

TEST_F(FrequencyFixture, MatroidForbidsTwoVersionsOfOneSource) {
  AugmentedUniverse universe =
      BuildAugmentedUniverse(*estimator_, ProfilePtrs(),
                             {100.0, 200.0, 300.0}, 3)
          .value();
  // Elements 0 and 1 are both versions of source 0.
  EXPECT_FALSE(universe.matroid.IsIndependent({0, 1}));
  // One version of each source is fine.
  EXPECT_TRUE(universe.matroid.IsIndependent({0, 4, 8}));
}

TEST_F(FrequencyFixture, EndToEndVaryingFrequencySelection) {
  AugmentedUniverse universe =
      BuildAugmentedUniverse(*estimator_, ProfilePtrs(),
                             {100.0, 100.0, 100.0}, 3)
          .value();
  ProfitOracle::Config config;
  config.gain = GainModel(GainFamily::kLinear, QualityMetric::kCoverage);
  ProfitOracle oracle =
      ProfitOracle::Create(estimator_.get(), universe.costs, config)
          .value();
  SelectorConfig selector;
  selector.algorithm = Algorithm::kMaxSub;
  SelectionResult result =
      SelectSources(oracle, selector, &universe.matroid).value();
  EXPECT_TRUE(universe.matroid.IsIndependent(result.selected));
  EXPECT_FALSE(result.selected.empty());
  // Varying frequencies should never do worse than the fixed-frequency
  // subset of the same universe restricted to divisor 1... at least the
  // returned profit must be a real feasible value.
  EXPECT_TRUE(std::isfinite(result.profit));
}

}  // namespace
}  // namespace freshsel::selection
