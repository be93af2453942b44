// Degradation equivalence suite (DESIGN.md §11): running the selector over
// a scenario whose roster contains K unfittable sources, learned through the
// robust pipeline in degrade mode, must produce byte-identical selections
// and profits to a pipeline where the subdomain-prior profiles are
// substituted manually. Graceful degradation is a pure profile rewrite — it
// must not perturb any downstream selection path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "estimation/degradation.h"
#include "estimation/source_profile.h"
#include "harness/learned_scenario.h"
#include "selection/algorithms.h"
#include "selection/budgeted_greedy.h"
#include "testing/forced_path_oracle.h"
#include "selection/cost.h"
#include "selection/profit.h"
#include "workloads/bl_generator.h"

namespace freshsel::selection {
namespace {

void ExpectIdentical(const SelectionResult& a, const SelectionResult& b,
                     const char* what, std::uint64_t seed) {
  EXPECT_EQ(a.selected, b.selected) << what << ", seed " << seed;
  EXPECT_EQ(a.profit, b.profit) << what << ", seed " << seed;
}

/// A source that never captured anything: declared scope, zero records.
source::SourceHistory MakeDeadSource(const workloads::Scenario& scenario,
                                     std::string name,
                                     std::vector<world::SubdomainId> scope) {
  source::SourceSpec spec;
  spec.name = std::move(name);
  spec.scope = std::move(scope);
  spec.schedule = {2, 0};
  return source::SourceHistory(spec, scenario.world.entity_count());
}

bool ScopesOverlap(const std::vector<world::SubdomainId>& observed,
                   const std::vector<world::SubdomainId>& declared) {
  for (world::SubdomainId sub : observed) {
    if (std::find(declared.begin(), declared.end(), sub) != declared.end()) {
      return true;
    }
  }
  return false;
}

/// BL scenario with three dead sources appended to the roster.
class DegradationEquivalenceTest
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
    fitted_count_ = scenario_->sources.size();
    scenario_->sources.push_back(
        MakeDeadSource(*scenario_, "dead-narrow", {0, 1}));
    scenario_->sources.push_back(
        MakeDeadSource(*scenario_, "dead-mid", {5, 9, 13}));
    scenario_->sources.push_back(
        MakeDeadSource(*scenario_, "dead-broad", {2, 7, 11, 19, 23}));
  }

  /// Estimator + oracle over an explicit profile vector.
  struct Pipeline {
    std::unique_ptr<estimation::QualityEstimator> estimator;
    std::unique_ptr<ProfitOracle> oracle;
  };

  Pipeline MakePipeline(const estimation::WorldChangeModel& world_model,
                        const std::vector<estimation::SourceProfile>& learned,
                        double budget) {
    Pipeline p;
    p.estimator = std::make_unique<estimation::QualityEstimator>(
        estimation::QualityEstimator::Create(
            scenario_->world, world_model, {},
            MakeTimePoints(scenario_->t0 + 14, 3, 14))
            .value());
    std::vector<const estimation::SourceProfile*> profiles;
    for (const auto& profile : learned) {
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

  /// The manual reference: plain learn (dead sources fit to zero profiles),
  /// then substitute each dead source's profile with MakePriorProfile built
  /// from the fitted peers overlapping its declared scope — exactly the
  /// contract LearnScenarioRobust promises in degrade mode.
  std::vector<estimation::SourceProfile> ManualSubstitution(
      const harness::LearnedScenario& plain) {
    std::vector<estimation::SourceProfile> substituted = plain.profiles;
    for (std::size_t i = fitted_count_; i < substituted.size(); ++i) {
      const std::vector<world::SubdomainId>& declared =
          scenario_->sources[i].spec().scope;
      std::vector<const estimation::SourceProfile*> peers;
      for (std::size_t j = 0; j < fitted_count_; ++j) {
        if (ScopesOverlap(plain.profiles[j].observed_scope, declared)) {
          peers.push_back(&plain.profiles[j]);
        }
      }
      if (peers.empty()) {
        for (std::size_t j = 0; j < fitted_count_; ++j) {
          peers.push_back(&plain.profiles[j]);
        }
      }
      substituted[i] = estimation::MakePriorProfile(
          plain.profiles[i], declared, peers, scenario_->t0);
    }
    return substituted;
  }

  std::unique_ptr<workloads::Scenario> scenario_;
  std::size_t fitted_count_ = 0;
};

TEST_P(DegradationEquivalenceTest, RobustLearnMatchesManualSubstitution) {
  const harness::LearnedScenario robust =
      harness::LearnScenarioRobust(*scenario_,
                                   estimation::DegradationMode::kDegrade)
          .value();
  ASSERT_EQ(robust.degradation.degraded.size(), 3u);
  EXPECT_EQ(robust.degradation.total_sources, scenario_->sources.size());
  EXPECT_EQ(robust.degradation.degraded[0].name, "dead-narrow");
  EXPECT_EQ(robust.degradation.degraded[0].index, fitted_count_);

  const harness::LearnedScenario plain =
      harness::LearnScenario(*scenario_).value();
  const std::vector<estimation::SourceProfile> manual =
      ManualSubstitution(plain);
  ASSERT_EQ(robust.profiles.size(), manual.size());
  for (std::size_t i = 0; i < manual.size(); ++i) {
    EXPECT_EQ(robust.profiles[i].g_insert.knots(),
              manual[i].g_insert.knots())
        << "source " << i;
    EXPECT_EQ(robust.profiles[i].g_update.knots(),
              manual[i].g_update.knots())
        << "source " << i;
    EXPECT_EQ(robust.profiles[i].update_interval, manual[i].update_interval)
        << "source " << i;
  }
  // The substitution must not be vacuous: a prior profile carries real
  // capture signal where the zero profile carried none.
  for (std::size_t i = fitted_count_; i < robust.profiles.size(); ++i) {
    EXPECT_DOUBLE_EQ(plain.profiles[i].g_insert.FinalValue(), 0.0);
    EXPECT_GT(robust.profiles[i].g_insert.FinalValue(), 0.0)
        << "source " << i;
  }
}

TEST_P(DegradationEquivalenceTest, GreedySelectsIdenticallyOnBothPipelines) {
  const harness::LearnedScenario robust =
      harness::LearnScenarioRobust(*scenario_,
                                   estimation::DegradationMode::kDegrade)
          .value();
  const harness::LearnedScenario plain =
      harness::LearnScenario(*scenario_).value();
  const std::vector<estimation::SourceProfile> manual =
      ManualSubstitution(plain);
  const double unbounded = std::numeric_limits<double>::infinity();
  Pipeline a = MakePipeline(robust.world_model, robust.profiles, unbounded);
  Pipeline b = MakePipeline(plain.world_model, manual, unbounded);
  ExpectIdentical(
      Greedy(testing::ForcedPathOracle(*a.oracle, testing::ForcedPath::kEager)),
      Greedy(testing::ForcedPathOracle(*b.oracle, testing::ForcedPath::kEager)),
      "degraded eager greedy", GetParam());
  ExpectIdentical(Greedy(*a.oracle), Greedy(*b.oracle),
                  "degraded lazy greedy", GetParam());
}

TEST_P(DegradationEquivalenceTest, BudgetedGreedyAgreesOnBothPipelines) {
  const harness::LearnedScenario robust =
      harness::LearnScenarioRobust(*scenario_,
                                   estimation::DegradationMode::kDegrade)
          .value();
  const harness::LearnedScenario plain =
      harness::LearnScenario(*scenario_).value();
  const std::vector<estimation::SourceProfile> manual =
      ManualSubstitution(plain);
  for (double budget : {0.2, 0.5}) {
    Pipeline a = MakePipeline(robust.world_model, robust.profiles, budget);
    Pipeline b = MakePipeline(plain.world_model, manual, budget);
    ExpectIdentical(BudgetedGreedy(*a.oracle), BudgetedGreedy(*b.oracle),
                    "degraded budgeted greedy", GetParam());
  }
}

TEST_P(DegradationEquivalenceTest, GraspAgreesOnBothPipelines) {
  const harness::LearnedScenario robust =
      harness::LearnScenarioRobust(*scenario_,
                                   estimation::DegradationMode::kDegrade)
          .value();
  const harness::LearnedScenario plain =
      harness::LearnScenario(*scenario_).value();
  const std::vector<estimation::SourceProfile> manual =
      ManualSubstitution(plain);
  const double unbounded = std::numeric_limits<double>::infinity();
  Pipeline a = MakePipeline(robust.world_model, robust.profiles, unbounded);
  Pipeline b = MakePipeline(plain.world_model, manual, unbounded);
  ThreadPool pool(3);
  GraspParams params{2, 3, GetParam(), &pool};
  ExpectIdentical(Grasp(*a.oracle, params), Grasp(*b.oracle, params),
                  "degraded grasp", GetParam());
}

TEST_P(DegradationEquivalenceTest, StrictModeRefusesTheDegradedRoster) {
  const Result<harness::LearnedScenario> robust = harness::LearnScenarioRobust(
      *scenario_, estimation::DegradationMode::kStrict);
  ASSERT_FALSE(robust.ok());
  EXPECT_EQ(robust.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(robust.status().message().find("dead-narrow"), std::string::npos);
  EXPECT_NE(robust.status().message().find("dead-broad"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DegradationEquivalenceTest,
                         ::testing::Values(3u, 11u, 42u));

}  // namespace
}  // namespace freshsel::selection
