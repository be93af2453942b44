// Incremental-oracle equivalence suite: scoring candidates through
// MarginalEvalContext (delta evaluation inside the estimator) is a pure
// acceleration - every algorithm must pick the identical selection with
// incremental on and off, with profits agreeing to <= 1e-12, on full
// BL-scenario ProfitOracles, across seeds and estimator Options flags.
// Oracle-call accounting must also match exactly, so the lazy-greedy
// savings statistics stay comparable across the two paths. The plain and
// eager reference runs go through testing::ForcedPathOracle.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "harness/learned_scenario.h"
#include "selection/algorithms.h"
#include "selection/budgeted_greedy.h"
#include "selection/cached_oracle.h"
#include "selection/cost.h"
#include "selection/selector.h"
#include "testing/forced_path_oracle.h"
#include "workloads/bl_generator.h"

namespace freshsel::selection {
namespace {

/// Incremental evaluations are ulp-equivalent to plain full-set calls
/// (factor products associate differently), so profits may differ in the
/// last bits while the argmax sequence - and hence the selection - stays
/// identical.
constexpr double kProfitTol = 1e-12;

using testing::ForcedPath;
using testing::ForcedPathOracle;

void ExpectEquivalent(const SelectionResult& incremental,
                      const SelectionResult& plain, const char* what,
                      std::uint64_t seed) {
  EXPECT_EQ(incremental.selected, plain.selected)
      << what << ", seed " << seed;
  EXPECT_NEAR(incremental.profit, plain.profit,
              kProfitTol * (1.0 + std::abs(plain.profit)))
      << what << ", seed " << seed;
  EXPECT_EQ(incremental.oracle_calls, plain.oracle_calls)
      << what << ", seed " << seed;
  EXPECT_EQ(incremental.oracle_calls_saved, plain.oracle_calls_saved)
      << what << ", seed " << seed;
}

/// Full-pipeline fixture: BL scenario -> learned models -> estimator ->
/// ProfitOracle, parameterized by scenario seed.
class IncrementalEquivalenceTest
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

  struct Pipeline {
    std::unique_ptr<harness::LearnedScenario> learned;
    std::unique_ptr<estimation::QualityEstimator> estimator;
    std::unique_ptr<ProfitOracle> oracle;
  };

  Pipeline MakePipeline(
      double budget,
      estimation::QualityEstimator::Options options = {}) {
    Pipeline p;
    p.learned = std::make_unique<harness::LearnedScenario>(
        harness::LearnScenario(*scenario_).value());
    p.estimator = std::make_unique<estimation::QualityEstimator>(
        estimation::QualityEstimator::Create(
            scenario_->world, p.learned->world_model, {},
            MakeTimePoints(scenario_->t0 + 14, 3, 14), options)
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

TEST_P(IncrementalEquivalenceTest, GreedyMatchesPlainEagerAndLazy) {
  Pipeline p = MakePipeline(std::numeric_limits<double>::infinity());
  ExpectEquivalent(Greedy(ForcedPathOracle(*p.oracle, ForcedPath::kEager)),
                   Greedy(ForcedPathOracle(*p.oracle,
                                           ForcedPath::kEagerPlain)),
                   "eager greedy", GetParam());
  ExpectEquivalent(Greedy(*p.oracle),
                   Greedy(ForcedPathOracle(*p.oracle, ForcedPath::kPlain)),
                   "lazy greedy", GetParam());
}

TEST_P(IncrementalEquivalenceTest, GreedyMatchesAcrossEstimatorOptions) {
  // Every estimator Options flag changes the oracle values; the
  // incremental path must track each variant exactly.
  for (int mask = 0; mask < 16; ++mask) {
    estimation::QualityEstimator::Options options;
    options.per_event_survival = (mask & 1) != 0;
    options.exponential_world_model = (mask & 2) != 0;
    options.model_capture_backlog = (mask & 4) != 0;
    options.model_ghost_result = (mask & 8) != 0;
    Pipeline p =
        MakePipeline(std::numeric_limits<double>::infinity(), options);
    SelectionResult plain =
        Greedy(ForcedPathOracle(*p.oracle, ForcedPath::kPlain));
    SelectionResult incremental = Greedy(*p.oracle);
    ExpectEquivalent(incremental, plain,
                     ("options mask " + std::to_string(mask)).c_str(),
                     GetParam());
  }
}

TEST_P(IncrementalEquivalenceTest, GreedyMatchesUnderMatroid) {
  Pipeline p = MakePipeline(std::numeric_limits<double>::infinity());
  std::vector<std::uint32_t> groups;
  for (std::size_t e = 0; e < p.oracle->universe_size(); ++e) {
    groups.push_back(static_cast<std::uint32_t>(e % 3));
  }
  PartitionMatroid matroid =
      PartitionMatroid::Create(groups, {2, 2, 2}).value();
  ExpectEquivalent(
      Greedy(ForcedPathOracle(*p.oracle, ForcedPath::kEager), &matroid),
      Greedy(ForcedPathOracle(*p.oracle, ForcedPath::kEagerPlain), &matroid),
      "matroid eager greedy", GetParam());
  ExpectEquivalent(
      Greedy(*p.oracle, &matroid),
      Greedy(ForcedPathOracle(*p.oracle, ForcedPath::kPlain), &matroid),
      "matroid lazy greedy", GetParam());
}

TEST_P(IncrementalEquivalenceTest, BudgetedGreedyMatchesPlain) {
  for (double budget : {0.2, 0.5}) {
    Pipeline p = MakePipeline(budget);
    ExpectEquivalent(
        BudgetedGreedy(ForcedPathOracle(*p.oracle, ForcedPath::kEager)),
        BudgetedGreedy(ForcedPathOracle(*p.oracle, ForcedPath::kEagerPlain)),
        "budgeted eager greedy", GetParam());
    ExpectEquivalent(
        BudgetedGreedy(*p.oracle),
        BudgetedGreedy(ForcedPathOracle(*p.oracle, ForcedPath::kPlain)),
        "budgeted lazy greedy", GetParam());
  }
}

TEST_P(IncrementalEquivalenceTest, GraspMatchesPlainSerialAndPooled) {
  // The plain reference evaluates serially (the decorator is not
  // thread-safe); incremental runs go serial and pooled.
  Pipeline p = MakePipeline(std::numeric_limits<double>::infinity());
  const SelectionResult plain =
      Grasp(ForcedPathOracle(*p.oracle, ForcedPath::kPlain),
            GraspParams{2, 3, GetParam(), nullptr});
  ThreadPool pool(3);
  for (ThreadPool* worker_pool : {static_cast<ThreadPool*>(nullptr),
                                  &pool}) {
    ExpectEquivalent(Grasp(*p.oracle, GraspParams{2, 3, GetParam(),
                                                  worker_pool}),
                     plain, worker_pool ? "grasp pooled" : "grasp serial",
                     GetParam());
  }
}

TEST_P(IncrementalEquivalenceTest, CachedOracleForwardsIncremental) {
  Pipeline p = MakePipeline(std::numeric_limits<double>::infinity());
  CachedProfitOracle cached(*p.oracle);
  SelectionResult plain = Greedy(ForcedPathOracle(cached, ForcedPath::kPlain));
  SelectionResult incremental = Greedy(cached);
  EXPECT_EQ(incremental.selected, plain.selected) << GetParam();
  EXPECT_NEAR(incremental.profit, plain.profit,
              kProfitTol * (1.0 + std::abs(plain.profit)))
      << GetParam();
  // The memo sits in front of the incremental context, so repeated keys
  // hit the cache identically on both paths; re-running through the same
  // decorator can only save calls.
  EXPECT_LE(incremental.oracle_calls, plain.oracle_calls) << GetParam();
}

TEST_P(IncrementalEquivalenceTest, SelectorFacadeHonorsIncrementalFlag) {
  // The facade scores on the oracle's context; handing out the plain
  // default context instead gives the same run.
  Pipeline p = MakePipeline(std::numeric_limits<double>::infinity());
  const ForcedPathOracle plain_oracle(*p.oracle, ForcedPath::kPlain);
  for (Algorithm algorithm : {Algorithm::kGreedy, Algorithm::kGrasp}) {
    SelectorConfig config;
    config.algorithm = algorithm;
    config.seed = GetParam();
    config.grasp_kappa = 2;
    config.grasp_restarts = 2;
    SelectionResult a = SelectSources(*p.oracle, config).value();
    SelectionResult b = SelectSources(plain_oracle, config).value();
    EXPECT_EQ(a.selected, b.selected)
        << AlgorithmName(algorithm) << ", seed " << GetParam();
    EXPECT_NEAR(a.profit, b.profit,
                kProfitTol * (1.0 + std::abs(b.profit)))
        << AlgorithmName(algorithm) << ", seed " << GetParam();
  }
}

/// The local searches score each full-set move on a context `Reset` to the
/// sorted set, which multiplies in the plain path's order: the runs must
/// match the plain reference exactly, profit bits included, and behind a
/// `CachedProfitOracle` with the same hits and misses.
template <typename Run>
void ExpectLocalSearchIdentical(const ProfitOracle& oracle, const Run& run,
                                const char* what, std::uint64_t seed) {
  const ForcedPathOracle plain(oracle, ForcedPath::kPlain);
  const auto expect_same = [&](const SelectionResult& got,
                               const SelectionResult& want,
                               const std::string& label) {
    EXPECT_EQ(got.selected, want.selected) << label << ", seed " << seed;
    EXPECT_EQ(got.profit, want.profit) << label << ", seed " << seed;
    EXPECT_EQ(got.oracle_calls, want.oracle_calls)
        << label << ", seed " << seed;
    EXPECT_EQ(got.cache_hit_rate, want.cache_hit_rate)
        << label << ", seed " << seed;
  };
  expect_same(run(oracle), run(plain), what);
  CachedProfitOracle cached(oracle);
  CachedProfitOracle cached_plain(plain);
  expect_same(run(cached), run(cached_plain), std::string(what) + " cached");
  EXPECT_EQ(cached.stats().hits, cached_plain.stats().hits)
      << what << ", seed " << seed;
  EXPECT_EQ(cached.stats().misses, cached_plain.stats().misses)
      << what << ", seed " << seed;
}

PartitionMatroid ThreeGroupMatroid(std::size_t n) {
  std::vector<std::uint32_t> groups;
  for (std::size_t e = 0; e < n; ++e) {
    groups.push_back(static_cast<std::uint32_t>(e % 3));
  }
  return PartitionMatroid::Create(groups, {2, 2, 2}).value();
}

TEST_P(IncrementalEquivalenceTest, MaxSubMatchesPlainBitForBit) {
  Pipeline p = MakePipeline(std::numeric_limits<double>::infinity());
  ExpectLocalSearchIdentical(
      *p.oracle, [](const ProfitFunction& f) { return MaxSub(f); }, "maxsub",
      GetParam());
}

TEST_P(IncrementalEquivalenceTest, MaxSubFromMatchesPlainBitForBit) {
  Pipeline p = MakePipeline(std::numeric_limits<double>::infinity());
  const std::vector<SourceHandle> warm = Greedy(*p.oracle).selected;
  ASSERT_FALSE(warm.empty());
  ExpectLocalSearchIdentical(
      *p.oracle,
      [&](const ProfitFunction& f) { return MaxSubFrom(f, warm); },
      "maxsub from greedy", GetParam());
}

TEST_P(IncrementalEquivalenceTest, MaxSubMatroidMatchesPlainBitForBit) {
  Pipeline p = MakePipeline(std::numeric_limits<double>::infinity());
  const PartitionMatroid matroid =
      ThreeGroupMatroid(p.oracle->universe_size());
  ExpectLocalSearchIdentical(
      *p.oracle,
      [&](const ProfitFunction& f) { return MaxSubMatroid(f, {&matroid}); },
      "maxsub matroid", GetParam());
}

TEST_P(IncrementalEquivalenceTest, MatroidLocalSearchMatchesPlainBitForBit) {
  Pipeline p = MakePipeline(std::numeric_limits<double>::infinity());
  const PartitionMatroid matroid =
      ThreeGroupMatroid(p.oracle->universe_size());
  std::vector<SourceHandle> ground;
  for (std::size_t e = 0; e < p.oracle->universe_size(); ++e) {
    ground.push_back(static_cast<SourceHandle>(e));
  }
  ExpectLocalSearchIdentical(
      *p.oracle,
      [&](const ProfitFunction& f) {
        return MatroidLocalSearch(f, {&matroid}, ground);
      },
      "matroid local search", GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalEquivalenceTest,
                         ::testing::Values(3u, 11u, 42u));

/// Synthetic oracle with only `Profit`: the base default context scores
/// with it, so the run equals the plain reference path.
class PlainCoverage : public ProfitFunction {
 public:
  std::size_t universe_size() const override { return 8; }
  bool submodular() const override { return true; }
  double Profit(const std::vector<SourceHandle>& set) const override {
    ++calls_;
    double total = 0.0;
    for (SourceHandle e : set) total += 1.0 / (1.0 + e);
    return total - 0.05 * static_cast<double>(set.size() * set.size());
  }
};

TEST(IncrementalFallbackTest, OracleWithoutSupportUsesPlainPath) {
  PlainCoverage f;
  SelectionResult on = Greedy(f);
  SelectionResult off = Greedy(ForcedPathOracle(f, ForcedPath::kPlain));
  EXPECT_EQ(on.selected, off.selected);
  EXPECT_EQ(on.profit, off.profit);
  EXPECT_EQ(on.oracle_calls, off.oracle_calls);
}

}  // namespace
}  // namespace freshsel::selection
