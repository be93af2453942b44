#include "selection/algorithms.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/random.h"
#include "selection/set_util.h"
#include "testing/forced_path_oracle.h"

namespace freshsel::selection {
namespace {

/// Modular (additive) test function: Profit(S) = sum of per-element weights
/// (negative weights model cost-dominated elements).
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

/// Weighted-coverage submodular function minus additive costs: element e
/// covers a set of items; Profit(S) = sum of weights of covered items minus
/// sum of element costs. Monotone submodular gain, additive cost - exactly
/// the structure of the paper's profit.
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

/// A complementary pair: elements 0 and 1 earn a bonus together, so the
/// profit is not submodular (element 1's marginal grows once 0 is in).
/// Element 2 is a decoy with a small constant loss. Reports the default
/// `submodular() == false`.
class ComplementaryPair : public ProfitFunction {
 public:
  std::size_t universe_size() const override { return 3; }
  double Profit(const std::vector<SourceHandle>& set) const override {
    ++calls_;
    const double weights[] = {1.0, -0.1, -0.05};
    double total = 0.0;
    for (SourceHandle e : set) total += weights[e];
    if (internal::Contains(set, 0) && internal::Contains(set, 1)) {
      total += 2.0;
    }
    return total;
  }
};

TEST(ImprovesByTest, ThresholdSemantics) {
  EXPECT_TRUE(internal::ImprovesBy(1.2, 1.0, 0.1));
  EXPECT_FALSE(internal::ImprovesBy(1.05, 1.0, 0.1));
  EXPECT_FALSE(internal::ImprovesBy(
      std::numeric_limits<double>::infinity() * -1.0, 1.0, 0.1));
  // Near-zero current: absolute guard applies.
  EXPECT_TRUE(internal::ImprovesBy(0.01, 0.0, 0.1));
  EXPECT_FALSE(internal::ImprovesBy(1e-6, 0.0, 0.1));
}

TEST(GreedyTest, PicksAllPositiveWeights) {
  ModularFunction f({1.0, -2.0, 3.0, -0.5, 2.0});
  SelectionResult result = Greedy(f);
  EXPECT_EQ(result.selected, (std::vector<SourceHandle>{0, 2, 4}));
  EXPECT_DOUBLE_EQ(result.profit, 6.0);
  EXPECT_GT(result.oracle_calls, 0u);
}

TEST(GreedyTest, EmptyWhenEverythingHurts) {
  ModularFunction f({-1.0, -2.0});
  SelectionResult result = Greedy(f);
  EXPECT_TRUE(result.selected.empty());
  EXPECT_DOUBLE_EQ(result.profit, 0.0);
}

TEST(GreedyTest, NearZeroProfitsTerminateEmpty) {
  // Marginals at or below the unified improvement threshold must not be
  // taken - the greedy family shares internal::kImprovementEps, so runs on
  // near-zero-profit instances terminate immediately instead of chaining
  // floating-point chatter.
  ModularFunction f({internal::kImprovementEps,
                     internal::kImprovementEps / 2.0, 0.0});
  const testing::ForcedPathOracle eager(f, testing::ForcedPath::kEager);
  for (const SelectionResult& result : {Greedy(f), Greedy(eager)}) {
    EXPECT_TRUE(result.selected.empty());
    EXPECT_DOUBLE_EQ(result.profit, 0.0);
  }
  // A marginal just above the threshold is still taken.
  ModularFunction above({1e-9});
  EXPECT_EQ(Greedy(above).selected, (std::vector<SourceHandle>{0}));
}

TEST(GreedyTest, EagerFallbackMatchesDefault) {
  Rng rng(167);
  CoverageFunction f = CoverageFunction::Random(12, 18, 0.4, rng);
  SelectionResult lazy = Greedy(f);
  SelectionResult eager =
      Greedy(testing::ForcedPathOracle(f, testing::ForcedPath::kEager));
  EXPECT_EQ(lazy.selected, eager.selected);
  EXPECT_DOUBLE_EQ(lazy.profit, eager.profit);
  // The lazy path must not spend more oracle calls than the eager scan,
  // and the saved + spent accounting must reconstruct the eager total.
  EXPECT_LE(lazy.oracle_calls, eager.oracle_calls);
  EXPECT_EQ(lazy.oracle_calls + lazy.oracle_calls_saved,
            eager.oracle_calls);
}

TEST(GreedyTest, NonSubmodularProfitGetsTheFullScan) {
  // CELF would trust element 1's stale marginal (-0.1) as an upper bound:
  // after taking 0 it re-scores only the decoy (-0.05), which tops the
  // queue, and stops at {0} with profit 1.0. A full re-scan sees that 1 is
  // now worth +1.9.
  ComplementaryPair f;
  ASSERT_FALSE(f.submodular());
  const SelectionResult result = Greedy(f);
  EXPECT_EQ(result.selected, (std::vector<SourceHandle>{0, 1}));
  EXPECT_DOUBLE_EQ(result.profit, 2.9);
  EXPECT_EQ(result.oracle_calls_saved, 0u);
  const SelectionResult eager =
      Greedy(testing::ForcedPathOracle(f, testing::ForcedPath::kEager));
  EXPECT_EQ(result.selected, eager.selected);
  EXPECT_EQ(result.oracle_calls, eager.oracle_calls);
}

TEST(GreedyTest, RespectsMatroid) {
  ModularFunction f({5.0, 4.0, 3.0, 2.0});
  // All four elements in one group of capacity 2.
  PartitionMatroid matroid =
      PartitionMatroid::Create({0, 0, 0, 0}, {2}).value();
  SelectionResult result = Greedy(f, &matroid);
  EXPECT_EQ(result.selected, (std::vector<SourceHandle>{0, 1}));
  EXPECT_DOUBLE_EQ(result.profit, 9.0);
}

TEST(BruteForceTest, FindsOptimum) {
  ModularFunction f({1.0, -2.0, 3.0});
  SelectionResult result = BruteForce(f);
  EXPECT_EQ(result.selected, (std::vector<SourceHandle>{0, 2}));
  EXPECT_DOUBLE_EQ(result.profit, 4.0);
}

TEST(BruteForceTest, RespectsMatroid) {
  ModularFunction f({1.0, 2.0, 4.0});
  PartitionMatroid matroid =
      PartitionMatroid::Create({0, 0, 0}, {1}).value();
  SelectionResult result = BruteForce(f, &matroid);
  EXPECT_EQ(result.selected, (std::vector<SourceHandle>{2}));
}

TEST(MaxSubTest, ModularOptimum) {
  ModularFunction f({1.0, -2.0, 3.0, -0.5, 2.0});
  SelectionResult result = MaxSub(f);
  EXPECT_EQ(result.selected, (std::vector<SourceHandle>{0, 2, 4}));
  EXPECT_DOUBLE_EQ(result.profit, 6.0);
}

TEST(MaxSubTest, EmptyUniverse) {
  ModularFunction f({});
  SelectionResult result = MaxSub(f);
  EXPECT_TRUE(result.selected.empty());
}

TEST(MaxSubTest, NearOptimalOnRandomCoverageInstances) {
  Rng rng(171);
  for (int round = 0; round < 25; ++round) {
    CoverageFunction f = CoverageFunction::Random(9, 14, 0.4, rng);
    SelectionResult opt = BruteForce(f);
    SelectionResult maxsub = MaxSub(f, /*epsilon=*/0.1);
    // Feige et al. guarantee 1/3 for non-monotone; our instances are
    // near-monotone, so demand much more in practice.
    EXPECT_GE(maxsub.profit, 0.75 * opt.profit - 1e-9)
        << "round " << round;
  }
}

TEST(MaxSubTest, BeatsOrMatchesGreedyOnAverage) {
  Rng rng(173);
  double maxsub_total = 0.0;
  double greedy_total = 0.0;
  for (int round = 0; round < 30; ++round) {
    CoverageFunction f = CoverageFunction::Random(10, 16, 0.5, rng);
    maxsub_total += MaxSub(f, 0.1).profit;
    greedy_total += Greedy(f).profit;
  }
  EXPECT_GE(maxsub_total, 0.98 * greedy_total);
}

TEST(MatroidLocalSearchTest, RespectsConstraints) {
  Rng rng(177);
  for (int round = 0; round < 20; ++round) {
    CoverageFunction f = CoverageFunction::Random(12, 16, 0.3, rng);
    // Three groups of four, capacity 1 each.
    PartitionMatroid matroid =
        PartitionMatroid::Create({0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2},
                                 {1, 1, 1})
            .value();
    SelectionResult result = MaxSubMatroid(f, {&matroid}, 0.1);
    EXPECT_TRUE(matroid.IsIndependent(result.selected));
    EXPECT_LE(result.selected.size(), 3u);
  }
}

TEST(MatroidLocalSearchTest, NearOptimalUnderPartitionMatroid) {
  Rng rng(179);
  for (int round = 0; round < 20; ++round) {
    CoverageFunction f = CoverageFunction::Random(10, 14, 0.3, rng);
    PartitionMatroid matroid =
        PartitionMatroid::Create({0, 0, 0, 0, 0, 1, 1, 1, 1, 1}, {2, 2})
            .value();
    SelectionResult opt = BruteForce(f, &matroid);
    SelectionResult local = MaxSubMatroid(f, {&matroid}, 0.05);
    // Guarantee is 1/(k+eps) = ~1/1; in practice expect close to optimal.
    EXPECT_GE(local.profit, 0.6 * opt.profit - 1e-9) << "round " << round;
  }
}

TEST(GraspTest, HillClimbFindsModularOptimum) {
  ModularFunction f({1.0, -2.0, 3.0, -0.5, 2.0});
  SelectionResult result = Grasp(f, GraspParams{1, 1, 7});
  EXPECT_EQ(result.selected, (std::vector<SourceHandle>{0, 2, 4}));
}

TEST(GraspTest, DeterministicForSeed) {
  Rng rng(181);
  CoverageFunction f = CoverageFunction::Random(10, 15, 0.4, rng);
  SelectionResult a = Grasp(f, GraspParams{3, 5, 99});
  SelectionResult b = Grasp(f, GraspParams{3, 5, 99});
  EXPECT_EQ(a.selected, b.selected);
  EXPECT_DOUBLE_EQ(a.profit, b.profit);
}

TEST(GraspTest, MoreRestartsNeverHurt) {
  Rng rng(191);
  for (int round = 0; round < 10; ++round) {
    CoverageFunction f = CoverageFunction::Random(10, 15, 0.5, rng);
    const double one = Grasp(f, GraspParams{2, 1, 7}).profit;
    const double many = Grasp(f, GraspParams{2, 12, 7}).profit;
    EXPECT_GE(many, one - 1e-9);
  }
}

TEST(GraspTest, NearOptimalOnRandomInstances) {
  Rng rng(193);
  for (int round = 0; round < 20; ++round) {
    CoverageFunction f = CoverageFunction::Random(9, 12, 0.4, rng);
    SelectionResult opt = BruteForce(f);
    SelectionResult grasp = Grasp(f, GraspParams{3, 10, 5});
    EXPECT_GE(grasp.profit, 0.9 * opt.profit - 1e-9) << "round " << round;
  }
}

TEST(GraspTest, RespectsMatroid) {
  Rng rng(197);
  CoverageFunction f = CoverageFunction::Random(8, 12, 0.2, rng);
  PartitionMatroid matroid =
      PartitionMatroid::Create({0, 0, 0, 0, 1, 1, 1, 1}, {1, 1}).value();
  SelectionResult result = Grasp(f, GraspParams{2, 8, 3}, &matroid);
  EXPECT_TRUE(matroid.IsIndependent(result.selected));
}

TEST(GraspConstructTest, ReusesPickedProfitInsteadOfReEvaluating) {
  // Regression: Construct used to re-call oracle.Profit(selected) after
  // adding the picked candidate although that exact value had just been
  // computed for the pick. The per-round budget is therefore exactly the
  // candidate scan - 1 initial call plus (#feasible unselected) per round,
  // nothing more.
  ModularFunction f({1.0, 2.0, 3.0});
  Rng rng(7);
  const std::vector<SourceHandle> selected =
      internal::GraspConstruct(f, /*kappa=*/1, nullptr, rng, nullptr);
  EXPECT_EQ(selected, (std::vector<SourceHandle>{0, 1, 2}));
  // Rounds scan 3, 2, then 1 candidate; plus the initial Profit({}).
  EXPECT_EQ(f.call_count(), 1u + 3u + 2u + 1u);
}

TEST(GraspConstructTest, CallCountScalesWithFeasibleCandidatesOnly) {
  // Under a capacity-1 matroid only the first round scans everything; the
  // loop then ends with no feasible candidate left, again with zero
  // post-pick re-evaluation.
  ModularFunction f({5.0, 4.0, 3.0, 2.0});
  PartitionMatroid matroid =
      PartitionMatroid::Create({0, 0, 0, 0}, {1}).value();
  Rng rng(11);
  const std::vector<SourceHandle> selected =
      internal::GraspConstruct(f, /*kappa=*/1, &matroid, rng, nullptr);
  EXPECT_EQ(selected, (std::vector<SourceHandle>{0}));
  EXPECT_EQ(f.call_count(), 1u + 4u);
}

TEST(MaxSubFromTest, WarmStartReachesSameQualityAsColdStart) {
  Rng rng(211);
  for (int round = 0; round < 15; ++round) {
    CoverageFunction f = CoverageFunction::Random(10, 14, 0.4, rng);
    SelectionResult cold = MaxSub(f, 0.1);
    // Warm starts from several seeds must reach at least cold quality
    // minus local-optimum slack; from the cold optimum itself, exactly it.
    SelectionResult warm_same = MaxSubFrom(f, cold.selected, 0.1);
    EXPECT_GE(warm_same.profit, cold.profit - 1e-9);
    SelectionResult warm_empty = MaxSubFrom(f, {}, 0.1);
    EXPECT_GE(warm_empty.profit, 0.5 * cold.profit - 1e-9);
  }
}

TEST(MaxSubFromTest, ImprovesAPoorStart) {
  ModularFunction f({3.0, -2.0, 5.0, -1.0});
  // Start from the worst possible set.
  SelectionResult result = MaxSubFrom(f, {1, 3}, 0.1);
  EXPECT_EQ(result.selected, (std::vector<SourceHandle>{0, 2}));
  EXPECT_DOUBLE_EQ(result.profit, 8.0);
}

TEST(MaxSubFromDeathTest, RejectsAStartThatIsNotASortedSubset) {
  ModularFunction f({3.0, -2.0, 5.0, -1.0});
  EXPECT_DEATH(MaxSubFrom(f, {3, 1}), "sorted and distinct");
  EXPECT_DEATH(MaxSubFrom(f, {1, 1}), "sorted and distinct");
  EXPECT_DEATH(MaxSubFrom(f, {1, 4}), "outside the universe of 4");
}

TEST(OracleCallCountingTest, CallsAreCounted) {
  ModularFunction f({1.0, 2.0, 3.0});
  EXPECT_EQ(f.call_count(), 0u);
  SelectionResult result = Greedy(f);
  EXPECT_EQ(result.oracle_calls, f.call_count());
  f.ResetCallCount();
  EXPECT_EQ(f.call_count(), 0u);
}

}  // namespace
}  // namespace freshsel::selection
