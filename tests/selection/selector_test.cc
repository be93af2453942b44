#include "selection/selector.h"

#include <gtest/gtest.h>

#include "selection/cached_oracle.h"
#include "selection/profit.h"

namespace freshsel::selection {
namespace {

/// Modular test function (same shape as in algorithms_test).
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

TEST(SelectorTest, AlgorithmNames) {
  EXPECT_EQ(AlgorithmName(Algorithm::kGreedy), "Greedy");
  EXPECT_EQ(AlgorithmName(Algorithm::kMaxSub), "MaxSub");
  EXPECT_EQ(AlgorithmName(Algorithm::kGrasp, 5, 20), "GRASP-(5,20)");
  EXPECT_EQ(AlgorithmName(Algorithm::kBudgeted), "BudgetedGreedy");
}

TEST(SelectorTest, DispatchesAllAlgorithmsToOptimum) {
  ModularFunction f({2.0, -1.0, 3.0});
  for (Algorithm algorithm :
       {Algorithm::kGreedy, Algorithm::kMaxSub, Algorithm::kGrasp}) {
    SelectorConfig config;
    config.algorithm = algorithm;
    config.grasp_kappa = 2;
    config.grasp_restarts = 5;
    Result<SelectionResult> result = SelectSources(f, config);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->selected, (std::vector<SourceHandle>{0, 2}))
        << AlgorithmName(algorithm);
    EXPECT_DOUBLE_EQ(result->profit, 5.0);
  }
}

TEST(SelectorTest, MaxSubWithMatroidUsesConstrainedSearch) {
  ModularFunction f({5.0, 4.0, 3.0});
  PartitionMatroid matroid =
      PartitionMatroid::Create({0, 0, 0}, {1}).value();
  SelectorConfig config;
  config.algorithm = Algorithm::kMaxSub;
  Result<SelectionResult> result = SelectSources(f, config, &matroid);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->selected, (std::vector<SourceHandle>{0}));
}

TEST(SelectorTest, BudgetedNeedsAGainCostOracle) {
  ModularFunction f({1.0, 2.0});
  SelectorConfig config;
  config.algorithm = Algorithm::kBudgeted;
  Result<SelectionResult> result = SelectSources(f, config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// The memoizing decorator is a GainCostFunction by type; over a plain
// profit it must be refused the same way, not abort inside budget().
TEST(SelectorTest, BudgetedRefusesACachedPlainProfitOracle) {
  ModularFunction f({1.0, 2.0});
  CachedProfitOracle cached(f);
  SelectorConfig config;
  config.algorithm = Algorithm::kBudgeted;
  Result<SelectionResult> plain = SelectSources(f, config);
  Result<SelectionResult> result = SelectSources(cached, config);
  ASSERT_FALSE(plain.ok());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.status().message(), plain.status().message());
  EXPECT_EQ(cached.gain_cost(), nullptr);
}

}  // namespace
}  // namespace freshsel::selection
