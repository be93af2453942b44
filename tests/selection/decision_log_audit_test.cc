// Decision-log audit suite: the per-round audit trail recorded through
// GreedyOptions/GraspParams/BudgetedGreedyOptions::decision_log must
// reconstruct the selection exactly - same acceptance order, bit-identical
// telescoping gains and final profit - so a committed RunReport explains a
// run without re-executing it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "obs/decision_log.h"
#include "selection/algorithms.h"
#include "selection/budgeted_greedy.h"
#include "testing/forced_path_oracle.h"

namespace freshsel::selection {
namespace {

/// Weighted-coverage submodular profit with additive costs, small enough
/// that every algorithm terminates in a handful of rounds but rich enough
/// that marginal gains are all distinct.
class CoverageOracle : public ProfitFunction {
 public:
  CoverageOracle() {
    covers_ = {{0, 1, 2}, {2, 3}, {4, 5, 6}, {0, 6}, {7}, {1, 3, 5, 7}};
    item_weights_ = {1.0, 0.75, 0.5, 1.25, 0.875, 0.625, 1.5, 0.9375};
    costs_ = {0.25, 0.125, 0.375, 0.5, 0.0625, 0.1875};
  }

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

 private:
  std::vector<std::vector<int>> covers_;
  std::vector<double> item_weights_;
  std::vector<double> costs_;
};

/// Gain/cost split of the same structure for BudgetedGreedy.
class BudgetedCoverageOracle : public GainCostFunction {
 public:
  explicit BudgetedCoverageOracle(double budget) : budget_(budget) {}

  std::size_t universe_size() const override {
    return inner_.universe_size();
  }
  bool submodular() const override { return true; }
  double Profit(const std::vector<SourceHandle>& set) const override {
    return inner_.Profit(set);
  }
  double Gain(const std::vector<SourceHandle>& set) const override {
    ++calls_;
    return inner_.Profit(set) + Cost(set);  // Undo the cost term.
  }
  double Cost(const std::vector<SourceHandle>& set) const override {
    const std::vector<double> costs = {0.25,   0.125, 0.375,
                                       0.5,    0.0625, 0.1875};
    double total = 0.0;
    for (SourceHandle e : set) total += costs[e];
    return total;
  }
  double budget() const override { return budget_; }

 private:
  CoverageOracle inner_;
  double budget_;
};

/// Replays the log against the result: acceptance order, telescoping
/// gains, and the final profit must all match bit-identically (the
/// algorithm computed the gains from these very doubles).
void ExpectLogReconstructsResult(const obs::DecisionLog& log,
                                 const SelectionResult& result) {
  ASSERT_EQ(log.records().size(), result.selected.size());
  std::vector<SourceHandle> chosen;
  double prev_profit = 0.0;
  for (std::size_t i = 0; i < log.records().size(); ++i) {
    const obs::DecisionRecord& record = log.records()[i];
    EXPECT_EQ(record.kind, obs::DecisionKind::kAdd) << "round " << i;
    EXPECT_EQ(record.round, i);
    if (i > 0) {
      EXPECT_EQ(record.gain, record.profit - prev_profit) << "round " << i;
    }
    prev_profit = record.profit;
    chosen.push_back(static_cast<SourceHandle>(record.chosen));
  }
  EXPECT_EQ(log.records().back().profit, result.profit);
  std::vector<SourceHandle> sorted = chosen;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, result.selected);
}

TEST(DecisionLogAuditTest, LazyGreedyLogReconstructsSelection) {
  CoverageOracle oracle;
  obs::DecisionLog log;
  GreedyOptions options;
  options.decision_log = &log;
  const SelectionResult result = Greedy(oracle, nullptr, options);
  ASSERT_FALSE(log.empty());
  EXPECT_EQ(log.algorithm(), "greedy/lazy");
  ExpectLogReconstructsResult(log, result);
  // Oracle-call attribution never exceeds the run's total (the empty-set
  // seed evaluation and final sub-epsilon rescores are unattributed).
  std::uint64_t logged_calls = 0;
  for (const obs::DecisionRecord& record : log.records()) {
    logged_calls += record.oracle_calls;
  }
  EXPECT_LE(logged_calls, result.oracle_calls);
}

TEST(DecisionLogAuditTest, EagerAndLazyLogsAgreeBitIdentically) {
  CoverageOracle oracle;
  obs::DecisionLog lazy_log;
  GreedyOptions lazy_options;
  lazy_options.decision_log = &lazy_log;
  const SelectionResult lazy = Greedy(oracle, nullptr, lazy_options);

  obs::DecisionLog eager_log;
  GreedyOptions eager_options;
  eager_options.decision_log = &eager_log;
  const SelectionResult eager = Greedy(
      testing::ForcedPathOracle(oracle, testing::ForcedPath::kEager),
      nullptr, eager_options);

  ASSERT_FALSE(lazy_log.empty());
  EXPECT_EQ(lazy_log.algorithm(), "greedy/lazy");
  EXPECT_EQ(eager_log.algorithm(), "greedy/eager");
  EXPECT_EQ(lazy.selected, eager.selected);
  ASSERT_EQ(lazy_log.records().size(), eager_log.records().size());
  for (std::size_t i = 0; i < lazy_log.records().size(); ++i) {
    EXPECT_EQ(lazy_log.records()[i].chosen, eager_log.records()[i].chosen);
    EXPECT_EQ(lazy_log.records()[i].gain, eager_log.records()[i].gain);
    EXPECT_EQ(lazy_log.records()[i].profit,
              eager_log.records()[i].profit);
  }
}

TEST(DecisionLogAuditTest, RunnerUpMarginsAreConsistent) {
  CoverageOracle oracle;
  obs::DecisionLog log;
  GreedyOptions options;
  options.decision_log = &log;
  // The eager scan always knows the runner-up.
  Greedy(testing::ForcedPathOracle(oracle, testing::ForcedPath::kEager),
         nullptr, options);
  ASSERT_FALSE(log.empty());
  bool saw_runner_up = false;
  for (const obs::DecisionRecord& record : log.records()) {
    if (!record.has_runner_up) continue;
    saw_runner_up = true;
    EXPECT_NE(record.runner_up, record.chosen);
    EXPECT_GE(record.margin, 0.0);
    EXPECT_EQ(record.margin, record.score - record.runner_up_score);
  }
  // Six candidates with distinct marginals: at least the first round has
  // a runner-up.
  EXPECT_TRUE(saw_runner_up);
}

TEST(DecisionLogAuditTest, StochasticGreedyTagsSampleSizes) {
  CoverageOracle oracle;
  obs::DecisionLog log;
  GreedyOptions options;
  options.stochastic = true;
  options.stochastic_seed = 7;
  options.decision_log = &log;
  const SelectionResult result = Greedy(oracle, nullptr, options);
  ASSERT_FALSE(log.empty());
  EXPECT_EQ(log.algorithm(), "greedy/stochastic");
  ASSERT_EQ(log.records().size(), result.selected.size());
  for (const obs::DecisionRecord& record : log.records()) {
    EXPECT_GT(record.sample_size, 0u);
    EXPECT_LE(record.sample_size, oracle.universe_size());
  }
}

TEST(DecisionLogAuditTest, BudgetedGreedyNamesItsVariant) {
  BudgetedCoverageOracle oracle(/*budget=*/10.0);  // Loose: phase 1 wins.
  obs::DecisionLog log;
  BudgetedGreedyOptions options;
  options.decision_log = &log;
  const SelectionResult result = BudgetedGreedy(oracle, options);
  ASSERT_FALSE(log.empty());
  EXPECT_EQ(log.algorithm(), "budgeted/lazy");
  ASSERT_FALSE(log.records().size() == 0);
  ASSERT_FALSE(result.selected.empty());
  for (const obs::DecisionRecord& record : log.records()) {
    EXPECT_EQ(record.kind, obs::DecisionKind::kAdd);
  }
}

TEST(DecisionLogAuditTest, GraspTagsRestarts) {
  CoverageOracle oracle;
  obs::DecisionLog log;
  GraspParams params;
  params.kappa = 2;
  params.restarts = 3;
  params.seed = 11;
  params.decision_log = &log;
  Grasp(oracle, params);
  ASSERT_FALSE(log.empty());
  EXPECT_EQ(log.algorithm(), "grasp");
  ASSERT_FALSE(log.records().size() == 0);
  std::uint32_t max_restart = 0;
  for (const obs::DecisionRecord& record : log.records()) {
    EXPECT_LT(record.restart, 3u);
    max_restart = std::max(max_restart, record.restart);
    const bool known_kind = record.kind == obs::DecisionKind::kAdd ||
                            record.kind == obs::DecisionKind::kRemove ||
                            record.kind == obs::DecisionKind::kSwap;
    EXPECT_TRUE(known_kind);
  }
  EXPECT_GT(max_restart, 0u);  // Later restarts audit too.
}

}  // namespace
}  // namespace freshsel::selection
