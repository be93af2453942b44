#include "selection/cached_oracle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/report.h"
#include "selection/algorithms.h"
#include "selection/selector.h"

namespace freshsel::selection {
namespace {

/// Modular profit with a gain/cost split, counting underlying evaluations.
class ModularGainCost : public GainCostFunction {
 public:
  ModularGainCost(std::vector<double> weights, std::vector<double> costs,
                  double budget)
      : weights_(std::move(weights)),
        costs_(std::move(costs)),
        budget_(budget) {}

  std::size_t universe_size() const override { return weights_.size(); }
  bool submodular() const override { return true; }
  double Gain(const std::vector<SourceHandle>& set) const override {
    ++calls_;
    double total = 0.0;
    for (SourceHandle e : set) total += weights_[e];
    return total;
  }
  double Cost(const std::vector<SourceHandle>& set) const override {
    ++calls_;
    double total = 0.0;
    for (SourceHandle e : set) total += costs_[e];
    return total;
  }
  double Profit(const std::vector<SourceHandle>& set) const override {
    ++calls_;
    double total = 0.0;
    for (SourceHandle e : set) total += weights_[e] - costs_[e];
    return total;
  }
  double budget() const override { return budget_; }
  bool thread_safe() const override { return true; }

 private:
  std::vector<double> weights_;
  std::vector<double> costs_;
  double budget_;
};

TEST(CachedProfitOracleTest, RepeatEvaluationsHitTheCache) {
  ModularGainCost base({1.0, 2.0, 3.0}, {0.1, 0.2, 0.3}, 10.0);
  CachedProfitOracle cached(base);

  const std::vector<SourceHandle> set = {0, 2};
  const double first = cached.Profit(set);
  const double second = cached.Profit(set);
  EXPECT_DOUBLE_EQ(first, second);
  EXPECT_EQ(base.call_count(), 1u);  // Only the miss reached the base.
  EXPECT_EQ(cached.call_count(), 1u);

  const auto stats = cached.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(CachedProfitOracleTest, ProfitGainCostAreCachedIndependently) {
  ModularGainCost base({1.0, 2.0}, {0.5, 0.5}, 10.0);
  CachedProfitOracle cached(base);
  const std::vector<SourceHandle> set = {0, 1};
  // Same key, three different evaluations: three misses, no cross-talk.
  EXPECT_DOUBLE_EQ(cached.Profit(set), base.Profit(set));
  EXPECT_DOUBLE_EQ(cached.Gain(set), base.Gain(set));
  EXPECT_DOUBLE_EQ(cached.Cost(set), base.Cost(set));
  EXPECT_EQ(cached.stats().misses, 3u);
  EXPECT_EQ(cached.stats().hits, 0u);
  EXPECT_DOUBLE_EQ(cached.budget(), 10.0);
}

TEST(CachedProfitOracleTest, DistinctSetsDoNotCollide) {
  ModularGainCost base({1.0, 2.0, 4.0, 8.0}, {0, 0, 0, 0}, 100.0);
  CachedProfitOracle cached(base);
  // All 16 subsets: distinct canonical keys, distinct values.
  for (std::uint32_t bits = 0; bits < 16; ++bits) {
    std::vector<SourceHandle> set;
    for (std::uint32_t e = 0; e < 4; ++e) {
      if ((bits >> e) & 1) set.push_back(e);
    }
    EXPECT_DOUBLE_EQ(cached.Profit(set), static_cast<double>(bits));
  }
  EXPECT_EQ(cached.stats().misses, 16u);
  for (std::uint32_t bits = 0; bits < 16; ++bits) {
    std::vector<SourceHandle> set;
    for (std::uint32_t e = 0; e < 4; ++e) {
      if ((bits >> e) & 1) set.push_back(e);
    }
    EXPECT_DOUBLE_EQ(cached.Profit(set), static_cast<double>(bits));
  }
  EXPECT_EQ(cached.stats().hits, 16u);
}

TEST(CachedProfitOracleTest, ClearCachesForcesReEvaluation) {
  ModularGainCost base({1.0}, {0.0}, 1.0);
  CachedProfitOracle cached(base);
  cached.Profit({0});
  cached.Profit({0});
  cached.ClearCaches();
  EXPECT_EQ(cached.stats().hits, 0u);
  EXPECT_EQ(cached.stats().misses, 0u);
  cached.Profit({0});
  EXPECT_EQ(cached.stats().misses, 1u);
  EXPECT_EQ(base.call_count(), 2u);
}

TEST(CachedProfitOracleTest, SelectionThroughCacheMatchesDirect) {
  ModularGainCost base({3.0, -1.0, 2.0, 0.5}, {0.5, 0.5, 0.5, 0.2}, 100.0);
  CachedProfitOracle cached(base);
  SelectionResult direct = Greedy(base);
  SelectionResult through_cache = Greedy(cached);
  EXPECT_EQ(direct.selected, through_cache.selected);
  EXPECT_DOUBLE_EQ(direct.profit, through_cache.profit);
}

TEST(CachedProfitOracleTest, EveryFacadeAlgorithmReportsTheHitRate) {
  ModularGainCost base({3.0, -1.0, 2.0, 0.5}, {0.5, 0.5, 0.5, 0.2}, 100.0);
  const PartitionMatroid matroid =
      PartitionMatroid::Create({0, 0, 1, 1}, {1, 1}).value();
  for (const PartitionMatroid* constraint :
       {static_cast<const PartitionMatroid*>(nullptr), &matroid}) {
    for (Algorithm algorithm : {Algorithm::kGreedy, Algorithm::kMaxSub,
                                Algorithm::kGrasp, Algorithm::kBudgeted}) {
      CachedProfitOracle cached(base);
      obs::RunReport report;
      SelectorConfig config;
      config.algorithm = algorithm;
      config.grasp_kappa = 2;
      config.grasp_restarts = 3;
      config.report = &report;
      Result<SelectionResult> result =
          SelectSources(cached, config, constraint);
      ASSERT_TRUE(result.ok());
      const double hit_rate = cached.stats().hit_rate();
      const std::string run = AlgorithmName(algorithm) +
                              (constraint != nullptr ? " + matroid" : "");
      // The local searches revisit the sets they scored.
      if (algorithm == Algorithm::kMaxSub) {
        EXPECT_GT(hit_rate, 0.0) << run;
      }
      EXPECT_EQ(result->cache_hit_rate, hit_rate) << run;
      EXPECT_EQ(report.values["cache_hit_rate"], hit_rate) << run;
    }
  }
}

TEST(CachedProfitOracleTest, SharesBaseThreadSafetyAndIsRaceFreeItself) {
  ModularGainCost base({1.0, 2.0, 3.0, 4.0}, {0, 0, 0, 0}, 100.0);
  CachedProfitOracle cached(base);
  EXPECT_TRUE(cached.thread_safe());
  // Concurrent mixed hits and misses; exercised under TSan in the
  // sanitizer CI matrix.
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cached, t] {
      for (std::uint32_t round = 0; round < 50; ++round) {
        const SourceHandle a = static_cast<SourceHandle>((round + t) % 4);
        const SourceHandle b = static_cast<SourceHandle>(round % 4);
        cached.Profit(a == b ? std::vector<SourceHandle>{a}
                             : std::vector<SourceHandle>{std::min(a, b),
                                                         std::max(a, b)});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const auto stats = cached.stats();
  EXPECT_EQ(stats.hits + stats.misses, 200u);
  EXPECT_EQ(cached.call_count(), stats.misses);
}

}  // namespace
}  // namespace freshsel::selection
