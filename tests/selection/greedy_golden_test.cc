// Golden panel for the greedy round engine: Greedy and BudgetedGreedy over
// {eager, CELF, stochastic, stochastic without stale-bound skips} x
// {no constraint, matroid, budget} x 3 seeds, on synthetic submodular and
// non-submodular oracles and on BL ProfitOracles (plain and memoized). Each
// run is pinned by its selected set, oracle calls, calls saved, cache hit
// rate bits, profit bits, and two hashes of its DecisionLog: one of its
// integer fields and one of its whole JSON. The pins live in
// tests/selection/testdata/greedy_rounds_golden.tsv. The eager runs are
// exactly those whose oracle is non-submodular or is forced onto the eager
// path by the test decorator.
//
// The synthetic oracles use dyadic weights and costs, so every value they
// produce is exact and their rows are bit-identical on any IEEE build. The
// BL rows are pinned in full on every backend too: the tree builds with
// -ffp-contract=off, so the dispatched x86-64-v3 estimator loops round
// exactly like the default copies. Under -DFRESHSEL_OBS=OFF decision logs
// stay empty, so neither log hash is compared.
//
// On a mismatch the actual panel is written to the test's temp dir (the
// path is printed), so an intended change can be reviewed as a diff.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "harness/learned_scenario.h"
#include "obs/decision_log.h"
#include "obs/json.h"
#include "obs/macros.h"
#include "selection/algorithms.h"
#include "selection/budgeted_greedy.h"
#include "selection/cached_oracle.h"
#include "selection/cost.h"
#include "testing/forced_path_oracle.h"
#include "workloads/bl_generator.h"

namespace freshsel::selection {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A multiple of 1/64 in [lo, lo + span) / 64: sums of these are exact.
double Dyadic(Rng& rng, int lo, int span) {
  return (lo + static_cast<int>(rng.NextBounded(span))) / 64.0;
}

/// Weighted coverage plus optional complementary-pair bonuses, additive
/// costs and a budget: profit = gain - cost, -infinity over budget. Without
/// bonuses the gain is monotone submodular; with them, the pair (2i, 2i+1)
/// is worth more together than apart, so the profit is not submodular.
class PanelOracle : public GainCostFunction {
 public:
  PanelOracle(std::uint64_t seed, bool complementary, double budget)
      : complementary_(complementary), budget_(budget) {
    Rng rng(seed);
    const std::size_t n = 16;
    const std::size_t items = 24;
    covers_.resize(n);
    for (auto& c : covers_) {
      const std::size_t k = 1 + rng.NextBounded(6);
      for (std::size_t j = 0; j < k; ++j) {
        c.push_back(static_cast<int>(rng.NextBounded(items)));
      }
    }
    weights_.resize(items);
    for (double& w : weights_) w = Dyadic(rng, 6, 58);
    costs_.resize(n);
    for (double& c : costs_) c = Dyadic(rng, 0, 20);
    if (complementary) {
      bonuses_.resize(n / 2);
      for (double& b : bonuses_) b = Dyadic(rng, 32, 64);
    }
  }

  std::size_t universe_size() const override { return covers_.size(); }
  double Profit(const std::vector<SourceHandle>& set) const override {
    const double cost = Cost(set);
    if (cost > budget_ + 1e-12) return -kInf;
    return Gain(set) - cost;
  }
  double Gain(const std::vector<SourceHandle>& set) const override {
    ++calls_;
    std::vector<bool> covered(weights_.size(), false);
    std::vector<int> halves(bonuses_.size(), 0);
    for (SourceHandle e : set) {
      for (int item : covers_[e]) covered[item] = true;
      if (!bonuses_.empty()) ++halves[e / 2];
    }
    double gain = 0.0;
    for (std::size_t i = 0; i < covered.size(); ++i) {
      if (covered[i]) gain += weights_[i];
    }
    for (std::size_t p = 0; p < bonuses_.size(); ++p) {
      if (halves[p] == 2) gain += bonuses_[p];
    }
    return gain;
  }
  double Cost(const std::vector<SourceHandle>& set) const override {
    double total = 0.0;
    for (SourceHandle e : set) total += costs_[e];
    return total;
  }
  double budget() const override { return budget_; }
  bool submodular() const override { return !complementary_; }

 private:
  bool complementary_;
  double budget_;
  std::vector<std::vector<int>> covers_;
  std::vector<double> weights_;
  std::vector<double> costs_;
  std::vector<double> bonuses_;
};

/// BL scenario -> learned profiles -> estimator, shared by the BL oracles
/// of one seed.
struct BlPipeline {
  std::unique_ptr<workloads::Scenario> scenario;
  std::unique_ptr<harness::LearnedScenario> learned;
  std::unique_ptr<estimation::QualityEstimator> estimator;
  std::vector<double> costs;

  explicit BlPipeline(std::uint64_t seed) {
    workloads::BlConfig config;
    config.seed = seed;
    config.locations = 8;
    config.categories = 3;
    config.horizon = 220;
    config.t0 = 150;
    config.scale = 0.3;
    config.n_uniform = 2;
    config.n_location_specialists = 4;
    config.n_category_specialists = 3;
    config.n_medium = 2;
    scenario = std::make_unique<workloads::Scenario>(
        workloads::GenerateBlScenario(config).value());
    learned = std::make_unique<harness::LearnedScenario>(
        harness::LearnScenario(*scenario).value());
    estimator = std::make_unique<estimation::QualityEstimator>(
        estimation::QualityEstimator::Create(
            scenario->world, learned->world_model, {},
            MakeTimePoints(scenario->t0 + 14, 3, 14))
            .value());
    std::vector<const estimation::SourceProfile*> profiles;
    for (const auto& profile : learned->profiles) {
      profiles.push_back(&profile);
      EXPECT_TRUE(estimator->AddSource(&profile).ok());
    }
    costs = CostModel::ItemShareCosts(profiles);
  }

  ProfitOracle Oracle(GainFamily family, double budget) const {
    ProfitOracle::Config config;
    config.gain = GainModel(family, QualityMetric::kCoverage);
    config.budget = budget;
    config.cost_weight = 0.1;  // Several rounds before cost wins.
    return ProfitOracle::Create(estimator.get(), costs, config).value();
  }
};

enum class Mode { kEager, kCelf, kStochastic, kStochasticEager };

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kEager:
      return "eager";
    case Mode::kCelf:
      return "celf";
    case Mode::kStochastic:
      return "stochastic";
    case Mode::kStochasticEager:
      break;
  }
  return "stochastic-eager";
}

bool ForcedEager(Mode mode) {
  return mode == Mode::kEager || mode == Mode::kStochasticEager;
}

bool Stochastic(Mode mode) {
  return mode == Mode::kStochastic || mode == Mode::kStochasticEager;
}

/// One oracle of the panel: `base` is evaluated directly, or through a
/// fresh CachedProfitOracle per run when `cached`.
struct Subject {
  std::string name;
  const GainCostFunction* base;
  bool cached;
};

std::string Hex(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

std::string Fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// The log's algorithm, record count and a hash of every integer field:
/// what a run decided and what each round cost, without the doubles.
std::string LogSkeleton(const obs::DecisionLog& log) {
  std::ostringstream fields;
  for (const obs::DecisionRecord& r : log.records()) {
    fields << r.round << ',' << static_cast<int>(r.kind) << ',' << r.chosen
           << ',' << r.has_runner_up << ',' << r.runner_up << ','
           << r.oracle_calls << ',' << r.calls_saved << ',' << r.cache_hits
           << ',' << r.sample_size << ',' << r.pool_size << ';';
  }
  return log.algorithm() + ":" + std::to_string(log.records().size()) + ":" +
         Fnv1a(fields.str());
}

std::string LogHash(const obs::DecisionLog& log) {
  obs::JsonWriter writer;
  log.AppendJson(writer);
  return Fnv1a(writer.TakeString());
}

std::string Line(const std::string& label, const SelectionResult& result,
                 const obs::DecisionLog& log) {
  std::ostringstream out;
  out << label << '\t';
  for (std::size_t i = 0; i < result.selected.size(); ++i) {
    out << (i > 0 ? "," : "") << result.selected[i];
  }
  out << '\t' << result.oracle_calls << '\t' << result.oracle_calls_saved
      << '\t' << Hex(result.cache_hit_rate) << '\t' << Hex(result.profit)
      << '\t' << LogSkeleton(log) << '\t' << LogHash(log);
  return out.str();
}

/// The columns of `line` this build reproduces (see the file comment).
std::string Comparable(const std::string& line) {
  std::vector<std::string> fields = Split(line, '\t');
  if (fields.size() != 8) return line;
  if (!FRESHSEL_OBS_ACTIVE) fields[6] = fields[7] = "-";
  return Join(fields, "\t");
}

/// Runs `run` on the subject's oracle stack for `mode`: the forced-eager
/// modes put the decorator directly over the base oracle, under the cache.
SelectionResult RunOn(
    const Subject& subject, Mode mode,
    const std::function<SelectionResult(const GainCostFunction&)>& run) {
  std::unique_ptr<testing::ForcedPathOracle> forced;
  const GainCostFunction* oracle = subject.base;
  if (ForcedEager(mode)) {
    forced = std::make_unique<testing::ForcedPathOracle>(
        *subject.base, testing::ForcedPath::kEager);
    oracle = forced.get();
  }
  if (!subject.cached) return run(*oracle);
  CachedProfitOracle cached(*oracle);
  return run(cached);
}

std::vector<std::string> Panel() {
  std::vector<std::string> lines;
  const PartitionMatroid* no_matroid = nullptr;
  for (std::uint64_t seed : {5u, 23u, 71u}) {
    PanelOracle cov_free(seed, false, kInf);
    PanelOracle cov_budget(seed, false, 1.0);
    PanelOracle pair_free(seed, true, kInf);
    PanelOracle pair_budget(seed, true, 1.0);
    const BlPipeline bl(seed);
    const ProfitOracle linear_free = bl.Oracle(GainFamily::kLinear, kInf);
    const ProfitOracle linear_budget = bl.Oracle(GainFamily::kLinear, 0.3);
    const ProfitOracle quad_free = bl.Oracle(GainFamily::kQuadratic, kInf);
    const ProfitOracle quad_budget = bl.Oracle(GainFamily::kQuadratic, 0.3);

    struct Family {
      Subject free;
      Subject budgeted;
    };
    const std::vector<Family> families = {
        {{"cov", &cov_free, false}, {"cov", &cov_budget, false}},
        {{"pair", &pair_free, false}, {"pair", &pair_budget, false}},
        {{"bl-linear", &linear_free, false},
         {"bl-linear", &linear_budget, false}},
        {{"bl-linear-cached", &linear_free, true},
         {"bl-linear-cached", &linear_budget, true}},
        {{"bl-quad", &quad_free, false}, {"bl-quad", &quad_budget, false}},
    };
    for (const Family& family : families) {
      const std::size_t n = family.free.base->universe_size();
      std::vector<std::uint32_t> groups(n);
      for (std::size_t e = 0; e < n; ++e) {
        groups[e] = static_cast<std::uint32_t>(e % 4);
      }
      const PartitionMatroid matroid =
          PartitionMatroid::Create(groups, {2, 2, 2, 2}).value();
      for (Mode mode : {Mode::kEager, Mode::kCelf, Mode::kStochastic,
                        Mode::kStochasticEager}) {
        const std::string suffix = std::string("/") + ModeName(mode) +
                                   "/seed=" + std::to_string(seed);
        struct Constraint {
          const char* name;
          const Subject* subject;
          const PartitionMatroid* matroid;
        };
        for (const Constraint& c :
             {Constraint{"none", &family.free, no_matroid},
              Constraint{"matroid", &family.free, &matroid},
              Constraint{"budget", &family.budgeted, no_matroid}}) {
          obs::DecisionLog log;
          const SelectionResult result = RunOn(
              *c.subject, mode,
              [&](const GainCostFunction& oracle) {
                GreedyOptions options;
                options.stochastic = Stochastic(mode);
                options.stochastic_epsilon = 0.2;
                options.stochastic_seed = seed;
                options.stochastic_k = 4;
                options.decision_log = &log;
                return Greedy(oracle, c.matroid, options);
              });
          lines.push_back(Comparable(Line(
              "greedy/" + c.subject->name + "/" + c.name + suffix, result,
              log)));
        }
        for (const Constraint& c :
             {Constraint{"none", &family.free, no_matroid},
              Constraint{"budget", &family.budgeted, no_matroid}}) {
          obs::DecisionLog log;
          const SelectionResult result = RunOn(
              *c.subject, mode,
              [&](const GainCostFunction& oracle) {
                BudgetedGreedyOptions options;
                options.stochastic = Stochastic(mode);
                options.stochastic_epsilon = 0.2;
                options.stochastic_seed = seed;
                options.stochastic_k = 4;
                options.decision_log = &log;
                return BudgetedGreedy(oracle, options);
              });
          lines.push_back(Comparable(Line(
              "budgeted/" + c.subject->name + "/" + c.name + suffix, result,
              log)));
        }
      }
    }
  }
  return lines;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') lines.push_back(Comparable(line));
  }
  return lines;
}

TEST(GreedyGoldenTest, PanelMatchesPinnedRuns) {
  const std::string golden_path =
      std::string(FRESHSEL_TESTDATA_DIR) + "/greedy_rounds_golden.tsv";
  const std::vector<std::string> golden = ReadLines(golden_path);
  const std::vector<std::string> actual = Panel();
  if (golden != actual) {
    const std::string out_path =
        ::testing::TempDir() + "greedy_rounds_golden.actual.tsv";
    std::ofstream out(out_path);
    for (const std::string& line : actual) out << line << '\n';
    ADD_FAILURE() << "panel differs from " << golden_path
                  << "; actual panel written to " << out_path;
  }
  ASSERT_EQ(actual.size(), golden.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], golden[i]) << "line " << i;
  }
}

}  // namespace
}  // namespace freshsel::selection
