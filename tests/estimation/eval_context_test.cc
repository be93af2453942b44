// EvalContext equivalence suite: the incremental delta-evaluation path
// (Push / Pop / EstimateWith / EstimateAllTimes) is a pure acceleration of
// `Estimate` - the values it returns must agree with fresh full
// evaluations to ulp precision, across every Options flag combination,
// and Pop must restore the pre-Push state bit-exactly.

#include <cstdint>
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/bit_vector.h"
#include "common/random.h"
#include "common/time_types.h"
#include "estimation/quality_estimator.h"
#include "estimation/source_profile.h"
#include "estimation/world_change_model.h"
#include "source/source_simulator.h"
#include "world/world.h"
#include "world/world_simulator.h"

namespace freshsel::estimation {
namespace {

using SourceHandle = QualityEstimator::SourceHandle;

/// Incremental products append the candidate's factor at the end rather
/// than at its sorted position, so delta evaluations are ulp-equivalent,
/// not bit-identical; 1e-12 relative is far above accumulated ulp noise
/// and far below any quantity the selection layer distinguishes.
constexpr double kTol = 1e-12;

void ExpectQualityNear(const EstimatedQuality& a, const EstimatedQuality& b,
                       const std::string& what) {
  EXPECT_NEAR(a.coverage, b.coverage, kTol) << what;
  EXPECT_NEAR(a.local_freshness, b.local_freshness, kTol) << what;
  EXPECT_NEAR(a.global_freshness, b.global_freshness, kTol) << what;
  EXPECT_NEAR(a.accuracy, b.accuracy, kTol) << what;
  EXPECT_NEAR(a.expected_result, b.expected_result,
              kTol * (1.0 + std::abs(b.expected_result)))
      << what;
  EXPECT_NEAR(a.expected_up, b.expected_up,
              kTol * (1.0 + std::abs(b.expected_up)))
      << what;
  EXPECT_EQ(a.expected_world, b.expected_world) << what;
}

void ExpectQualityIdentical(const EstimatedQuality& a,
                            const EstimatedQuality& b,
                            const std::string& what) {
  EXPECT_EQ(a.coverage, b.coverage) << what;
  EXPECT_EQ(a.local_freshness, b.local_freshness) << what;
  EXPECT_EQ(a.global_freshness, b.global_freshness) << what;
  EXPECT_EQ(a.accuracy, b.accuracy) << what;
  EXPECT_EQ(a.expected_result, b.expected_result) << what;
  EXPECT_EQ(a.expected_up, b.expected_up) << what;
  EXPECT_EQ(a.expected_world, b.expected_world) << what;
}

/// The 2x2 simulated world of quality_estimator_test.cc with 6
/// heterogeneous sources; fixtures parameterized by the Options flag mask
/// build estimators over three future eval times.
class EvalContextTest : public ::testing::TestWithParam<int> {
 protected:
  static constexpr TimePoint kT0 = 300;
  static constexpr TimePoint kHorizon = 500;

  void SetUp() override {
    world::DataDomain domain =
        world::DataDomain::Create("loc", 2, "cat", 2).value();
    world::WorldSpec spec{std::move(domain), {}, kHorizon};
    spec.rates.push_back({1.5, 0.004, 0.008, 375});
    spec.rates.push_back({0.8, 0.006, 0.004, 133});
    spec.rates.push_back({1.0, 0.003, 0.010, 333});
    spec.rates.push_back({0.5, 0.005, 0.006, 100});
    Rng rng(97);
    world_ = std::make_unique<world::World>(
        world::SimulateWorld(spec, rng).value());

    for (int i = 0; i < 6; ++i) {
      source::SourceSpec s;
      s.name = "s" + std::to_string(i);
      s.scope = i < 3 ? std::vector<world::SubdomainId>{0, 1, 2, 3}
                      : std::vector<world::SubdomainId>{
                            static_cast<world::SubdomainId>(i - 3)};
      s.schedule = {1 + i % 3, 0};
      s.insert_capture = {0.05 * i, 2.0 + 4.0 * i};
      s.update_capture = {0.05 * i, 3.0 + 4.0 * i};
      s.delete_capture = {0.05 * i, 4.0 + 4.0 * i};
      s.initial_awareness = 0.9 - 0.1 * i;
      specs_.push_back(s);
    }
    histories_ = source::SimulateSources(*world_, specs_, rng).value();
    model_ = std::make_unique<WorldChangeModel>(
        WorldChangeModel::Learn(*world_, kT0).value());
    profiles_ = LearnSourceProfiles(*world_, histories_, kT0).value();
  }

  /// Options decoded from the 4-bit flag mask `GetParam()`.
  static QualityEstimator::Options OptionsFromMask(int mask) {
    QualityEstimator::Options options;
    options.per_event_survival = (mask & 1) != 0;
    options.exponential_world_model = (mask & 2) != 0;
    options.model_capture_backlog = (mask & 4) != 0;
    options.model_ghost_result = (mask & 8) != 0;
    return options;
  }

  QualityEstimator MakeEstimator(QualityEstimator::Options options) {
    QualityEstimator est =
        QualityEstimator::Create(*world_, *model_, {},
                                 {kT0 + 15, kT0 + 45, kT0 + 90}, options)
            .value();
    for (const SourceProfile& p : profiles_) {
      EXPECT_TRUE(est.AddSource(&p, 1).ok());
    }
    return est;
  }

  std::unique_ptr<world::World> world_;
  std::vector<source::SourceSpec> specs_;
  std::vector<source::SourceHistory> histories_;
  std::unique_ptr<WorldChangeModel> model_;
  std::vector<SourceProfile> profiles_;
};

TEST_P(EvalContextTest, EstimateWithMatchesFreshEstimate) {
  QualityEstimator est = MakeEstimator(OptionsFromMask(GetParam()));
  const std::size_t n = est.source_count();
  for (std::uint64_t seed : {5u, 19u, 77u}) {
    Rng rng(seed);
    QualityEstimator::EvalContext ctx = est.MakeEvalContext();
    std::vector<SourceHandle> set;
    // Grow a random chain, checking every outside candidate at each size.
    for (std::size_t round = 0; round <= n; ++round) {
      for (TimePoint t : est.eval_times()) {
        ExpectQualityNear(
            ctx.EstimateCurrent(t), est.Estimate(set, t),
            "current, mask " + std::to_string(GetParam()) + ", |S|=" +
                std::to_string(set.size()) + ", t=" + std::to_string(t));
        for (std::size_t c = 0; c < n; ++c) {
          const SourceHandle candidate = static_cast<SourceHandle>(c);
          bool in_set = false;
          for (SourceHandle h : set) in_set |= (h == candidate);
          if (in_set) continue;
          std::vector<SourceHandle> with = set;
          with.push_back(candidate);
          ExpectQualityNear(
              ctx.EstimateWith(candidate, t), est.Estimate(with, t),
              "with " + std::to_string(c) + ", mask " +
                  std::to_string(GetParam()) + ", |S|=" +
                  std::to_string(set.size()) + ", t=" + std::to_string(t));
        }
      }
      if (round == n) break;
      SourceHandle next;
      do {
        next = static_cast<SourceHandle>(rng.NextBounded(n));
      } while ([&] {
        for (SourceHandle h : set) {
          if (h == next) return true;
        }
        return false;
      }());
      set.push_back(next);
      ctx.Push(next);
    }
  }
}

TEST_P(EvalContextTest, PushPopFuzzMatchesFreshEstimate) {
  QualityEstimator est = MakeEstimator(OptionsFromMask(GetParam()));
  const std::size_t n = est.source_count();
  Rng rng(1234 + static_cast<std::uint64_t>(GetParam()));
  QualityEstimator::EvalContext ctx = est.MakeEvalContext();
  std::vector<SourceHandle> shadow;
  std::vector<EstimatedQuality> batched;
  for (int step = 0; step < 200; ++step) {
    const double u = rng.UniformDouble(0.0, 1.0);
    if (shadow.empty() || (u < 0.55 && shadow.size() < n)) {
      SourceHandle next;
      do {
        next = static_cast<SourceHandle>(rng.NextBounded(n));
      } while ([&] {
        for (SourceHandle h : shadow) {
          if (h == next) return true;
        }
        return false;
      }());
      ctx.Push(next);
      shadow.push_back(next);
    } else if (u < 0.9) {
      ctx.Pop();
      shadow.pop_back();
    } else {
      ctx.Clear();
      shadow.clear();
    }
    ASSERT_EQ(ctx.pushed(), shadow) << "step " << step;
    // Spot-check one eval time per step, the full batch every 16 steps.
    const TimePoint t =
        est.eval_times()[rng.NextBounded(est.eval_times().size())];
    ExpectQualityNear(ctx.EstimateCurrent(t), est.Estimate(shadow, t),
                      "fuzz step " + std::to_string(step) + ", mask " +
                          std::to_string(GetParam()));
    if (step % 16 == 0) {
      ctx.EstimateAllTimes(batched);
      ASSERT_EQ(batched.size(), est.eval_times().size());
      for (std::size_t i = 0; i < batched.size(); ++i) {
        ExpectQualityNear(
            batched[i], est.Estimate(shadow, est.eval_times()[i]),
            "fuzz batched step " + std::to_string(step));
      }
    }
  }
}

TEST_P(EvalContextTest, PopRestoresBitExactly) {
  QualityEstimator est = MakeEstimator(OptionsFromMask(GetParam()));
  const std::size_t n = est.source_count();
  QualityEstimator::EvalContext ctx = est.MakeEvalContext();
  std::vector<EstimatedQuality> before;
  std::vector<EstimatedQuality> after;
  for (std::size_t depth = 0; depth < n; ++depth) {
    ctx.EstimateAllTimes(before);
    // Push a source whose near-zero miss products would amplify rounding
    // error under divide-back-out; checkpoint restore must be exact.
    const SourceHandle pushed = static_cast<SourceHandle>(depth);
    ctx.Push(pushed);
    ctx.Pop();
    ctx.EstimateAllTimes(after);
    ASSERT_EQ(before.size(), after.size());
    for (std::size_t i = 0; i < before.size(); ++i) {
      ExpectQualityIdentical(after[i], before[i],
                             "pop at depth " + std::to_string(depth) +
                                 ", mask " + std::to_string(GetParam()));
    }
    ctx.Push(pushed);
  }
}

TEST_P(EvalContextTest, BatchedEstimateAllTimesIsBitIdentical) {
  QualityEstimator est = MakeEstimator(OptionsFromMask(GetParam()));
  Rng rng(31);
  std::vector<EstimatedQuality> batched;
  for (int round = 0; round < 20; ++round) {
    std::vector<SourceHandle> set;
    for (std::size_t s = 0; s < est.source_count(); ++s) {
      if (rng.Bernoulli(0.5)) set.push_back(static_cast<SourceHandle>(s));
    }
    est.EstimateAllTimes(set, batched);
    ASSERT_EQ(batched.size(), est.eval_times().size());
    for (std::size_t i = 0; i < batched.size(); ++i) {
      ExpectQualityIdentical(
          batched[i], est.Estimate(set, est.eval_times()[i]),
          "batched round " + std::to_string(round) + ", mask " +
              std::to_string(GetParam()));
    }
  }
}

TEST_P(EvalContextTest, SingletonDeltaFromEmptySetIsBitIdentical) {
  // Multiplying an all-ones product by one factor is exact, so singleton
  // delta evaluations agree with plain estimates bit for bit - the
  // property BudgetedGreedy's phase-2 singleton scan relies on.
  QualityEstimator est = MakeEstimator(OptionsFromMask(GetParam()));
  QualityEstimator::EvalContext ctx = est.MakeEvalContext();
  for (std::size_t s = 0; s < est.source_count(); ++s) {
    const SourceHandle handle = static_cast<SourceHandle>(s);
    for (TimePoint t : est.eval_times()) {
      ExpectQualityIdentical(ctx.EstimateWith(handle, t),
                             est.Estimate({handle}, t),
                             "singleton " + std::to_string(s) + ", mask " +
                                 std::to_string(GetParam()));
    }
  }
}

/// Checks `ctx` against a context freshly built by pushing the same
/// sources in the same order, bit for bit: the union counts (also against
/// a dense union of the profiles' signatures over `domain_entities`),
/// `EstimateAllTimes`, and `EstimateAllTimesWith` for every registered
/// source.
void ExpectSameAsFreshContext(
    const QualityEstimator& est, const QualityEstimator::EvalContext& ctx,
    const std::vector<world::EntityId>& domain_entities,
    const std::string& what) {
  QualityEstimator::EvalContext fresh = est.MakeEvalContext();
  for (SourceHandle h : ctx.pushed()) fresh.Push(h);
  ASSERT_EQ(ctx.pushed(), fresh.pushed()) << what;
  EXPECT_EQ(ctx.counts(), fresh.counts()) << what;

  QualityEstimator::EvalContext::UnionCounts dense;
  const auto in_union = [&](auto signature_of, world::EntityId id) {
    for (SourceHandle h : ctx.pushed()) {
      const BitVector& sig = signature_of(est.profile(h).sig_t0);
      if (id < sig.size() && sig.Test(id)) return true;
    }
    return false;
  };
  for (world::EntityId id : domain_entities) {
    dense.up += in_union([](const auto& s) -> const BitVector& { return s.up; },
                         id);
    dense.cov += in_union(
        [](const auto& s) -> const BitVector& { return s.cov; }, id);
    dense.all += in_union(
        [](const auto& s) -> const BitVector& { return s.all; }, id);
  }
  EXPECT_EQ(ctx.counts(), dense) << what;

  std::vector<EstimatedQuality> got;
  std::vector<EstimatedQuality> want;
  ctx.EstimateAllTimes(got);
  fresh.EstimateAllTimes(want);
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ExpectQualityIdentical(got[i], want[i], what + ", current");
  }
  for (std::size_t c = 0; c < est.source_count(); ++c) {
    const SourceHandle candidate = static_cast<SourceHandle>(c);
    ctx.EstimateAllTimesWith(candidate, got);
    fresh.EstimateAllTimesWith(candidate, want);
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ExpectQualityIdentical(got[i], want[i],
                             what + ", with " + std::to_string(c));
    }
  }
}

/// A random target for `Reset` relative to the pushed sources: one that
/// shares a prefix and then differs, extends them, shrinks them, or
/// shares nothing in particular. Handles are distinct.
std::vector<SourceHandle> RandomResetTarget(
    const std::vector<SourceHandle>& pushed, std::size_t n, Rng& rng) {
  const auto append_random = [&](std::vector<SourceHandle>& set,
                                 std::size_t count) {
    for (std::size_t added = 0; added < count && set.size() < n; ++added) {
      SourceHandle next;
      do {
        next = static_cast<SourceHandle>(rng.NextBounded(n));
      } while (std::find(set.begin(), set.end(), next) != set.end());
      set.push_back(next);
    }
  };
  std::vector<SourceHandle> target;
  switch (rng.NextBounded(4)) {
    case 0:  // Shared prefix, then a different tail.
      target.assign(pushed.begin(),
                    pushed.begin() + static_cast<std::ptrdiff_t>(
                                         rng.NextBounded(pushed.size() + 1)));
      append_random(target, 1 + rng.NextBounded(3));
      break;
    case 1:  // Extends the pushed sources.
      target = pushed;
      append_random(target, 1 + rng.NextBounded(3));
      break;
    case 2:  // Shrinks them to a prefix.
      target.assign(pushed.begin(),
                    pushed.begin() + static_cast<std::ptrdiff_t>(
                                         rng.NextBounded(pushed.size() + 1)));
      break;
    default:  // Any set.
      append_random(target, rng.NextBounded(n + 1));
      break;
  }
  return target;
}

/// Random Push / Pop / Reset / Clear steps over `est`, each followed by
/// the fresh-context comparison.
void RunRandomSteps(const QualityEstimator& est,
                    const std::vector<world::EntityId>& domain_entities,
                    std::uint64_t seed, int steps, const std::string& label) {
  const std::size_t n = est.source_count();
  Rng rng(seed);
  QualityEstimator::EvalContext ctx = est.MakeEvalContext();
  std::vector<SourceHandle> shadow;
  for (int step = 0; step < steps; ++step) {
    const std::uint64_t op = rng.NextBounded(10);
    if (op < 4 && shadow.size() < n) {
      SourceHandle next;
      do {
        next = static_cast<SourceHandle>(rng.NextBounded(n));
      } while (std::find(shadow.begin(), shadow.end(), next) != shadow.end());
      ctx.Push(next);
      shadow.push_back(next);
    } else if (op < 6 && !shadow.empty()) {
      ctx.Pop();
      shadow.pop_back();
    } else if (op < 9) {
      shadow = RandomResetTarget(shadow, n, rng);
      ctx.Reset(shadow);
    } else {
      ctx.Clear();
      shadow.clear();
    }
    ASSERT_EQ(ctx.pushed(), shadow) << label << ", step " << step;
    ExpectSameAsFreshContext(est, ctx, domain_entities,
                             label + ", step " + std::to_string(step));
    if (::testing::Test::HasFailure()) return;
  }
}

TEST_P(EvalContextTest, RandomPushPopResetMatchesFreshContext) {
  const QualityEstimator::Options options = OptionsFromMask(GetParam());
  const TimePoints eval_times = {kT0 + 15, kT0 + 45, kT0 + 90};
  const auto domain_entities =
      [&](const std::vector<world::SubdomainId>& domain) {
        std::vector<world::EntityId> ids;
        for (world::SubdomainId sub : domain) {
          for (world::EntityId id : world_->EntitiesInSubdomain(sub)) {
            ids.push_back(id);
          }
        }
        return ids;
      };
  const std::string mask = ", mask " + std::to_string(GetParam());

  // The whole domain, plus a source with no set bits.
  SourceProfile blank = profiles_[0];
  blank.name = "blank";
  blank.sig_t0.up.Clear();
  blank.sig_t0.cov.Clear();
  blank.sig_t0.all.Clear();
  {
    QualityEstimator est =
        QualityEstimator::Create(*world_, *model_, {}, eval_times, options)
            .value();
    for (const SourceProfile& p : profiles_) {
      ASSERT_TRUE(est.AddSource(&p, 1).ok());
    }
    ASSERT_TRUE(est.AddSource(&blank, 1).ok());
    RunRandomSteps(est, domain_entities({0, 1, 2, 3}), 7, 60,
                   "whole domain" + mask);
  }

  // A restricted domain whose width is not a multiple of 64 bits; the
  // specialists of the other subdomains have no bits in it.
  {
    const std::vector<world::SubdomainId> domain = {1, 3};
    const std::vector<world::EntityId> ids = domain_entities(domain);
    ASSERT_NE(ids.size() % 64, 0u);
    QualityEstimator est =
        QualityEstimator::Create(*world_, *model_, domain, eval_times,
                                 options)
            .value();
    for (const SourceProfile& p : profiles_) {
      ASSERT_TRUE(est.AddSource(&p, 1).ok());
    }
    RunRandomSteps(est, ids, 11, 60, "restricted domain" + mask);
  }

  // An augmented universe: every profile at several divisors, so the
  // same signature words are pushed again on top of themselves.
  {
    QualityEstimator est =
        QualityEstimator::Create(*world_, *model_, {}, eval_times, options)
            .value();
    for (const SourceProfile& p : profiles_) {
      for (std::int64_t divisor : {1, 2, 5}) {
        ASSERT_TRUE(est.AddSource(&p, divisor).ok());
      }
    }
    RunRandomSteps(est, domain_entities({0, 1, 2, 3}), 13, 60,
                   "augmented universe" + mask);
  }
}

TEST_P(EvalContextTest, ResetToSortedSetMatchesPlainEstimateAllTimes) {
  // The local searches score a full-set move as `Reset(sorted set)` plus
  // the context's current quality. Reset pushes in the set's order, which
  // is the order the plain path multiplies in, so the two agree bit for
  // bit, not just to ulps.
  QualityEstimator est = MakeEstimator(OptionsFromMask(GetParam()));
  const std::size_t n = est.source_count();
  Rng rng(4711 + static_cast<std::uint64_t>(GetParam()));
  std::vector<std::vector<SourceHandle>> sets;
  for (int i = 0; i < 60; ++i) {
    std::vector<SourceHandle> set;
    for (std::size_t s = 0; s < n; ++s) {
      if (rng.Bernoulli(0.5)) set.push_back(static_cast<SourceHandle>(s));
    }
    sets.push_back(std::move(set));
  }
  sets.emplace_back();
  QualityEstimator::EvalContext ctx = est.MakeEvalContext();
  std::vector<EstimatedQuality> got;
  std::vector<EstimatedQuality> want;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    ctx.Reset(sets[i]);
    ctx.EstimateAllTimes(got);
    est.EstimateAllTimes(sets[i], want);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t ti = 0; ti < got.size(); ++ti) {
      ExpectQualityIdentical(got[ti], want[ti],
                             "set " + std::to_string(i) + ", mask " +
                                 std::to_string(GetParam()) + ", t index " +
                                 std::to_string(ti));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllOptionCombos, EvalContextTest,
                         ::testing::Range(0, 16));

// An estimator without eval times still hands out a context. Like the
// plain path, its batched calls return no qualities (a profit oracle folds
// that to a gain of 0 on both paths).
TEST(EvalContextSupportTest, ZeroEvalTimesContextMatchesPlain) {
  world::DataDomain domain =
      world::DataDomain::Create("loc", 1, "cat", 1).value();
  world::WorldSpec spec{std::move(domain), {}, 400};
  spec.rates.push_back({1.0, 0.004, 0.008, 250});
  Rng rng(11);
  world::World world = world::SimulateWorld(spec, rng).value();
  WorldChangeModel model = WorldChangeModel::Learn(world, 300).value();
  source::SourceSpec source_spec;
  source_spec.name = "s";
  source_spec.scope = {0};
  source_spec.schedule = {1, 0};
  const std::vector<source::SourceHistory> histories =
      source::SimulateSources(world, {source_spec}, rng).value();
  const std::vector<SourceProfile> profiles =
      LearnSourceProfiles(world, histories, 300).value();

  QualityEstimator est =
      QualityEstimator::Create(world, model, {}, {}).value();
  ASSERT_TRUE(est.AddSource(&profiles[0], 1).ok());
  QualityEstimator::EvalContext ctx = est.MakeEvalContext();
  std::vector<EstimatedQuality> got(1);
  std::vector<EstimatedQuality> want(1);
  for (const std::vector<SourceHandle>& set :
       {std::vector<SourceHandle>{}, std::vector<SourceHandle>{0}}) {
    ctx.Reset(set);
    ctx.EstimateAllTimes(got);
    est.EstimateAllTimes(set, want);
    EXPECT_TRUE(got.empty());
    EXPECT_TRUE(want.empty());
  }
  ctx.EstimateAllTimesWith(0, got);
  EXPECT_TRUE(got.empty());
}

}  // namespace
}  // namespace freshsel::estimation
