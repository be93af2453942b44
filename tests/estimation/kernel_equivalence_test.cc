// Kernel equivalence suite (DESIGN.md §13): the vector code paths behind
// QualityEstimator must not change what the estimator publishes.
//
//  * Dispatch: the x86-64-v3 copies of the hot loops are bit-identical to
//    the default-ISA copies, on the full and the incremental evaluation
//    paths and across every Options mask including capture-backlog. Both
//    copies run in one binary via simd::ScopedDefaultIsa; on a CPU without
//    x86-64-v3 (or a scalar-forced build) both runs take the default copy.
//  * Registered vs ad-hoc tables: an eval time the estimator registered
//    and one it did not give the same bits, also after the registered
//    estimator is moved (the incremental path is also covered by
//    eval_context_test).
//  * The kMissProductFloor underflow fix: ~200 high-effectiveness sources
//    drive the per-tau miss products far below the subnormal range; the
//    floor keeps the arithmetic normal while Push/Pop stays bit-exact and
//    incremental evaluations keep matching full recomputes.

#include <cstdint>
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bit_vector.h"
#include "common/random.h"
#include "common/result.h"
#include "common/simd.h"
#include "common/time_types.h"
#include "estimation/quality_estimator.h"
#include "estimation/source_profile.h"
#include "estimation/world_change_model.h"
#include "source/source_simulator.h"
#include "stats/step_function.h"
#include "world/world_simulator.h"

namespace freshsel::estimation {
namespace {

using SourceHandle = QualityEstimator::SourceHandle;

void ExpectQualityWithin(const EstimatedQuality& a, const EstimatedQuality& b,
                         double tol, const std::string& what) {
  EXPECT_NEAR(a.coverage, b.coverage, tol) << what;
  EXPECT_NEAR(a.local_freshness, b.local_freshness, tol) << what;
  EXPECT_NEAR(a.global_freshness, b.global_freshness, tol) << what;
  EXPECT_NEAR(a.accuracy, b.accuracy, tol) << what;
  EXPECT_NEAR(a.expected_result, b.expected_result,
              tol * (1.0 + std::abs(b.expected_result)))
      << what;
  EXPECT_NEAR(a.expected_up, b.expected_up,
              tol * (1.0 + std::abs(b.expected_up)))
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

/// The 2x2 simulated world of eval_context_test.cc; parameterized over
/// the full 4-bit Options mask so every model variant (including
/// capture-backlog) runs through the kernels.
class KernelEquivalenceTest : public ::testing::TestWithParam<int> {
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

    std::vector<source::SourceSpec> specs;
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
      specs.push_back(s);
    }
    const auto histories = source::SimulateSources(*world_, specs, rng).value();
    model_ = std::make_unique<WorldChangeModel>(
        WorldChangeModel::Learn(*world_, kT0).value());
    profiles_ = LearnSourceProfiles(*world_, histories, kT0).value();
  }

  static QualityEstimator::Options OptionsFromMask(int mask) {
    QualityEstimator::Options options;
    options.per_event_survival = (mask & 1) != 0;
    options.exponential_world_model = (mask & 2) != 0;
    options.model_capture_backlog = (mask & 4) != 0;
    options.model_ghost_result = (mask & 8) != 0;
    return options;
  }

  QualityEstimator MakeEstimator(QualityEstimator::Options options,
                                 TimePoints eval_times) {
    QualityEstimator est = QualityEstimator::Create(
                               *world_, *model_, {}, std::move(eval_times),
                               options)
                               .value();
    for (const SourceProfile& p : profiles_) {
      EXPECT_TRUE(est.AddSource(&p, 1).ok());
    }
    return est;
  }

  std::unique_ptr<world::World> world_;
  std::unique_ptr<WorldChangeModel> model_;
  std::vector<SourceProfile> profiles_;
};

// The two FastMath* tests keep their names from the removed opt-in
// reduction kernels; the fast path they hold to the exact one is now the
// x86-64-v3 copy, and the bound is zero.
TEST_P(KernelEquivalenceTest, FastMathFullPathWithinBoundOfExact) {
  QualityEstimator est = MakeEstimator(OptionsFromMask(GetParam()),
                                       {kT0 + 15, kT0 + 45, kT0 + 90});

  Rng rng(41);
  std::vector<EstimatedQuality> fast_all;
  std::vector<EstimatedQuality> exact_all;
  for (int round = 0; round < 30; ++round) {
    std::vector<SourceHandle> set;
    for (std::size_t s = 0; s < est.source_count(); ++s) {
      if (rng.Bernoulli(0.5)) set.push_back(static_cast<SourceHandle>(s));
    }
    const std::string what = "mask " + std::to_string(GetParam()) +
                             ", |S|=" + std::to_string(set.size());
    // kT0 + 30 is not registered: the ad-hoc fold runs in both copies.
    for (TimePoint t : {kT0 + 15, kT0 + 30, kT0 + 45, kT0 + 90}) {
      const EstimatedQuality fast = est.Estimate(set, t);
      const simd::ScopedDefaultIsa default_isa;
      ExpectQualityIdentical(fast, est.Estimate(set, t),
                             what + ", t=" + std::to_string(t));
    }
    est.EstimateAllTimes(set, fast_all);
    {
      const simd::ScopedDefaultIsa default_isa;
      est.EstimateAllTimes(set, exact_all);
    }
    ASSERT_EQ(fast_all.size(), exact_all.size());
    for (std::size_t i = 0; i < fast_all.size(); ++i) {
      ExpectQualityIdentical(fast_all[i], exact_all[i],
                             what + ", time index " + std::to_string(i));
    }
  }
}

TEST_P(KernelEquivalenceTest, FastMathDeltaPathWithinBoundOfExact) {
  QualityEstimator est =
      MakeEstimator(OptionsFromMask(GetParam()), {kT0 + 15, kT0 + 45});

  QualityEstimator::EvalContext fast_ctx = est.MakeEvalContext();
  QualityEstimator::EvalContext exact_ctx = est.MakeEvalContext();
  const std::size_t n = est.source_count();
  for (std::size_t depth = 0; depth < n; ++depth) {
    const std::string what = "mask " + std::to_string(GetParam()) +
                             ", depth " + std::to_string(depth);
    for (TimePoint t : est.eval_times()) {
      const EstimatedQuality fast = fast_ctx.EstimateCurrent(t);
      const simd::ScopedDefaultIsa default_isa;
      ExpectQualityIdentical(fast, exact_ctx.EstimateCurrent(t), what);
    }
    for (std::size_t c = 0; c < n; ++c) {
      const SourceHandle cand = static_cast<SourceHandle>(c);
      for (TimePoint t : est.eval_times()) {
        const EstimatedQuality fast = fast_ctx.EstimateWith(cand, t);
        const simd::ScopedDefaultIsa default_isa;
        ExpectQualityIdentical(fast, exact_ctx.EstimateWith(cand, t),
                               what + ", candidate " + std::to_string(c));
      }
    }
    fast_ctx.Push(static_cast<SourceHandle>(depth));
    const simd::ScopedDefaultIsa default_isa;
    exact_ctx.Push(static_cast<SourceHandle>(depth));
  }
}

static_assert(!std::is_copy_constructible_v<QualityEstimator> &&
                  !std::is_copy_assignable_v<QualityEstimator>,
              "a registered estimator is moved, never copied");
static_assert(std::is_nothrow_move_constructible_v<QualityEstimator> &&
                  std::is_nothrow_move_assignable_v<QualityEstimator>,
              "Result<T> and PreparedQuery move estimators");

TEST_P(KernelEquivalenceTest, ExactPathCachedAndUncachedBitIdentical) {
  // The same (set, t) evaluated through the tables built at AddSource and
  // through the per-call ad-hoc fold must agree bit for bit - including
  // the kMissProductFloor, which both paths apply identically. The
  // uncached estimator registers a different eval time so TimeIndexOf
  // misses and the ad-hoc branch runs. The cached estimator is moved after
  // registration the way the serve path moves it (out of a Result, onto
  // the heap) and then move-assigned over another, so its tables must
  // travel with it.
  QualityEstimator::Options options = OptionsFromMask(GetParam());
  Result<QualityEstimator> registered(
      MakeEstimator(options, {kT0 + 15, kT0 + 45, kT0 + 90}));
  auto heap = std::make_unique<QualityEstimator>(
      std::move(registered).value());
  QualityEstimator cached = MakeEstimator(options, {kT0 + 1});
  cached = std::move(*heap);
  heap.reset();
  QualityEstimator uncached = MakeEstimator(options, {kT0 + 33});

  QualityEstimator::EvalContext ctx = cached.MakeEvalContext();
  std::vector<EstimatedQuality> all_times;
  std::vector<EstimatedQuality> ctx_times;
  Rng rng(59);
  for (int round = 0; round < 20; ++round) {
    std::vector<SourceHandle> set;
    for (std::size_t s = 0; s < cached.source_count(); ++s) {
      if (rng.Bernoulli(0.5)) set.push_back(static_cast<SourceHandle>(s));
    }
    cached.EstimateAllTimes(set, all_times);
    ctx.Reset(set);
    ctx.EstimateAllTimes(ctx_times);
    ASSERT_EQ(all_times.size(), cached.eval_times().size());
    ASSERT_EQ(ctx_times.size(), cached.eval_times().size());
    for (std::size_t i = 0; i < cached.eval_times().size(); ++i) {
      const TimePoint t = cached.eval_times()[i];
      const std::string what = "mask " + std::to_string(GetParam()) +
                               ", t=" + std::to_string(t);
      const EstimatedQuality reference = uncached.Estimate(set, t);
      ExpectQualityIdentical(reference, cached.Estimate(set, t), what);
      ExpectQualityIdentical(reference, all_times[i], what + ", all times");
      ExpectQualityIdentical(reference, ctx_times[i], what + ", context");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllOptionCombos, KernelEquivalenceTest,
                         ::testing::Range(0, 16));

// ---------------------------------------------------------------------------
// Underflow regression (the kMissProductFloor bugfix).

/// Builds a synthetic profile that captures `capture_prob` of every change
/// with daily acquisitions - the per-tau miss factor is (1 - capture_prob)
/// for every tau, so a stack of these drives running products toward
/// (1 - p)^n, far below the subnormal threshold for n ~ 200.
SourceProfile HighEffectivenessProfile(const world::World& world, int index,
                                       double capture_prob) {
  SourceProfile p;
  p.name = "h" + std::to_string(index);
  const std::size_t entities = world.entity_count();
  p.sig_t0.up = BitVector(entities);
  p.sig_t0.cov = BitVector(entities);
  p.sig_t0.all = BitVector(entities);
  // Sparse, index-dependent signatures so union counts keep moving as
  // sources are pushed.
  for (std::size_t id = static_cast<std::size_t>(index) % 7; id < entities;
       id += 7) {
    p.sig_t0.up.Set(id);
    p.sig_t0.cov.Set(id);
    p.sig_t0.all.Set(id);
  }
  p.update_interval = 1.0;
  p.anchor = 0;
  p.g_insert = stats::StepFunction::Constant(capture_prob);
  p.g_update = stats::StepFunction::Constant(capture_prob);
  p.g_delete = stats::StepFunction::Constant(capture_prob);
  return p;
}

class UnderflowRegressionTest : public ::testing::TestWithParam<bool> {
 protected:
  static constexpr TimePoint kT0 = 300;
  static constexpr int kSources = 200;

  void SetUp() override {
    world::DataDomain domain =
        world::DataDomain::Create("loc", 1, "cat", 1).value();
    world::WorldSpec spec{std::move(domain), {}, 400};
    spec.rates.push_back({1.2, 0.004, 0.008, 300});
    Rng rng(23);
    world_ = std::make_unique<world::World>(
        world::SimulateWorld(spec, rng).value());
    model_ = std::make_unique<WorldChangeModel>(
        WorldChangeModel::Learn(*world_, kT0).value());
    for (int i = 0; i < kSources; ++i) {
      profiles_.push_back(HighEffectivenessProfile(*world_, i, 0.99));
    }
  }

  std::unique_ptr<world::World> world_;
  std::unique_ptr<WorldChangeModel> model_;
  std::vector<SourceProfile> profiles_;
};

TEST_P(UnderflowRegressionTest, TwoHundredSourcesStayConsistent) {
  QualityEstimator::Options options;
  options.model_capture_backlog = GetParam();
  QualityEstimator est =
      QualityEstimator::Create(*world_, *model_, {}, {kT0 + 20, kT0 + 60},
                               options)
          .value();
  for (const SourceProfile& p : profiles_) {
    ASSERT_TRUE(est.AddSource(&p, 1).ok());
  }

  // (1 - 0.99)^200 = 1e-400: without the floor the running products
  // denormalize around depth ~150 and hit exactly zero soon after. The
  // floor keeps the arithmetic normal; the incremental path must keep
  // matching full recomputes the whole way down, and every published
  // metric must stay a finite probability (the DCHECKs inside
  // EvaluateFromProducts enforce the latter on every call).
  QualityEstimator::EvalContext ctx = est.MakeEvalContext();
  std::vector<SourceHandle> set;
  for (int i = 0; i < kSources; ++i) {
    const SourceHandle handle = static_cast<SourceHandle>(i);
    ctx.Push(handle);
    set.push_back(handle);
    if ((i + 1) % 25 == 0 || i + 1 == kSources) {
      for (TimePoint t : est.eval_times()) {
        const EstimatedQuality incremental = ctx.EstimateCurrent(t);
        const EstimatedQuality full = est.Estimate(set, t);
        ExpectQualityWithin(incremental, full, 1e-12,
                            "depth " + std::to_string(i + 1) + ", t=" +
                                std::to_string(t));
        EXPECT_TRUE(std::isfinite(incremental.expected_result));
        EXPECT_TRUE(std::isfinite(incremental.expected_up));
      }
    }
  }
}

TEST_P(UnderflowRegressionTest, PushPopBitExactAtFullDepth) {
  QualityEstimator::Options options;
  options.model_capture_backlog = GetParam();
  QualityEstimator est =
      QualityEstimator::Create(*world_, *model_, {}, {kT0 + 20, kT0 + 60},
                               options)
          .value();
  for (const SourceProfile& p : profiles_) {
    ASSERT_TRUE(est.AddSource(&p, 1).ok());
  }

  QualityEstimator::EvalContext ctx = est.MakeEvalContext();
  for (int i = 0; i + 1 < kSources; ++i) {
    ctx.Push(static_cast<SourceHandle>(i));
  }
  // At depth 199 every product sits at the floor; a further Push + Pop
  // must restore the state bit-exactly (checkpoint restore, not divide).
  std::vector<EstimatedQuality> before;
  std::vector<EstimatedQuality> after;
  ctx.EstimateAllTimes(before);
  ctx.Push(static_cast<SourceHandle>(kSources - 1));
  ctx.Pop();
  ctx.EstimateAllTimes(after);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    ExpectQualityIdentical(after[i], before[i],
                           "time index " + std::to_string(i));
  }
}

INSTANTIATE_TEST_SUITE_P(BacklogOnOff, UnderflowRegressionTest,
                         ::testing::Bool());

}  // namespace
}  // namespace freshsel::estimation
