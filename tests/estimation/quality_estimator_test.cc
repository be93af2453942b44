#include "estimation/quality_estimator.h"

#include <cstdint>
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "integration/signatures.h"
#include "metrics/quality.h"
#include "source/source_simulator.h"
#include "world/world_simulator.h"

namespace freshsel::estimation {
namespace {

/// A simulated 2x2 world with 6 heterogeneous sources, models learned at
/// t0 = 300, ground truth through day 500.
class EstimatorFixture : public ::testing::Test {
 protected:
  static constexpr TimePoint kT0 = 300;
  static constexpr TimePoint kHorizon = 500;

  void SetUp() override {
    world::DataDomain domain =
        world::DataDomain::Create("loc", 2, "cat", 2).value();
    world::WorldSpec spec{std::move(domain), {}, kHorizon};
    // Each subdomain is seeded at its stationary population
    // lambda / gamma_d, the regime the paper's Eq. 14 presumes.
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

  QualityEstimator MakeEstimator(
      std::vector<world::SubdomainId> domain, TimePoints eval_times,
      QualityEstimator::Options options = {}) {
    QualityEstimator est =
        QualityEstimator::Create(*world_, *model_, std::move(domain),
                                 std::move(eval_times), options)
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

TEST_F(EstimatorFixture, CreateValidates) {
  EXPECT_FALSE(QualityEstimator::Create(*world_, *model_, {99}, {}).ok());
  EXPECT_FALSE(
      QualityEstimator::Create(*world_, *model_, {}, {kT0 - 10}).ok());
  EXPECT_TRUE(QualityEstimator::Create(*world_, *model_, {}, {kT0 + 10})
                  .ok());
}

TEST_F(EstimatorFixture, CreateRejectsDuplicateEvalTimes) {
  // A repeated time would alias one lookup slot while EstimateAllTimes /
  // EstimateAverage weight it twice - InvalidArgument, not silent skew.
  auto dup =
      QualityEstimator::Create(*world_, *model_, {}, {kT0 + 10, kT0 + 10});
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kInvalidArgument);
  // Non-adjacent duplicates are caught too (the check sorts first).
  auto spread = QualityEstimator::Create(*world_, *model_, {},
                                         {kT0 + 10, kT0 + 20, kT0 + 10});
  ASSERT_FALSE(spread.ok());
  EXPECT_EQ(spread.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(EstimatorFixture, CreateRejectsEvalTimesBeyondHorizon) {
  // Each registered time materializes O(t - t0) tables; a bogus far-future
  // time means multi-GB allocations, so it is rejected up front.
  auto bogus = QualityEstimator::Create(*world_, *model_, {},
                                        {kT0 + kMaxEvalHorizonSteps + 1});
  ASSERT_FALSE(bogus.ok());
  EXPECT_EQ(bogus.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(QualityEstimator::Create(*world_, *model_, {},
                                       {kT0 + kMaxEvalHorizonSteps})
                  .ok());
}

using EstimatorDeathTest = EstimatorFixture;

TEST_F(EstimatorDeathTest, EstimateBeforeT0Dies) {
  // The old behavior returned a silent all-zero quality for t < t0, which
  // made selections over garbage estimates look like valid selections.
  QualityEstimator est = MakeEstimator({}, {kT0 + 10});
  EXPECT_DEATH(est.Estimate({0}, kT0 - 1), "before t0");
}

TEST_F(EstimatorDeathTest, EstimateBeyondHorizonDies) {
  QualityEstimator est = MakeEstimator({}, {kT0 + 10});
  EXPECT_DEATH(est.Estimate({0}, kT0 + kMaxEvalHorizonSteps + 1),
               "beyond the supported horizon");
}

TEST_F(EstimatorFixture, AddSourceValidates) {
  QualityEstimator est = MakeEstimator({}, {kT0 + 10});
  EXPECT_FALSE(est.AddSource(nullptr, 1).ok());
  EXPECT_FALSE(est.AddSource(&profiles_[0], 0).ok());
  EXPECT_TRUE(est.AddSource(&profiles_[0], 3).ok());
  EXPECT_EQ(est.source_count(), profiles_.size() + 1);
}

TEST_F(EstimatorFixture, AtT0MatchesExactMetrics) {
  QualityEstimator est = MakeEstimator({}, {kT0});
  std::vector<const source::SourceHistory*> set_hist{&histories_[0],
                                                     &histories_[2]};
  metrics::QualityMetrics exact = metrics::MetricsFromCounts(
      metrics::ComputeCounts(*world_, set_hist, kT0));
  EstimatedQuality estimated = est.Estimate({0, 2}, kT0);
  EXPECT_NEAR(estimated.coverage, exact.coverage, 1e-9);
  EXPECT_NEAR(estimated.local_freshness, exact.local_freshness, 1e-9);
  EXPECT_NEAR(estimated.global_freshness, exact.global_freshness, 1e-9);
  EXPECT_NEAR(estimated.accuracy, exact.accuracy, 1e-9);
}

TEST_F(EstimatorFixture, EmptySetIsZeroQuality) {
  QualityEstimator est = MakeEstimator({}, {kT0 + 30});
  EstimatedQuality q = est.Estimate({}, kT0 + 30);
  EXPECT_DOUBLE_EQ(q.coverage, 0.0);
  EXPECT_DOUBLE_EQ(q.global_freshness, 0.0);
  EXPECT_GT(q.expected_world, 0.0);
}

TEST_F(EstimatorFixture, MetricsStayInUnitInterval) {
  QualityEstimator est = MakeEstimator({}, {kT0 + 60});
  Rng rng(5);
  for (int round = 0; round < 30; ++round) {
    std::vector<QualityEstimator::SourceHandle> set;
    for (std::size_t s = 0; s < profiles_.size(); ++s) {
      if (rng.Bernoulli(0.5)) {
        set.push_back(static_cast<QualityEstimator::SourceHandle>(s));
      }
    }
    EstimatedQuality q = est.Estimate(set, kT0 + 60);
    for (double v : {q.coverage, q.local_freshness, q.global_freshness,
                     q.accuracy}) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

TEST_F(EstimatorFixture, CoverageIsMonotone) {
  QualityEstimator est = MakeEstimator({}, {kT0 + 90});
  Rng rng(7);
  for (int round = 0; round < 20; ++round) {
    // Random chain: add sources one at a time in random order.
    std::vector<QualityEstimator::SourceHandle> order;
    for (std::size_t s = 0; s < profiles_.size(); ++s) {
      order.push_back(static_cast<QualityEstimator::SourceHandle>(s));
    }
    rng.Shuffle(order);
    std::vector<QualityEstimator::SourceHandle> set;
    double prev_cov = 0.0;
    double prev_gf = 0.0;
    for (QualityEstimator::SourceHandle h : order) {
      set.push_back(h);
      std::sort(set.begin(), set.end());
      EstimatedQuality q = est.Estimate(set, kT0 + 90);
      EXPECT_GE(q.coverage, prev_cov - 1e-9);
      EXPECT_GE(q.global_freshness, prev_gf - 1e-9);
      prev_cov = q.coverage;
      prev_gf = q.global_freshness;
    }
  }
}

TEST_F(EstimatorFixture, CoverageAndGlobalFreshnessAreSubmodular) {
  QualityEstimator est = MakeEstimator({}, {kT0 + 60});
  const std::size_t n = profiles_.size();
  Rng rng(11);
  int checked = 0;
  for (int round = 0; round < 200; ++round) {
    // Random A subset of B, random s outside B.
    std::vector<QualityEstimator::SourceHandle> a;
    std::vector<QualityEstimator::SourceHandle> b;
    std::vector<QualityEstimator::SourceHandle> outside;
    for (std::size_t e = 0; e < n; ++e) {
      const auto h = static_cast<QualityEstimator::SourceHandle>(e);
      const double roll = rng.NextDouble();
      if (roll < 0.3) {
        a.push_back(h);
        b.push_back(h);
      } else if (roll < 0.6) {
        b.push_back(h);
      } else {
        outside.push_back(h);
      }
    }
    if (outside.empty()) continue;
    const auto s = outside[rng.NextBounded(outside.size())];
    auto with = [](std::vector<QualityEstimator::SourceHandle> set,
                   QualityEstimator::SourceHandle e) {
      set.insert(std::upper_bound(set.begin(), set.end(), e), e);
      return set;
    };
    const TimePoint t = kT0 + 60;
    EstimatedQuality qa = est.Estimate(a, t);
    EstimatedQuality qas = est.Estimate(with(a, s), t);
    EstimatedQuality qb = est.Estimate(b, t);
    EstimatedQuality qbs = est.Estimate(with(b, s), t);
    // Diminishing returns (Theorems 1 and 2).
    EXPECT_GE(qas.coverage - qa.coverage,
              qbs.coverage - qb.coverage - 1e-9);
    EXPECT_GE(qas.global_freshness - qa.global_freshness,
              qbs.global_freshness - qb.global_freshness - 1e-9);
    ++checked;
  }
  EXPECT_GT(checked, 50);
}

TEST_F(EstimatorFixture, LowerAcquisitionFrequencyNeverHelpsCoverage) {
  QualityEstimator est = MakeEstimator({}, {kT0 + 45});
  // Register source 0 again at divisors 2, 4, 8.
  std::vector<QualityEstimator::SourceHandle> handles{0};
  for (std::int64_t d : {2, 4, 8}) {
    handles.push_back(est.AddSource(&profiles_[0], d).value());
  }
  double prev = 2.0;
  for (QualityEstimator::SourceHandle h : handles) {
    const double cov = est.Estimate({h}, kT0 + 45).coverage;
    EXPECT_LE(cov, prev + 1e-9);
    prev = cov;
  }
}

TEST_F(EstimatorFixture, PredictsFutureQualityOfSingleSource) {
  // The headline Figure 11 property: predicted quality of a large source
  // tracks the simulated ground truth at future time points.
  QualityEstimator est = MakeEstimator({}, MakeTimePoints(kT0 + 30, 5, 30));
  for (int i = 0; i < 2; ++i) {
    const auto h = static_cast<QualityEstimator::SourceHandle>(i);
    for (TimePoint t : est.eval_times()) {
      EstimatedQuality predicted = est.Estimate({h}, t);
      metrics::QualityMetrics actual = metrics::MetricsFromCounts(
          metrics::ComputeCounts(*world_, {&histories_[i]}, t));
      EXPECT_NEAR(predicted.coverage, actual.coverage, 0.08)
          << "source " << i << " t=" << t;
      EXPECT_NEAR(predicted.local_freshness, actual.local_freshness, 0.12)
          << "source " << i << " t=" << t;
      EXPECT_NEAR(predicted.accuracy, actual.accuracy, 0.12)
          << "source " << i << " t=" << t;
    }
  }
}

TEST_F(EstimatorFixture, DomainRestrictionMatchesMaskedExact) {
  QualityEstimator est = MakeEstimator({0, 1}, {kT0});
  BitVector mask = integration::DomainMask(*world_, {0, 1});
  metrics::QualityCounts counts = metrics::ComputeCounts(
      *world_, {&histories_[1]}, kT0, &mask, world_->CountAtIn({0, 1}, kT0));
  metrics::QualityMetrics exact = metrics::MetricsFromCounts(counts);
  EstimatedQuality q = est.Estimate({1}, kT0);
  EXPECT_NEAR(q.coverage, exact.coverage, 1e-9);
  EXPECT_NEAR(q.local_freshness, exact.local_freshness, 1e-9);
}

TEST_F(EstimatorFixture, CacheDoesNotChangeResults) {
  // `cached` built its tables at AddSource for the times it evaluates;
  // `uncached` registered other times, so the same evaluations fold the
  // factors ad hoc. Both paths must publish the same bits.
  QualityEstimator cached = MakeEstimator({}, {kT0 + 40, kT0 + 80});
  QualityEstimator uncached = MakeEstimator({}, {kT0 + 41});
  for (TimePoint t : {kT0 + 40, kT0 + 80}) {
    for (std::vector<QualityEstimator::SourceHandle> set :
         {std::vector<QualityEstimator::SourceHandle>{0},
          std::vector<QualityEstimator::SourceHandle>{1, 3, 5},
          std::vector<QualityEstimator::SourceHandle>{0, 1, 2, 3, 4, 5}}) {
      EstimatedQuality qa = cached.Estimate(set, t);
      EstimatedQuality qb = uncached.Estimate(set, t);
      EXPECT_EQ(qa.coverage, qb.coverage);
      EXPECT_EQ(qa.local_freshness, qb.local_freshness);
      EXPECT_EQ(qa.accuracy, qb.accuracy);
    }
  }
}

TEST_F(EstimatorFixture, AddSourceCompactsLikeThePerSlotLoop) {
  // Signatures 100 bits wider than the world, with bits set past its end
  // and in subdomains outside the restriction; AddSource keeps exactly the
  // bits a per-slot walk over the restricted domain's entities finds.
  const std::vector<world::SubdomainId> domain{1, 3};
  const std::size_t width = world_->entity_count() + 100;
  std::vector<SourceProfile> wide = profiles_;
  for (std::size_t s = 0; s < wide.size(); ++s) {
    integration::SourceSignatures sig{BitVector(width), BitVector(width),
                                      BitVector(width)};
    const auto copy = [&](const BitVector& from, BitVector& to) {
      from.VisitSetBits([&](std::size_t id) { to.Set(id); });
      for (std::size_t id = world_->entity_count() + s; id < width; id += 7) {
        to.Set(id);
      }
    };
    copy(profiles_[s].sig_t0.up, sig.up);
    copy(profiles_[s].sig_t0.cov, sig.cov);
    copy(profiles_[s].sig_t0.all, sig.all);
    wide[s].sig_t0 = std::move(sig);
  }
  QualityEstimator est =
      QualityEstimator::Create(*world_, *model_, domain, {kT0}).value();
  for (const SourceProfile& p : wide) ASSERT_TRUE(est.AddSource(&p).ok());

  // Reference: the per-slot loop over the restricted domain.
  std::vector<world::EntityId> domain_entities;
  for (world::SubdomainId sub : domain) {
    for (world::EntityId id : world_->EntitiesInSubdomain(sub)) {
      domain_entities.push_back(id);
    }
  }
  const double count_t0 = static_cast<double>(est.domain_count_t0());
  ASSERT_GT(count_t0, 0.0);
  const auto reference = [&](const std::vector<QualityEstimator::SourceHandle>&
                                 set,
                             auto member) {
    double count = 0.0;
    for (world::EntityId id : domain_entities) {
      for (QualityEstimator::SourceHandle h : set) {
        if ((wide[h].sig_t0.*member).Test(id)) {
          count += 1.0;
          break;
        }
      }
    }
    return count;
  };
  using integration::SourceSignatures;
  for (QualityEstimator::SourceHandle h = 0; h < wide.size(); ++h) {
    EXPECT_EQ(est.SourceCoverageAtT0(h),
              reference({h}, &SourceSignatures::cov) / count_t0)
        << "source " << h;
  }
  // At t0 the estimate is the exact signature metrics of the union.
  for (const std::vector<QualityEstimator::SourceHandle>& set :
       {std::vector<QualityEstimator::SourceHandle>{0},
        std::vector<QualityEstimator::SourceHandle>{2, 4},
        std::vector<QualityEstimator::SourceHandle>{0, 1, 2, 3, 4, 5}}) {
    const EstimatedQuality q = est.Estimate(set, kT0);
    const double up = reference(set, &SourceSignatures::up);
    const double all = reference(set, &SourceSignatures::all);
    EXPECT_EQ(q.coverage, reference(set, &SourceSignatures::cov) / count_t0);
    EXPECT_EQ(q.expected_up, up);
    EXPECT_EQ(q.expected_result, std::max(all, up));
  }
}

TEST_F(EstimatorFixture, PaperSurvivalVariantStaysValid) {
  QualityEstimator::Options paper;
  paper.per_event_survival = false;
  QualityEstimator est = MakeEstimator({}, {kT0 + 60}, paper);
  EstimatedQuality q = est.Estimate({0, 1, 2}, kT0 + 60);
  EXPECT_GE(q.local_freshness, 0.0);
  EXPECT_LE(q.local_freshness, 1.0);
  EXPECT_GE(q.coverage, 0.0);
  EXPECT_LE(q.coverage, 1.0);
}

TEST_F(EstimatorFixture, CaptureBacklogNeverReducesCoverage) {
  QualityEstimator::Options with_backlog;
  with_backlog.model_capture_backlog = true;
  QualityEstimator plain = MakeEstimator({}, {kT0 + 45});
  QualityEstimator extended = MakeEstimator({}, {kT0 + 45}, with_backlog);
  for (std::vector<QualityEstimator::SourceHandle> set :
       {std::vector<QualityEstimator::SourceHandle>{0},
        std::vector<QualityEstimator::SourceHandle>{2, 4},
        std::vector<QualityEstimator::SourceHandle>{0, 1, 2, 3, 4, 5}}) {
    const double base = plain.Estimate(set, kT0 + 45).coverage;
    const double backlog = extended.Estimate(set, kT0 + 45).coverage;
    EXPECT_GE(backlog, base - 1e-12);
  }
  // Empty set: no backlog capture possible.
  EXPECT_DOUBLE_EQ(extended.Estimate({}, kT0 + 45).coverage, 0.0);
}

TEST_F(EstimatorFixture, GhostResultNeverShrinksResultSize) {
  QualityEstimator::Options with_ghosts;
  with_ghosts.model_ghost_result = true;
  QualityEstimator plain = MakeEstimator({}, {kT0 + 90});
  QualityEstimator extended = MakeEstimator({}, {kT0 + 90}, with_ghosts);
  const std::vector<QualityEstimator::SourceHandle> set{0, 1, 2};
  EXPECT_GE(extended.Estimate(set, kT0 + 90).expected_result,
            plain.Estimate(set, kT0 + 90).expected_result - 1e-9);
}

TEST_F(EstimatorFixture, ExponentialWorldModelConvergesToStationary) {
  QualityEstimator::Options exponential;
  exponential.exponential_world_model = true;
  QualityEstimator est = MakeEstimator({}, {kT0 + 60}, exponential);
  // The fixture world is seeded at its stationary population, so both
  // models should predict roughly the t0 count; the exponential model must
  // stay bounded even far in the future.
  const double near = est.Estimate({0}, kT0 + 60).expected_world;
  const double far = est.Estimate({0}, kT0 + 20000).expected_world;
  EXPECT_NEAR(near / static_cast<double>(est.domain_count_t0()), 1.0, 0.1);
  EXPECT_NEAR(far / near, 1.0, 0.2);  // Converged, not diverging linearly.
}

TEST_F(EstimatorFixture, EstimateAverageAveragesOverEvalTimes) {
  QualityEstimator est = MakeEstimator({}, {kT0 + 30, kT0 + 60});
  EstimatedQuality q1 = est.Estimate({0, 1}, kT0 + 30);
  EstimatedQuality q2 = est.Estimate({0, 1}, kT0 + 60);
  EstimatedQuality avg = est.EstimateAverage({0, 1});
  EXPECT_NEAR(avg.coverage, (q1.coverage + q2.coverage) / 2.0, 1e-12);
  EXPECT_NEAR(avg.accuracy, (q1.accuracy + q2.accuracy) / 2.0, 1e-12);
}

TEST_F(EstimatorFixture, UncachedEvalTimeStillWorks) {
  QualityEstimator est = MakeEstimator({}, {kT0 + 30});
  // Estimate at a time not in eval_times: computed ad hoc.
  EstimatedQuality q = est.Estimate({0, 1}, kT0 + 77);
  EXPECT_GT(q.coverage, 0.0);
  EXPECT_LE(q.coverage, 1.0);
}

}  // namespace
}  // namespace freshsel::estimation
