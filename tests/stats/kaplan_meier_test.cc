#include "stats/kaplan_meier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/time_types.h"
#include "stats/exponential.h"

namespace freshsel::stats {
namespace {

/// Whole days until a continuous delay completes: ceil(delay).
TimePoint CeilDays(double delay) {
  return static_cast<TimePoint>(std::ceil(delay));
}

/// Test-local copy of the sort-and-group product-limit loop: sort the
/// (clamped) durations, process events before censorings at equal times,
/// and emit one knot per event time with its Greenwood standard error.
std::vector<KaplanMeierEstimator::KnotWithError> SortedReferenceKnots(
    const std::vector<std::pair<std::int64_t, bool>>& samples) {
  std::vector<CensoredObservation> sorted;
  for (const auto& [days, observed] : samples) {
    sorted.push_back(
        {std::max(0.0, static_cast<double>(days)), observed});
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const CensoredObservation& a, const CensoredObservation& b) {
              if (a.duration != b.duration) return a.duration < b.duration;
              return a.observed && !b.observed;
            });
  std::vector<KaplanMeierEstimator::KnotWithError> knots;
  double survival = 1.0;
  double greenwood = 0.0;
  std::size_t at_risk = sorted.size();
  std::size_t i = 0;
  while (i < sorted.size()) {
    const double t = sorted[i].duration;
    std::size_t events = 0;
    std::size_t censored = 0;
    while (i < sorted.size() && sorted[i].duration == t) {
      if (sorted[i].observed) {
        ++events;
      } else {
        ++censored;
      }
      ++i;
    }
    if (events > 0) {
      const double n = static_cast<double>(at_risk);
      const double d = static_cast<double>(events);
      survival *= 1.0 - d / n;
      if (n > d) greenwood += d / (n * (n - d));
      knots.push_back({t, 1.0 - survival,
                       std::sqrt(survival * survival * greenwood)});
    }
    at_risk -= events + censored;
  }
  return knots;
}

TEST(KaplanMeierTest, DayHistogramMatchesSortedReference) {
  struct Case {
    const char* name;
    std::int64_t lo;
    std::int64_t hi;
    double observed_probability;
    int samples;
  };
  const Case cases[] = {
      {"tied events", 0, 6, 1.0, 300},
      {"censorings tied with events", 0, 5, 0.5, 200},
      {"negative durations", -8, 20, 0.7, 250},
      {"sparse wide range", 0, 400, 0.6, 150},
      {"single day", 3, 3, 0.5, 40},
      {"all censored", 0, 30, 0.0, 60},
  };
  for (const Case& c : cases) {
    for (std::uint64_t seed : {11u, 12u, 13u}) {
      Rng rng(seed);
      std::vector<std::pair<std::int64_t, bool>> samples;
      KaplanMeierEstimator km;
      for (int i = 0; i < c.samples; ++i) {
        const std::int64_t days = rng.UniformInt(c.lo, c.hi);
        const bool observed = rng.Bernoulli(c.observed_probability);
        samples.emplace_back(days, observed);
        km.Add(days, observed);
      }
      SCOPED_TRACE(::testing::Message() << c.name << " seed=" << seed);
      const std::vector<KaplanMeierEstimator::KnotWithError> expected =
          SortedReferenceKnots(samples);
      const StepFunction fit = km.Fit().value();
      if (expected.empty()) {
        EXPECT_EQ(fit.knots(), StepFunction::Constant(0.0).knots());
        EXPECT_EQ(fit.initial(), 0.0);
        EXPECT_FALSE(km.FitWithStdError().ok());
        continue;
      }
      const std::vector<KaplanMeierEstimator::KnotWithError> knots =
          km.FitWithStdError().value();
      ASSERT_EQ(knots.size(), expected.size());
      ASSERT_EQ(fit.knots().size(), expected.size());
      for (std::size_t k = 0; k < expected.size(); ++k) {
        EXPECT_EQ(knots[k].time, expected[k].time) << "knot " << k;
        EXPECT_EQ(knots[k].cdf, expected[k].cdf) << "knot " << k;
        EXPECT_EQ(knots[k].std_error, expected[k].std_error) << "knot " << k;
        EXPECT_EQ(fit.knots()[k].first, expected[k].time) << "knot " << k;
        EXPECT_EQ(fit.knots()[k].second, expected[k].cdf) << "knot " << k;
      }
    }
  }
}

TEST(KaplanMeierTest, RequiresObservations) {
  KaplanMeierEstimator km;
  EXPECT_FALSE(km.Fit().ok());
}

TEST(KaplanMeierTest, AllCensoredGivesZeroFunction) {
  KaplanMeierEstimator km;
  km.Add(5, false);
  km.Add(7, false);
  StepFunction f = km.Fit().value();
  EXPECT_DOUBLE_EQ(f.Evaluate(100.0), 0.0);
  EXPECT_DOUBLE_EQ(f.FinalValue(), 0.0);
}

TEST(KaplanMeierTest, NoCensoringMatchesEmpiricalCdf) {
  KaplanMeierEstimator km;
  for (TimePoint d : {1, 2, 3, 4}) km.Add(d, true);
  StepFunction f = km.Fit().value();
  EXPECT_DOUBLE_EQ(f.Evaluate(0.5), 0.0);
  EXPECT_DOUBLE_EQ(f.Evaluate(1.0), 0.25);
  EXPECT_DOUBLE_EQ(f.Evaluate(2.5), 0.5);
  EXPECT_DOUBLE_EQ(f.Evaluate(4.0), 1.0);
}

TEST(KaplanMeierTest, TiedEventsHandled) {
  KaplanMeierEstimator km;
  km.Add(2, true);
  km.Add(2, true);
  km.Add(5, true);
  StepFunction f = km.Fit().value();
  EXPECT_NEAR(f.Evaluate(2.0), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(f.Evaluate(5.0), 1.0, 1e-12);
}

TEST(KaplanMeierTest, TextbookCensoredExample) {
  // Durations: 1 (event), 2 (censored), 3 (event), 4 (event).
  // S(1) = 3/4. At t=3 risk set {3,4}: S(3) = 3/4 * 1/2 = 3/8.
  // At t=4 risk set {4}: S(4) = 0.
  KaplanMeierEstimator km;
  km.Add(1, true);
  km.Add(2, false);
  km.Add(3, true);
  km.Add(4, true);
  StepFunction f = km.Fit().value();
  EXPECT_NEAR(f.Evaluate(1.0), 0.25, 1e-12);
  EXPECT_NEAR(f.Evaluate(3.0), 1.0 - 0.375, 1e-12);
  EXPECT_NEAR(f.Evaluate(4.0), 1.0, 1e-12);
}

TEST(KaplanMeierTest, CensoredTieProcessedAfterEvent) {
  // At t=2 one event and one censoring: censored subject counts as at risk,
  // so S(2) = 1 - 1/2 = 1/2 and the censored one leaves afterwards.
  KaplanMeierEstimator km;
  km.Add(2, true);
  km.Add(2, false);
  StepFunction f = km.Fit().value();
  EXPECT_NEAR(f.Evaluate(2.0), 0.5, 1e-12);
  EXPECT_NEAR(f.FinalValue(), 0.5, 1e-12);
}

TEST(KaplanMeierTest, PlateauBelowOneWhenTailCensored) {
  KaplanMeierEstimator km;
  km.Add(1, true);
  km.Add(10, false);
  km.Add(10, false);
  StepFunction f = km.Fit().value();
  EXPECT_NEAR(f.FinalValue(), 1.0 / 3.0, 1e-12);
}

TEST(KaplanMeierTest, NegativeDurationsClampToZero) {
  KaplanMeierEstimator km;
  km.Add(-3, true);
  km.Add(1, true);
  StepFunction f = km.Fit().value();
  EXPECT_NEAR(f.Evaluate(0.0), 0.5, 1e-12);
}

class KmRecoveryTest : public ::testing::TestWithParam<double> {};

TEST_P(KmRecoveryTest, RecoversExponentialCdfUnderCensoring) {
  // Delays D ~ Exp(rate) are observed on the day they complete, ceil(D),
  // and censored at a fixed whole-day horizon. Since ceil(D) <= k exactly
  // when D <= k, the KM estimate at whole day k must track the true CDF
  // there, well inside the horizon.
  const double rate = GetParam();
  const TimePoint horizon = CeilDays(3.0 / rate);
  Rng rng(139);
  KaplanMeierEstimator km;
  for (int i = 0; i < 30000; ++i) {
    const TimePoint d = CeilDays(rng.Exponential(rate));
    if (d > horizon) {
      km.Add(horizon, false);
    } else {
      km.Add(d, true);
    }
  }
  StepFunction f = km.Fit().value();
  ExponentialDistribution truth =
      ExponentialDistribution::Create(rate).value();
  for (double x : {0.2 / rate, 0.5 / rate, 1.0 / rate, 2.0 / rate}) {
    const double k = std::ceil(x);
    EXPECT_NEAR(f.Evaluate(k), truth.Cdf(k), 0.015)
        << "rate=" << rate << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Rates, KmRecoveryTest,
                         ::testing::Values(0.05, 0.2, 1.0, 4.0));

TEST(KaplanMeierTest, FullyCensoredSampleYieldsZeroFitButStdErrorFails) {
  KaplanMeierEstimator km;
  km.Add(3, false);
  km.Add(7, false);
  // Fit falls back to the constant-zero effectiveness distribution...
  StepFunction f = km.Fit().value();
  EXPECT_EQ(f.Evaluate(100.0), 0.0);
  // ...but there is no event-time knot to attach a Greenwood error to.
  Result<std::vector<KaplanMeierEstimator::KnotWithError>> band =
      km.FitWithStdError();
  ASSERT_FALSE(band.ok());
  EXPECT_EQ(band.status().code(), StatusCode::kFailedPrecondition);
}

TEST(KaplanMeierTest, FitWithStdErrorMatchesFitKnots) {
  Rng rng(151);
  KaplanMeierEstimator km;
  for (int i = 0; i < 400; ++i) {
    km.Add(CeilDays(rng.Exponential(0.2)), rng.Bernoulli(0.8));
  }
  StepFunction cdf = km.Fit().value();
  std::vector<KaplanMeierEstimator::KnotWithError> knots =
      km.FitWithStdError().value();
  ASSERT_EQ(knots.size(), cdf.knots().size());
  for (std::size_t i = 0; i < knots.size(); ++i) {
    EXPECT_DOUBLE_EQ(knots[i].time, cdf.knots()[i].first);
    EXPECT_DOUBLE_EQ(knots[i].cdf, cdf.knots()[i].second);
    EXPECT_GE(knots[i].std_error, 0.0);
  }
}

TEST(KaplanMeierTest, GreenwoodKnownExample) {
  // Events at 1, 2 with 3 subjects (third censored at 3):
  // t=1: S=2/3, Var = S^2 * [1/(3*2)] -> se = (2/3) sqrt(1/6).
  KaplanMeierEstimator km;
  km.Add(1, true);
  km.Add(2, true);
  km.Add(3, false);
  std::vector<KaplanMeierEstimator::KnotWithError> knots =
      km.FitWithStdError().value();
  ASSERT_EQ(knots.size(), 2u);
  EXPECT_NEAR(knots[0].std_error,
              (2.0 / 3.0) * std::sqrt(1.0 / 6.0), 1e-12);
  // t=2: S = 2/3 * 1/2 = 1/3, Var = S^2 [1/6 + 1/(2*1)].
  EXPECT_NEAR(knots[1].std_error,
              (1.0 / 3.0) * std::sqrt(1.0 / 6.0 + 0.5), 1e-12);
}

TEST(KaplanMeierTest, StdErrorShrinksWithSampleSize) {
  auto band_at_median = [](int n) {
    Rng rng(157);
    KaplanMeierEstimator km;
    for (int i = 0; i < n; ++i) {
      km.Add(CeilDays(rng.Exponential(1.0)), true);
    }
    std::vector<KaplanMeierEstimator::KnotWithError> knots =
        km.FitWithStdError().value();
    return knots[knots.size() / 2].std_error;
  };
  EXPECT_GT(band_at_median(50), band_at_median(5000));
}

TEST(KaplanMeierTest, FitIsMonotoneNonDecreasing) {
  Rng rng(149);
  KaplanMeierEstimator km;
  for (int i = 0; i < 500; ++i) {
    km.Add(CeilDays(rng.Exponential(0.3)), rng.Bernoulli(0.7));
  }
  StepFunction f = km.Fit().value();
  double prev = -1.0;
  for (const auto& [x, y] : f.knots()) {
    EXPECT_GE(y, prev);
    prev = y;
  }
}

}  // namespace
}  // namespace freshsel::stats
