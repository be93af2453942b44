// Reproduces Figures 5 and 6: the world-model goodness-of-fit checks.
//  Fig 5(a): Poisson fit of daily entity appearances for a BL domain point;
//  Fig 5(b): exponential fit of entity lifespans (with the right-censoring
//            peak at the end of the window);
//  Fig 6:    Poisson fit of daily appearances for a GDELT domain point.

#include <algorithm>
#include <cstdint>
#include <iostream>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include <cmath>

#include "stats/exponential.h"
#include "stats/kaplan_meier.h"
#include "stats/poisson.h"

namespace freshsel {
namespace {

/// Daily appearance counts for one subdomain over (0, t0].
std::vector<std::int64_t> DailyAppearances(const workloads::Scenario& s,
                                           world::SubdomainId sub) {
  std::vector<std::int64_t> counts(static_cast<std::size_t>(s.t0), 0);
  for (world::EntityId id : s.world.EntitiesInSubdomain(sub)) {
    const TimePoint birth = s.world.entity(id).birth;
    if (birth > 0 && birth <= s.t0) {
      ++counts[static_cast<std::size_t>(birth - 1)];
    }
  }
  return counts;
}

void PoissonFitPanel(const char* title, const workloads::Scenario& s,
                     double min_expected = 5.0) {
  // Use the busiest subdomain as the representative domain point.
  world::SubdomainId busiest = 0;
  for (world::SubdomainId sub = 1; sub < s.domain().subdomain_count();
       ++sub) {
    if (s.world.CountAt(sub, s.t0) > s.world.CountAt(busiest, s.t0)) {
      busiest = sub;
    }
  }
  std::vector<std::int64_t> counts = DailyAppearances(s, busiest);
  const double lambda = stats::FitPoissonMle(counts).value();
  stats::PoissonDistribution fit =
      stats::PoissonDistribution::Create(lambda).value();

  stats::CountHistogram observed;
  for (std::int64_t c : counts) observed.Add(c);
  SeriesPrinter series(title, "appearances/day",
                       {"observed_density", "poisson_fit"});
  std::vector<double> pmf = observed.EmpiricalPmf();
  for (std::int64_t k = 0; k <= observed.max_value(); ++k) {
    series.AddPoint(static_cast<double>(k),
                    {pmf[static_cast<std::size_t>(k)], fit.Pmf(k)});
  }
  series.Print(std::cout);
  Result<stats::ChiSquareResult> gof = stats::PoissonChiSquare(
      observed, lambda, min_expected);
  if (gof.ok()) {
    std::printf("lambda_MLE=%.3f  chi2/dof=%.2f over %zu cells "
                "(reduced ~1 => Poisson fits, as the paper observes)\n\n",
                lambda, gof->reduced, gof->cells);
  } else {
    std::printf("lambda_MLE=%.3f  (chi-square skipped: %s)\n\n", lambda,
                gof.status().ToString().c_str());
  }
}

void LifespanPanel(const workloads::Scenario& bl) {
  // Observed lifespans for the busiest subdomain, censored at t0 - exactly
  // the Figure 5(b) setup (censoring shows up as a terminal CDF jump).
  world::SubdomainId busiest = 0;
  for (world::SubdomainId sub = 1; sub < bl.domain().subdomain_count();
       ++sub) {
    if (bl.world.CountAt(sub, bl.t0) > bl.world.CountAt(busiest, bl.t0)) {
      busiest = sub;
    }
  }
  std::vector<stats::CensoredObservation> observations;
  std::vector<double> exact;
  stats::KaplanMeierEstimator km;
  for (world::EntityId id : bl.world.EntitiesInSubdomain(busiest)) {
    const world::EntityRecord& e = bl.world.entity(id);
    if (e.birth > bl.t0) continue;
    if (e.death != world::kNever && e.death <= bl.t0) {
      observations.push_back(
          {static_cast<double>(e.death - e.birth), true});
      exact.push_back(static_cast<double>(e.death - e.birth));
      km.Add(e.death - e.birth, true);
    } else {
      observations.push_back(
          {static_cast<double>(bl.t0 - e.birth), false});
      km.Add(bl.t0 - e.birth, false);
    }
  }
  const double rate =
      stats::FitExponentialCensoredMle(observations).value();
  stats::ExponentialDistribution fit =
      stats::ExponentialDistribution::Create(rate).value();

  // Empirical CDF over ALL observations (censored treated as "did not
  // disappear" - this produces the paper's censoring peak near the window
  // length) vs the fitted exponential.
  std::vector<double> durations;
  for (const auto& obs : observations) durations.push_back(obs.duration);
  std::sort(durations.begin(), durations.end());
  SeriesPrinter series("Fig 5(b): BL entity lifespan, empirical vs Exp fit",
                       "lifespan(days)", {"empirical_cdf", "exp_fit_cdf"});
  const double n = static_cast<double>(durations.size());
  for (std::size_t i = 0; i < durations.size();
       i += std::max<std::size_t>(1, durations.size() / 40)) {
    series.AddPoint(durations[i],
                    {static_cast<double>(i + 1) / n, fit.Cdf(durations[i])});
  }
  series.Print(std::cout);
  // Goodness of fit under censoring: compare the Kaplan-Meier estimate of
  // the lifespan CDF (which handles the right-censored mass correctly)
  // against the fitted exponential inside the observation window.
  stats::StepFunction km_cdf = km.Fit().value();
  double max_gap = 0.0;
  for (double x = 10.0; x <= 0.8 * static_cast<double>(bl.t0); x += 10.0) {
    max_gap = std::max(max_gap, std::fabs(km_cdf.Evaluate(x) - fit.Cdf(x)));
  }
  std::printf("gamma_d_MLE=%.5f (mean lifespan %.0f days), max |KM - Exp| "
              "inside the window = %.3f (paper: exponential fits; the "
              "empirical peak at the window end is censored data)\n\n",
              rate, 1.0 / rate, max_gap);
}

}  // namespace
}  // namespace freshsel

int main(int argc, char** argv) {
  freshsel::bench::ObsSession obs_session("bench_fig5_fig6_model_fits", &argc, argv);
  using namespace freshsel;
  bench::PrintHeader("bench_fig5_fig6_model_fits",
                     "Figures 5(a), 5(b), 6: Poisson/exponential world-model "
                     "fits");
  Result<workloads::Scenario> bl =
      workloads::GenerateBlScenario(bench::DefaultBl());
  if (!bl.ok()) return 1;
  PoissonFitPanel("Fig 5(a): BL daily appearances, observed vs Poisson fit",
                  *bl);
  LifespanPanel(*bl);

  Result<workloads::Scenario> gdelt =
      workloads::GenerateGdeltScenario(bench::DefaultGdelt());
  if (!gdelt.ok()) return 1;
  // Only 15 training days: loosen the chi-square cell-merge threshold.
  PoissonFitPanel("Fig 6: GDELT daily appearances, observed vs Poisson fit",
                  *gdelt, /*min_expected=*/1.5);
  return 0;
}
