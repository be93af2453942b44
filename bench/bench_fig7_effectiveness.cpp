// Reproduces Figure 7: the exact and right-censored insertion-delay
// histograms for one BL source, and the Kaplan-Meier effectiveness
// distribution G_i learned from them.

#include <iostream>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "estimation/source_profile.h"
#include "stats/histogram.h"
#include <algorithm>

#include "stats/kaplan_meier.h"

int main(int argc, char** argv) {
  freshsel::bench::ObsSession obs_session("bench_fig7_effectiveness", &argc, argv);
  using namespace freshsel;
  bench::PrintHeader("bench_fig7_effectiveness",
                     "Figure 7: delay histograms + learned Kaplan-Meier "
                     "effectiveness G_i for a BL source");
  Result<workloads::Scenario> bl =
      workloads::GenerateBlScenario(bench::DefaultBl());
  if (!bl.ok()) return 1;

  // The paper shows one representative source; pick the 5th largest (a
  // mid-size source with visible delays).
  const std::size_t source_index = bl->LargestSources(5)[4];
  const source::SourceHistory& source = bl->sources[source_index];
  std::printf("source: %s\n\n", source.name().c_str());

  // Exact vs right-censored insertion delays over the training window.
  stats::Histogram exact = stats::Histogram::Create(0, 120, 12).value();
  stats::Histogram censored = stats::Histogram::Create(0, 300, 12).value();
  for (world::SubdomainId sub : source.spec().scope) {
    for (world::EntityId id : bl->world.EntitiesInSubdomain(sub)) {
      const world::EntityRecord& entity = bl->world.entity(id);
      if (entity.birth <= 0 || entity.birth > bl->t0) continue;
      const source::CaptureRecord* rec = source.Find(id);
      if (rec != nullptr && rec->inserted <= bl->t0) {
        exact.Add(static_cast<double>(rec->inserted - entity.birth));
      } else {
        censored.Add(static_cast<double>(bl->t0 - entity.birth));
      }
    }
  }
  TablePrinter exact_table("Fig 7 (left): exact insertion delays",
                           {"delay_bin_start", "count"});
  for (std::size_t b = 0; b < exact.bin_count(); ++b) {
    exact_table.AddRow({FormatDouble(exact.BinLowerEdge(b), 0),
                        FormatDouble(exact.BinWeight(b), 0)});
  }
  exact_table.Print(std::cout);
  TablePrinter cens_table(
      "Fig 7 (middle): right-censored insertion delays (lower bounds)",
      {"delay_bin_start", "count"});
  for (std::size_t b = 0; b < censored.bin_count(); ++b) {
    cens_table.AddRow({FormatDouble(censored.BinLowerEdge(b), 0),
                       FormatDouble(censored.BinWeight(b), 0)});
  }
  cens_table.Print(std::cout);

  // The learned effectiveness distribution (the profile learner combines
  // both histograms via Kaplan-Meier). The Greenwood band quantifies the
  // estimate's uncertainty.
  Result<estimation::SourceProfile> profile =
      estimation::LearnSourceProfile(bl->world, source, bl->t0);
  if (!profile.ok()) return 1;
  stats::KaplanMeierEstimator km;
  for (world::SubdomainId sub : source.spec().scope) {
    for (world::EntityId id : bl->world.EntitiesInSubdomain(sub)) {
      const world::EntityRecord& entity = bl->world.entity(id);
      if (entity.birth <= 0 || entity.birth > bl->t0) continue;
      const source::CaptureRecord* rec = source.Find(id);
      if (rec != nullptr && rec->inserted <= bl->t0) {
        km.Add(rec->inserted - entity.birth, true);
      } else {
        km.Add(bl->t0 - entity.birth, false);
      }
    }
  }
  Result<std::vector<stats::KaplanMeierEstimator::KnotWithError>> band =
      km.FitWithStdError();
  if (!band.ok()) return 1;
  SeriesPrinter series(
      "Fig 7 (right): learned effectiveness distribution G_i "
      "(+/- Greenwood 95% band)",
      "delay(days)", {"G_i", "lo95", "hi95"});
  for (double tau : {0.0, 1.0, 2.0, 4.0, 7.0, 14.0, 21.0, 30.0, 45.0, 60.0,
                     90.0, 120.0, 180.0}) {
    const double g = profile->g_insert.Evaluate(tau);
    // Standard error of the last knot at or before tau.
    double se = 0.0;
    for (const auto& knot : *band) {
      if (knot.time > tau) break;
      se = knot.std_error;
    }
    series.AddPoint(tau, {g, std::max(0.0, g - 1.96 * se),
                          std::min(1.0, g + 1.96 * se)});
  }
  series.Print(std::cout);
  std::printf("G_i plateau = %.3f, learned update interval u_S = %.2f days "
              "(true period: %lld days)\n",
              profile->g_insert.FinalValue(), profile->update_interval,
              static_cast<long long>(source.schedule().period));
  return 0;
}
