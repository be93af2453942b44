#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/time_types.h"
#include "world/world.h"

namespace freshsel::estimation {

/// Learned change parameters for one homogeneous subdomain (Section 4.1.1).
///
/// All rates are per day. `gamma_*` of 0 means the event type was never
/// observed in the training window (survival probability stays 1).
struct SubdomainChangeModel {
  double lambda_insert = 0.0;     ///< MLE appearance intensity (Eq. 6).
  double lambda_disappear = 0.0;  ///< Observed mean disappearances/day.
  double lambda_update = 0.0;     ///< Observed mean value updates/day.
  double gamma_disappear = 0.0;   ///< Censored-MLE lifespan rate (Eq. 7).
  double gamma_update = 0.0;      ///< Censored-MLE inter-update rate.
  std::int64_t count_at_t0 = 0;   ///< |Omega_<i>| at the end of training.
};

/// The world change models of Section 4.1.1, learned per subdomain from the
/// historical window T = (0, t0] of a (true or history-integrated) World.
///
/// Lifespans and inter-update gaps ending after t0 enter the MLEs as
/// right-censored observations exactly as in Equation 7. Events after t0
/// are never inspected — the learner is honest about the future.
class WorldChangeModel {
 public:
  /// Returns InvalidArgument unless 0 < t0 <= world.horizon().
  static Result<WorldChangeModel> Learn(const world::World& world,
                                        TimePoint t0);

  TimePoint t0() const { return t0_; }
  const SubdomainChangeModel& subdomain(world::SubdomainId sub) const {
    return models_[sub];
  }
  std::size_t subdomain_count() const { return models_.size(); }

  /// Pools the models of several subdomains: lambdas and counts add;
  /// gammas combine as count-weighted averages.
  SubdomainChangeModel Aggregate(
      const std::vector<world::SubdomainId>& subs) const;

  /// E[|Omega|_t] over `subs` for t >= t0, by the paper's linear
  /// birth-death balance (Equation 14):
  ///   |Omega|_t0 + (t - t0) (lambda_i - lambda_d).
  double PredictCount(const std::vector<world::SubdomainId>& subs,
                      TimePoint t) const;

 private:
  WorldChangeModel(TimePoint t0, std::vector<SubdomainChangeModel> models)
      : t0_(t0), models_(std::move(models)) {}

  TimePoint t0_;
  std::vector<SubdomainChangeModel> models_;
};

}  // namespace freshsel::estimation
