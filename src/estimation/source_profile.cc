#include "estimation/source_profile.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "obs/macros.h"
#include "stats/kaplan_meier.h"

namespace freshsel::estimation {

double SourceProfile::LatestAcquisitionAt(double t,
                                          std::int64_t divisor) const {
  const double interval =
      update_interval * static_cast<double>(std::max<std::int64_t>(divisor, 1));
  const double anchor_d = static_cast<double>(anchor);
  // T_S(t) = floor((t - t_S0) f) / f + t_S0 with f = 1 / interval.
  return std::floor((t - anchor_d) / interval) * interval + anchor_d;
}

double SourceProfile::Effectiveness(const stats::StepFunction& g, double t,
                                    double event_time,
                                    std::int64_t divisor) const {
  const double latest = LatestAcquisitionAt(t, divisor);
  if (!(t >= latest) || latest < event_time) return 0.0;
  return g.Evaluate(latest - event_time);
}

namespace {

/// Finds the capture day of world version `version` in `captures`, or
/// kNever.
TimePoint VersionCaptureDay(source::CaptureRange captures,
                            std::uint32_t version) {
  for (const auto& [v, day] : captures) {
    if (v == version) return day;
  }
  return world::kNever;
}

}  // namespace

Result<SourceProfile> LearnSourceProfile(const world::World& world,
                                         const source::SourceHistory& history,
                                         TimePoint t0) {
  return LearnSourceProfile(world, history, t0, nullptr);
}

Result<SourceProfile> LearnSourceProfile(const world::World& world,
                                         const source::SourceHistory& history,
                                         TimePoint t0,
                                         SourceProfileFitStats* stats) {
  if (t0 <= 0 || t0 > world.horizon()) {
    return Status::InvalidArgument("t0 must be in (0, horizon]");
  }
  SourceProfile profile;
  profile.name = history.name();
  profile.sig_t0 = integration::BuildSignatures(world, history, t0);

  // Observed scope and the source's distinct content-update days within T,
  // marked in flat arrays over the world's subdomains and over days
  // [0, t0] (t0 <= horizon, so no longer than the world's own per-day
  // counts). The rare days before 0 a replayed file may carry are
  // deduplicated apart.
  const std::uint32_t subdomain_count = world.domain().subdomain_count();
  std::vector<char> in_scope(subdomain_count, 0);
  std::vector<char> is_update_day(static_cast<std::size_t>(t0) + 1, 0);
  std::vector<TimePoint> negative_update_days;
  std::size_t update_day_count = 0;
  TimePoint first_update_day = std::numeric_limits<TimePoint>::max();
  TimePoint last_update_day = std::numeric_limits<TimePoint>::min();
  auto mark_day = [&](TimePoint day) {
    first_update_day = std::min(first_update_day, day);
    last_update_day = std::max(last_update_day, day);
    if (day < 0) {
      negative_update_days.push_back(day);
    } else if (!is_update_day[static_cast<std::size_t>(day)]) {
      is_update_day[static_cast<std::size_t>(day)] = 1;
      ++update_day_count;
    }
  };
  for (const source::CaptureRecord& rec : history.records()) {
    bool seen_by_t0 = false;
    for (const auto& [version, day] : history.captures(rec)) {
      if (day <= t0) {
        mark_day(day);
        seen_by_t0 = true;
      }
    }
    if (rec.deleted != world::kNever && rec.deleted <= t0) {
      mark_day(rec.deleted);
      seen_by_t0 = true;
    }
    if (!seen_by_t0) continue;
    if (rec.subdomain >= subdomain_count) {
      return Status::InvalidArgument(
          "source '" + history.name() + "' carries entity " +
          std::to_string(rec.entity) + " in subdomain " +
          std::to_string(rec.subdomain) + ", outside the world's domain");
    }
    in_scope[rec.subdomain] = 1;
  }
  for (world::SubdomainId sub = 0; sub < subdomain_count; ++sub) {
    if (in_scope[sub]) profile.observed_scope.push_back(sub);
  }
  std::sort(negative_update_days.begin(), negative_update_days.end());
  update_day_count += static_cast<std::size_t>(
      std::unique(negative_update_days.begin(), negative_update_days.end()) -
      negative_update_days.begin());

  // Learned update interval u_S (mean gap between distinct update days) and
  // the anchor t_S0 (last observed update day).
  if (update_day_count >= 2) {
    const double span =
        static_cast<double>(last_update_day - first_update_day);
    profile.update_interval =
        span / static_cast<double>(update_day_count - 1);
  } else {
    profile.update_interval = 1.0;  // Fallback: assume daily refresh.
  }
  profile.anchor = update_day_count == 0 ? t0 : last_update_day;

  // Kaplan-Meier effectiveness distributions from exact + right-censored
  // delays (Section 4.1.2 / Figure 7).
  stats::KaplanMeierEstimator km_insert;
  stats::KaplanMeierEstimator km_update;
  stats::KaplanMeierEstimator km_delete;

  for (world::SubdomainId sub : profile.observed_scope) {
    for (world::EntityId id : world.EntitiesInSubdomain(sub)) {
      const world::EntityRecord& entity = world.entity(id);
      const source::CaptureRecord* rec = history.Find(id);

      // Insertion delays: appearances within (0, t0].
      if (entity.birth > 0 && entity.birth <= t0) {
        if (rec != nullptr && rec->inserted <= t0) {
          km_insert.Add(rec->inserted - entity.birth, true);
        } else {
          km_insert.Add(t0 - entity.birth, false);
        }
      }

      if (rec == nullptr) continue;  // G_d / G_u are conditional on mention.

      // Deletion delays: disappearances within (0, t0] of mentioned
      // entities.
      if (entity.death != world::kNever && entity.death > 0 &&
          entity.death <= t0) {
        if (rec->deleted != world::kNever && rec->deleted <= t0) {
          km_delete.Add(rec->deleted - entity.death, true);
        } else {
          km_delete.Add(t0 - entity.death, false);
        }
      }

      // Value-update delays: world updates within (0, t0] of mentioned
      // entities.
      const source::CaptureRange captures = history.captures(*rec);
      std::uint32_t version = 0;
      for (TimePoint u : entity.update_times) {
        ++version;
        if (u <= 0 || u > t0) continue;
        const TimePoint day = VersionCaptureDay(captures, version);
        if (day != world::kNever && day <= t0) {
          km_update.Add(day - u, true);
        } else {
          km_update.Add(t0 - u, false);
        }
      }
    }
  }

  if (stats != nullptr) {
    stats->insert_samples = km_insert.sample_size();
    stats->insert_events = km_insert.observed_events();
    stats->update_samples = km_update.sample_size();
    stats->update_events = km_update.observed_events();
    stats->delete_samples = km_delete.sample_size();
    stats->delete_events = km_delete.observed_events();
  }

  auto fit_or_zero =
      [](const stats::KaplanMeierEstimator& km) -> stats::StepFunction {
    if (km.sample_size() == 0) return stats::StepFunction::Constant(0.0);
    FRESHSEL_OBS_COUNT("estimation.km.fits", 1);
    Result<stats::StepFunction> fitted = km.Fit();
    return fitted.ok() ? *fitted : stats::StepFunction::Constant(0.0);
  };
  profile.g_insert = fit_or_zero(km_insert);
  profile.g_update = fit_or_zero(km_update);
  profile.g_delete = fit_or_zero(km_delete);
  return profile;
}

Result<std::vector<SourceProfile>> LearnSourceProfiles(
    const world::World& world,
    const std::vector<source::SourceHistory>& histories, TimePoint t0) {
  FRESHSEL_TRACE_SPAN("estimation/learn_profiles");
  FRESHSEL_OBS_SCOPED_LATENCY("estimation.learn_profiles.seconds");
  std::vector<SourceProfile> profiles;
  profiles.reserve(histories.size());
  for (const source::SourceHistory& history : histories) {
    FRESHSEL_ASSIGN_OR_RETURN(SourceProfile profile,
                              LearnSourceProfile(world, history, t0));
    profiles.push_back(std::move(profile));
  }
  return profiles;
}

}  // namespace freshsel::estimation
