#include "source/source_simulator.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace freshsel::source {

namespace {

Status ValidateSpec(const SourceSpec& spec, const world::World& world) {
  if (spec.scope.empty()) {
    return Status::InvalidArgument("source scope must be non-empty");
  }
  for (world::SubdomainId sub : spec.scope) {
    if (sub >= world.domain().subdomain_count()) {
      return Status::InvalidArgument("scope subdomain out of range");
    }
  }
  if (spec.schedule.period < 1) {
    return Status::InvalidArgument("schedule period must be >= 1");
  }
  if (spec.schedule.phase < 0 || spec.schedule.phase >= spec.schedule.period) {
    return Status::InvalidArgument("schedule phase must be in [0, period)");
  }
  for (const CaptureSpec* cap :
       {&spec.insert_capture, &spec.update_capture, &spec.delete_capture}) {
    if (cap->miss_prob < 0.0 || cap->miss_prob > 1.0) {
      return Status::InvalidArgument("miss_prob must be in [0, 1]");
    }
    if (cap->delay_mean_days < 0.0) {
      return Status::InvalidArgument("delay_mean_days must be >= 0");
    }
  }
  if (spec.initial_awareness < 0.0 || spec.initial_awareness > 1.0) {
    return Status::InvalidArgument("initial_awareness must be in [0, 1]");
  }
  if (spec.visibility < 0.0 || spec.visibility > 1.0) {
    return Status::InvalidArgument("visibility must be in [0, 1]");
  }
  return Status::OK();
}

/// The entity's fixed obscurity in [0, 1): a SplitMix64 hash of the id, so
/// every source agrees on which entities are hard to find.
double Obscurity(world::EntityId id) {
  std::uint64_t x = static_cast<std::uint64_t>(id) + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

}  // namespace

Result<SourceHistory> SimulateSource(const world::World& world,
                                     const SourceSpec& spec, Rng& rng) {
  FRESHSEL_RETURN_IF_ERROR(ValidateSpec(spec, world));

  SourceHistory history(spec, world.entity_count());
  const UpdateSchedule& schedule = spec.schedule;
  const TimePoint horizon = world.horizon();

  // Returns the publication day for a change occurring at `event_time`, or
  // kNever when missed / beyond the horizon.
  auto capture_day = [&](TimePoint event_time,
                         const CaptureSpec& cap) -> TimePoint {
    if (rng.Bernoulli(cap.miss_prob)) return world::kNever;
    double delay = cap.delay_mean_days > 0.0
                       ? rng.Exponential(1.0 / cap.delay_mean_days)
                       : 0.0;
    const double notice = static_cast<double>(event_time) + delay;
    const TimePoint day =
        schedule.NextUpdateAtOrAfter(static_cast<TimePoint>(std::ceil(notice)));
    return day > horizon ? world::kNever : day;
  };

  // One scratch list for every record: AddRecord copies it into the
  // history's flat capture array.
  std::vector<VersionCapture> captures;
  for (world::SubdomainId sub : spec.scope) {
    for (world::EntityId id : world.EntitiesInSubdomain(sub)) {
      if (Obscurity(id) >= spec.visibility) continue;  // Too hard to find.
      const world::EntityRecord& entity = world.entity(id);
      CaptureRecord record;
      record.entity = id;
      record.subdomain = sub;

      // Appearance (version 0).
      TimePoint appear_capture;
      if (entity.birth <= 0 && rng.Bernoulli(spec.initial_awareness)) {
        appear_capture = 0;  // Seeded content at the start of observation.
      } else {
        appear_capture = capture_day(entity.birth, spec.insert_capture);
      }

      // Deletion.
      if (entity.death != world::kNever) {
        record.deleted = capture_day(entity.death, spec.delete_capture);
      }

      // Value updates.
      captures.clear();
      if (appear_capture != world::kNever &&
          appear_capture < record.deleted) {
        captures.emplace_back(0, appear_capture);
      }
      std::uint32_t version = 0;
      for (TimePoint update_time : entity.update_times) {
        ++version;
        const TimePoint day = capture_day(update_time, spec.update_capture);
        if (day == world::kNever || day >= record.deleted) continue;
        captures.emplace_back(version, day);
      }
      if (captures.empty()) continue;  // Never in the source.

      std::sort(captures.begin(), captures.end(),
                [](const auto& a, const auto& b) {
                  if (a.second != b.second) return a.second < b.second;
                  return a.first < b.first;
                });
      record.inserted = captures.front().second;
      FRESHSEL_RETURN_IF_ERROR(history.AddRecord(record, captures));
    }
  }
  return history;
}

Result<std::vector<SourceHistory>> SimulateSources(
    const world::World& world, const std::vector<SourceSpec>& specs,
    Rng& rng) {
  std::vector<SourceHistory> histories;
  histories.reserve(specs.size());
  for (const SourceSpec& spec : specs) {
    Rng child = rng.Fork();
    FRESHSEL_ASSIGN_OR_RETURN(SourceHistory history,
                              SimulateSource(world, spec, child));
    histories.push_back(std::move(history));
  }
  return histories;
}

}  // namespace freshsel::source
