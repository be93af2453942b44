#include "world/world.h"

#include <algorithm>
#include <cstdint>

#include "common/check.h"
#include "common/string_util.h"

namespace freshsel::world {

World::World(DataDomain domain, TimePoint horizon)
    : domain_(std::move(domain)),
      horizon_(horizon),
      by_subdomain_(domain_.subdomain_count()) {}

Status World::AddEntity(EntityRecord record) {
  if (finalized_) {
    return Status::FailedPrecondition("World already finalized");
  }
  if (record.id != entities_.size()) {
    return Status::InvalidArgument(StringPrintf(
        "entity ids must be dense: expected %zu, got %u", entities_.size(),
        record.id));
  }
  if (record.subdomain >= domain_.subdomain_count()) {
    return Status::InvalidArgument("subdomain out of range");
  }
  if (record.death != kNever && record.death <= record.birth) {
    return Status::InvalidArgument("death must follow birth");
  }
  TimePoint prev = record.birth;
  for (TimePoint u : record.update_times) {
    if (u <= prev) {
      return Status::InvalidArgument(
          "updates must be strictly increasing and after birth");
    }
    if (record.death != kNever && u >= record.death) {
      return Status::InvalidArgument("updates must precede death");
    }
    prev = u;
  }
  by_subdomain_[record.subdomain].push_back(record.id);
  entities_.push_back(std::move(record));
  return Status::OK();
}

Status World::Finalize() {
  if (finalized_) return Status::OK();
  const std::size_t days = static_cast<std::size_t>(horizon_) + 1;
  counts_.assign(domain_.subdomain_count(), {});
  for (auto& per_day : counts_) per_day.assign(days + 1, 0);
  total_counts_.assign(days + 1, 0);

  for (const EntityRecord& e : entities_) {
    // Difference array for interval [birth, min(death, horizon+1)).
    const TimePoint lo = std::max<TimePoint>(e.birth, 0);
    const TimePoint hi =
        e.death == kNever ? horizon_ + 1 : std::min(e.death, horizon_ + 1);
    if (lo < hi && lo <= horizon_) {
      counts_[e.subdomain][static_cast<std::size_t>(lo)] += 1;
      counts_[e.subdomain][static_cast<std::size_t>(hi)] -= 1;
    }
  }
  // Prefix-sum the difference arrays into per-day populations.
  for (std::uint32_t sub = 0; sub < domain_.subdomain_count(); ++sub) {
    std::int32_t running = 0;
    for (std::size_t d = 0; d <= days; ++d) {
      running += counts_[sub][d];
      counts_[sub][d] = running;
      if (d < days) total_counts_[d] += running;
    }
  }
  finalized_ = true;
  return Status::OK();
}

const std::vector<EntityId>& World::EntitiesInSubdomain(
    SubdomainId sub) const {
  FRESHSEL_CHECK(sub < by_subdomain_.size())
      << "subdomain " << sub << " out of range ("
      << by_subdomain_.size() << ")";
  return by_subdomain_[sub];
}

TimePoint World::ClampDay(TimePoint t) const {
  if (t < 0) return 0;
  if (t > horizon_) return horizon_;
  return t;
}

std::int64_t World::CountAt(SubdomainId sub, TimePoint t) const {
  FRESHSEL_CHECK(finalized_) << "CountAt before World::Finalize";
  FRESHSEL_CHECK(sub < counts_.size())
      << "subdomain " << sub << " out of range (" << counts_.size() << ")";
  return counts_[sub][static_cast<std::size_t>(ClampDay(t))];
}

std::int64_t World::CountAtIn(const std::vector<SubdomainId>& subs,
                              TimePoint t) const {
  std::int64_t total = 0;
  for (SubdomainId sub : subs) total += CountAt(sub, t);
  return total;
}

std::int64_t World::TotalCountAt(TimePoint t) const {
  return total_counts_[static_cast<std::size_t>(ClampDay(t))];
}

}  // namespace freshsel::world
