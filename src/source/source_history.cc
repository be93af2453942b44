#include "source/source_history.h"

#include <algorithm>
#include <cstdint>
#include <limits>

namespace freshsel::source {

// The captures live in the history's flat array, so a record is a fixed
// 32 bytes with no heap block of its own.
static_assert(sizeof(CaptureRecord) == 32);

SourceHistory::SourceHistory(SourceSpec spec, std::size_t world_entity_count)
    : spec_(std::move(spec)), entity_index_(world_entity_count, -1) {}

Status SourceHistory::AddRecord(const CaptureRecord& header,
                                const std::vector<VersionCapture>& captures) {
  captures_.insert(captures_.end(), captures.begin(), captures.end());
  return CommitRecord(header);
}

Status SourceHistory::CommitRecord(const CaptureRecord& header) {
  const std::size_t first = committed_captures();
  auto refuse = [&](const char* message) {
    captures_.resize(first);
    return Status::InvalidArgument(message);
  };
  if (header.inserted == world::kNever) {
    captures_.resize(first);
    return Status::OK();
  }
  if (header.entity >= entity_index_.size()) {
    return refuse("entity id out of range");
  }
  if (entity_index_[header.entity] >= 0) {
    return refuse("duplicate capture record for entity");
  }
  if (records_.size() >=
          static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()) ||
      captures_.size() > std::numeric_limits<std::uint32_t>::max()) {
    return refuse("too many capture records in one source");
  }
  entity_index_[header.entity] = static_cast<std::int32_t>(records_.size());
  CaptureRecord& rec = records_.emplace_back(header);
  rec.first_capture = static_cast<std::uint32_t>(first);
  rec.capture_count = static_cast<std::uint32_t>(captures_.size() - first);
  return Status::OK();
}

void SourceHistory::Reserve(std::size_t records, std::size_t captures) {
  records_.reserve(records);
  captures_.reserve(captures);
}

const CaptureRecord* SourceHistory::Find(world::EntityId entity) const {
  if (entity >= entity_index_.size()) return nullptr;
  const std::int32_t index = entity_index_[entity];
  return index < 0 ? nullptr : &records_[static_cast<std::size_t>(index)];
}

std::int64_t SourceHistory::ContentCountAt(TimePoint t) const {
  std::int64_t count = 0;
  for (const CaptureRecord& rec : records_) {
    if (rec.ContainsAt(t)) ++count;
  }
  return count;
}

SourceHistory SourceHistory::RestrictedTo(
    const std::vector<world::SubdomainId>& subdomains,
    const std::string& suffix) const {
  SourceSpec new_spec = spec_;
  new_spec.name += suffix;
  new_spec.scope.clear();
  for (world::SubdomainId sub : spec_.scope) {
    if (std::find(subdomains.begin(), subdomains.end(), sub) !=
        subdomains.end()) {
      new_spec.scope.push_back(sub);
    }
  }
  SourceHistory out(std::move(new_spec), entity_index_.size());
  for (const CaptureRecord& rec : records_) {
    if (std::find(subdomains.begin(), subdomains.end(), rec.subdomain) ==
        subdomains.end()) {
      continue;
    }
    const CaptureRange captures = this->captures(rec);
    out.captures_.insert(out.captures_.end(), captures.begin(),
                         captures.end());
    Status status = out.CommitRecord(rec);
    (void)status;  // Ids are unique by construction.
  }
  return out;
}

SourceHistory SourceHistory::WithAcquisitionDivisor(
    std::int64_t divisor) const {
  SourceSpec new_spec = spec_;
  new_spec.schedule = spec_.schedule.WithDivisor(divisor);
  SourceHistory out(new_spec, entity_index_.size());
  const UpdateSchedule& acq = new_spec.schedule;
  auto realign = [&](TimePoint day) {
    if (day == world::kNever) return world::kNever;
    return acq.NextUpdateAtOrAfter(day);
  };
  for (const CaptureRecord& rec : records_) {
    CaptureRecord aligned;
    aligned.entity = rec.entity;
    aligned.subdomain = rec.subdomain;
    aligned.deleted = realign(rec.deleted);
    const std::size_t first = out.captures_.size();
    for (const auto& [version, day] : captures(rec)) {
      const TimePoint new_day = realign(day);
      if (new_day >= aligned.deleted) continue;  // Deleted before acquired.
      out.AppendCapture(version, new_day);
    }
    const auto pending = out.captures_.begin() +
                         static_cast<std::ptrdiff_t>(first);
    std::sort(pending, out.captures_.end(),
              [](const VersionCapture& a, const VersionCapture& b) {
                return a.second < b.second;
              });
    // Never acquired when no capture survives: the commit drops the record.
    aligned.inserted =
        pending == out.captures_.end() ? world::kNever : pending->second;
    // CommitRecord cannot fail here: ids are in range and unique by
    // construction.
    Status status = out.CommitRecord(aligned);
    (void)status;
  }
  return out;
}

}  // namespace freshsel::source
