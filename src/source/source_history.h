#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/time_types.h"
#include "source/source_spec.h"
#include "world/entity.h"

namespace freshsel::source {

/// One value version a source captured: (world version, capture day).
/// Version 0 is the appearance value.
using VersionCapture = std::pair<std::uint32_t, TimePoint>;

/// A read-only view of consecutive captures, such as one record's captures
/// inside its SourceHistory. Valid until the history it points into is
/// modified or destroyed. (A pointer pair rather than std::span: this
/// header also compiles as C++17.)
class CaptureRange {
 public:
  CaptureRange(const VersionCapture* begin, const VersionCapture* end)
      : begin_(begin), end_(end) {}
  explicit CaptureRange(const std::vector<VersionCapture>& captures)
      : CaptureRange(captures.data(), captures.data() + captures.size()) {}

  const VersionCapture* begin() const { return begin_; }
  const VersionCapture* end() const { return end_; }
  std::size_t size() const { return static_cast<std::size_t>(end_ - begin_); }

 private:
  const VersionCapture* begin_;
  const VersionCapture* end_;
};

/// Highest world version among `captures` (sorted by capture day) captured
/// by day t: the version a source displays at t.
inline std::uint32_t KnownVersionAt(CaptureRange captures, TimePoint t) {
  std::uint32_t version = 0;
  for (const auto& [v, day] : captures) {
    if (day > t) break;
    if (v > version) version = v;
  }
  return version;
}

/// The observed stream of one entity in one source: when the source first
/// carried it, when it removed it, and (through SourceHistory::captures)
/// which world versions it captured on which days.
struct CaptureRecord {
  world::EntityId entity = 0;
  /// Subdomain of the entity (an observable attribute of the data item,
  /// e.g. a listing's (location, category) pair).
  world::SubdomainId subdomain = 0;
  /// Day the entity first appeared in the source's content; world::kNever if
  /// the source never picked it up.
  TimePoint inserted = world::kNever;
  /// Day the source removed the entity; world::kNever if never removed.
  TimePoint deleted = world::kNever;
  /// The record's captures are [first_capture, first_capture +
  /// capture_count) of its history's capture array, sorted by capture day.
  /// Set by SourceHistory; read them through SourceHistory::captures().
  std::uint32_t first_capture = 0;
  std::uint32_t capture_count = 0;

  bool ContainsAt(TimePoint t) const { return inserted <= t && t < deleted; }
};

/// A source's complete simulated (or replayed) history plus its ground-truth
/// spec: the "daily snapshots" substrate of the paper - the source's content
/// at any day t is derivable from these capture times. The records and all
/// their captures live in two flat arrays, so a history of N records costs
/// two allocations, not N. Entity lookups are O(1) via a dense index over
/// world entity ids.
class SourceHistory {
 public:
  /// `world_entity_count` sizes the entity -> record index.
  SourceHistory(SourceSpec spec, std::size_t world_entity_count);

  const SourceSpec& spec() const { return spec_; }
  const std::string& name() const { return spec_.name; }
  const UpdateSchedule& schedule() const { return spec_.schedule; }

  /// Adds the record `header` with `captures` (sorted by capture day); the
  /// header's capture offsets are ignored. A record with inserted == kNever
  /// is skipped (the entity never made it into the source). Returns
  /// InvalidArgument on an out-of-range or duplicate entity.
  Status AddRecord(const CaptureRecord& header,
                   const std::vector<VersionCapture>& captures);

  /// AddRecord in two steps, for readers that parse captures straight into
  /// the history: AppendCapture() each capture of the record, then
  /// CommitRecord(header) adds the record with every capture appended since
  /// the last commit. A commit that skips or refuses the record drops them.
  void AppendCapture(std::uint32_t version, TimePoint day) {
    captures_.emplace_back(version, day);
  }
  Status CommitRecord(const CaptureRecord& header);

  /// Pre-sizes the record and capture arrays.
  void Reserve(std::size_t records, std::size_t captures);

  const std::vector<CaptureRecord>& records() const { return records_; }

  /// The captures of `rec`, one of this history's records.
  CaptureRange captures(const CaptureRecord& rec) const {
    const VersionCapture* first = captures_.data() + rec.first_capture;
    return {first, first + rec.capture_count};
  }

  /// nullptr when the source never carried `entity`.
  const CaptureRecord* Find(world::EntityId entity) const;

  bool ContainsAt(world::EntityId entity, TimePoint t) const {
    const CaptureRecord* rec = Find(entity);
    return rec != nullptr && rec->ContainsAt(t);
  }

  /// Number of entities in the source's content at day t.
  std::int64_t ContentCountAt(TimePoint t) const;

  /// The micro-source covering only `subdomains` (the slice decomposition
  /// of Definition 5 / the BL+ datasets): keeps the records whose entity
  /// lies in the given subdomains, with the scope restricted accordingly
  /// and `suffix` appended to the name.
  SourceHistory RestrictedTo(const std::vector<world::SubdomainId>& subdomains,
                             const std::string& suffix) const;

  /// Re-aligns every capture day to the coarser acquisition schedule of
  /// taking only every `divisor`-th source update: the history an integrator
  /// sees when it deliberately acquires the source at frequency f_S/divisor
  /// (Example 4 / Definition 4). Pre: divisor >= 1.
  SourceHistory WithAcquisitionDivisor(std::int64_t divisor) const;

  std::size_t world_entity_count() const { return entity_index_.size(); }

 private:
  /// Captures owned by committed records; the rest are pending.
  std::size_t committed_captures() const {
    return records_.empty() ? 0
                            : std::size_t{records_.back().first_capture} +
                                  records_.back().capture_count;
  }

  SourceSpec spec_;
  std::vector<CaptureRecord> records_;
  // Offsets, not pointers, so that the default copy and move stay correct.
  std::vector<VersionCapture> captures_;
  std::vector<std::int32_t> entity_index_;  // entity id -> records_ index.
};

}  // namespace freshsel::source
