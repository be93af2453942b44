// The scenario CSV readers as they were before io/scenario_io.cc moved to a
// single-buffer std::string_view parser: one std::getline per line and one
// Split per row, capture list and capture pair. They are kept verbatim (less
// the failpoints, spans and counters) as the oracle the fuzz suite compares
// the production readers against, with the same header range checks and
// messages.
#include "io/reference_scenario_reader.h"

#include <charconv>
#include <cstdint>
#include <fstream>
#include <limits>
#include <string>

#include "common/string_util.h"
#include "io/scenario_io.h"

namespace freshsel::io {

namespace {

Status ParseInt(const std::string& text, std::int64_t* out) {
  if (text.empty()) {
    return Status::InvalidArgument("expected integer, got empty field");
  }
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  if (ec != std::errc() || ptr != end) {
    return Status::InvalidArgument("malformed integer: " + text);
  }
  return Status::OK();
}

Result<std::vector<TimePoint>> ParseTimes(const std::string& text) {
  std::vector<TimePoint> times;
  if (text.empty()) return times;
  for (const std::string& part : Split(text, '|')) {
    std::int64_t value = 0;
    FRESHSEL_RETURN_IF_ERROR(ParseInt(part, &value));
    times.push_back(value);
  }
  return times;
}

}  // namespace

Result<world::World> ReferenceReadWorldCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("empty world file: " + path);
  }
  std::vector<std::string> header = Split(line, ',');
  if (header.size() != 6 || header[0] != "#world") {
    return Status::InvalidArgument("bad world header: " + line);
  }
  std::int64_t dim1_size = 0;
  std::int64_t dim2_size = 0;
  std::int64_t horizon = 0;
  FRESHSEL_RETURN_IF_ERROR(ParseInt(header[2], &dim1_size));
  FRESHSEL_RETURN_IF_ERROR(ParseInt(header[4], &dim2_size));
  FRESHSEL_RETURN_IF_ERROR(ParseInt(header[5], &horizon));
  for (int field : {2, 4}) {
    const std::int64_t size = field == 2 ? dim1_size : dim2_size;
    if (size < 0 || size > std::numeric_limits<std::uint32_t>::max()) {
      return Status::InvalidArgument("dimension size out of range: " +
                                     header[field]);
    }
  }
  if (horizon < 0) {
    return Status::InvalidArgument("negative horizon: " + header[5]);
  }
  if (horizon > kMaxWorldHorizon) {
    return Status::InvalidArgument("horizon out of range: " + header[5]);
  }
  FRESHSEL_ASSIGN_OR_RETURN(
      world::DataDomain domain,
      world::DataDomain::Create(header[1],
                                static_cast<std::uint32_t>(dim1_size),
                                header[3],
                                static_cast<std::uint32_t>(dim2_size)));
  if (domain.subdomain_count() > kMaxWorldSubdomains) {
    return Status::InvalidArgument(
        "too many subdomains: " + std::to_string(domain.subdomain_count()));
  }
  const std::int64_t cells =
      (static_cast<std::int64_t>(domain.subdomain_count()) + 1) *
      (horizon + 2);
  if (cells > kMaxWorldCountCells) {
    return Status::InvalidArgument("world count table too large: " +
                                   std::to_string(cells) + " cells");
  }
  world::World world(std::move(domain), horizon);

  if (!std::getline(in, line) ||
      line != "id,subdomain,birth,death,updates") {
    return Status::InvalidArgument("bad world column header");
  }
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<std::string> fields = Split(line, ',');
    if (fields.size() != 5) {
      return Status::InvalidArgument("bad world row: " + line);
    }
    world::EntityRecord record;
    std::int64_t value = 0;
    FRESHSEL_RETURN_IF_ERROR(ParseInt(fields[0], &value));
    record.id = static_cast<world::EntityId>(value);
    FRESHSEL_RETURN_IF_ERROR(ParseInt(fields[1], &value));
    record.subdomain = static_cast<world::SubdomainId>(value);
    FRESHSEL_RETURN_IF_ERROR(ParseInt(fields[2], &record.birth));
    if (fields[3].empty()) {
      record.death = world::kNever;
    } else {
      FRESHSEL_RETURN_IF_ERROR(ParseInt(fields[3], &record.death));
    }
    FRESHSEL_ASSIGN_OR_RETURN(record.update_times, ParseTimes(fields[4]));
    FRESHSEL_RETURN_IF_ERROR(world.AddEntity(std::move(record)));
  }
  FRESHSEL_RETURN_IF_ERROR(world.Finalize());
  return world;
}

Result<source::SourceHistory> ReferenceReadSourceHistoryCsv(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("empty source file: " + path);
  }
  std::vector<std::string> header = Split(line, ',');
  if (header.size() != 5 || header[0] != "#source") {
    return Status::InvalidArgument("bad source header: " + line);
  }
  source::SourceSpec spec;
  spec.name = header[1];
  FRESHSEL_RETURN_IF_ERROR(ParseInt(header[2], &spec.schedule.period));
  FRESHSEL_RETURN_IF_ERROR(ParseInt(header[3], &spec.schedule.phase));
  std::int64_t entity_count = 0;
  FRESHSEL_RETURN_IF_ERROR(ParseInt(header[4], &entity_count));
  if (entity_count < 0 ||
      entity_count > std::numeric_limits<world::EntityId>::max()) {
    return Status::InvalidArgument("entity count out of range: " + header[4]);
  }

  if (!std::getline(in, line)) {
    return Status::InvalidArgument("missing scope line");
  }
  std::vector<std::string> scope_fields = Split(line, ',');
  if (scope_fields.size() != 2 || scope_fields[0] != "#scope") {
    return Status::InvalidArgument("bad scope line: " + line);
  }
  if (!scope_fields[1].empty()) {
    for (const std::string& part : Split(scope_fields[1], '|')) {
      std::int64_t sub = 0;
      FRESHSEL_RETURN_IF_ERROR(ParseInt(part, &sub));
      spec.scope.push_back(static_cast<world::SubdomainId>(sub));
    }
  }

  source::SourceHistory history(std::move(spec),
                                static_cast<std::size_t>(entity_count));
  if (!std::getline(in, line) ||
      line != "entity,subdomain,inserted,deleted,captures") {
    return Status::InvalidArgument("bad source column header");
  }
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<std::string> fields = Split(line, ',');
    if (fields.size() != 5) {
      return Status::InvalidArgument("bad source row: " + line);
    }
    source::CaptureRecord record;
    std::vector<source::VersionCapture> captures;
    std::int64_t value = 0;
    FRESHSEL_RETURN_IF_ERROR(ParseInt(fields[0], &value));
    record.entity = static_cast<world::EntityId>(value);
    FRESHSEL_RETURN_IF_ERROR(ParseInt(fields[1], &value));
    record.subdomain = static_cast<world::SubdomainId>(value);
    FRESHSEL_RETURN_IF_ERROR(ParseInt(fields[2], &record.inserted));
    if (fields[3].empty()) {
      record.deleted = world::kNever;
    } else {
      FRESHSEL_RETURN_IF_ERROR(ParseInt(fields[3], &record.deleted));
    }
    if (!fields[4].empty()) {
      for (const std::string& pair : Split(fields[4], '|')) {
        std::vector<std::string> parts = Split(pair, ':');
        if (parts.size() != 2) {
          return Status::InvalidArgument("bad capture pair: " + pair);
        }
        std::int64_t version = 0;
        std::int64_t day = 0;
        FRESHSEL_RETURN_IF_ERROR(ParseInt(parts[0], &version));
        FRESHSEL_RETURN_IF_ERROR(ParseInt(parts[1], &day));
        captures.emplace_back(static_cast<std::uint32_t>(version), day);
      }
    }
    FRESHSEL_RETURN_IF_ERROR(history.AddRecord(record, captures));
  }
  return history;
}

}  // namespace freshsel::io
