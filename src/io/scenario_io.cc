#include "io/scenario_io.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <ostream>
#include <string_view>
#include <system_error>

#include "common/check.h"
#include "fault/failpoint.h"
#include "obs/macros.h"

namespace freshsel::io {

namespace {

/// Reads the whole of `path` into `out`. False when it cannot be opened; a
/// read error ends the contents early, as it would end std::getline.
bool ReadWholeFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::error_code size_error;
  const std::uintmax_t size = std::filesystem::file_size(path, size_error);
  if (!size_error) out->reserve(static_cast<std::size_t>(size));
  char chunk[1 << 16];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    out->append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  return true;
}

/// Walks a buffer line by line exactly as std::getline walks a stream: a
/// last line without '\n' still counts, a final '\n' opens no empty line,
/// and '\r' stays part of its line.
class LineCursor {
 public:
  explicit LineCursor(std::string_view text) : rest_(text) {}

  bool Next(std::string_view* line) {
    if (rest_.empty()) return false;
    const std::size_t end = rest_.find('\n');
    *line = rest_.substr(0, end);
    rest_.remove_prefix(end == std::string_view::npos ? rest_.size()
                                                      : end + 1);
    return true;
  }

 private:
  std::string_view rest_;
};

/// Splits `text` at every `separator`, keeping empty fields as Split does.
/// Stores the first N fields and returns how many there are in all.
template <std::size_t N>
std::size_t SplitFields(std::string_view text, char separator,
                        std::array<std::string_view, N>* fields) {
  std::size_t count = 0;
  while (true) {
    const std::size_t pos = text.find(separator);
    if (count < N) (*fields)[count] = text.substr(0, pos);
    ++count;
    if (pos == std::string_view::npos) return count;
    text.remove_prefix(pos + 1);
  }
}

/// Calls `fn` on each `separator`-delimited part of `text`, empty parts
/// included, and stops at the first error.
template <typename Fn>
Status ForEachPart(std::string_view text, char separator, Fn&& fn) {
  while (true) {
    const std::size_t pos = text.find(separator);
    FRESHSEL_RETURN_IF_ERROR(fn(text.substr(0, pos)));
    if (pos == std::string_view::npos) return Status::OK();
    text.remove_prefix(pos + 1);
  }
}

Status ParseInt(std::string_view text, std::int64_t* out) {
  if (text.empty()) {
    return Status::InvalidArgument("expected integer, got empty field");
  }
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  if (ec != std::errc() || ptr != end) {
    return Status::InvalidArgument("malformed integer: " + std::string(text));
  }
  return Status::OK();
}

/// Writes `values` to `out` separated by '|'.
template <typename T>
void WriteBarList(std::ostream& out, const std::vector<T>& values) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out << '|';
    out << values[i];
  }
}

/// How many times `c` occurs in `text`. Byte-wide counts over blocks of
/// at most 255 bytes let the compiler vectorize the inner loop; this runs
/// several times faster than std::count, which GCC 12 leaves scalar here.
std::size_t CountByte(std::string_view text, char c) {
  std::size_t total = 0;
  while (!text.empty()) {
    const std::size_t block = std::min<std::size_t>(text.size(), 255);
    std::uint8_t count = 0;
    for (std::size_t i = 0; i < block; ++i) count += text[i] == c ? 1 : 0;
    total += count;
    text.remove_prefix(block);
  }
  return total;
}

/// How many parts ForEachPart visits in `text`.
std::size_t PartCount(std::string_view text, char separator) {
  return static_cast<std::size_t>(
             std::count(text.begin(), text.end(), separator)) +
         1;
}

/// Parses a '|'-separated day list; empty text is the empty list.
Status ParseTimes(std::string_view text, std::vector<TimePoint>* times) {
  if (text.empty()) return Status::OK();
  times->reserve(PartCount(text, '|'));
  return ForEachPart(text, '|', [times](std::string_view part) {
    std::int64_t value = 0;
    FRESHSEL_RETURN_IF_ERROR(ParseInt(part, &value));
    times->push_back(value);
    return Status::OK();
  });
}

/// Parses an integer that fills all of [begin, end).
bool ParseWholeInt(const char* begin, const char* end, std::int64_t* out) {
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

/// The error for a capture pair that AppendCaptures could not parse: the
/// checks of the pair grammar, in the order the line reader makes them.
Status CapturePairError(std::string_view pair) {
  const std::size_t colon = pair.find(':');
  if (colon != std::string_view::npos &&
      pair.find(':', colon + 1) == std::string_view::npos) {
    std::int64_t value = 0;
    FRESHSEL_RETURN_IF_ERROR(ParseInt(pair.substr(0, colon), &value));
    FRESHSEL_RETURN_IF_ERROR(ParseInt(pair.substr(colon + 1), &value));
  }
  return Status::InvalidArgument("bad capture pair: " + std::string(pair));
}

/// Appends the captures of a non-empty '|'-separated version:day list to
/// `history`'s pending captures in one pass, and builds a Status only on
/// failure. A pair parses when its first ':' splits it into two integers
/// that fill their halves, which leaves no room for a second ':'.
Status AppendCaptures(std::string_view text, source::SourceHistory* history) {
  const char* part = text.data();
  const char* const end = part + text.size();
  while (true) {
    const char* part_end = static_cast<const char*>(
        std::memchr(part, '|', static_cast<std::size_t>(end - part)));
    if (part_end == nullptr) part_end = end;
    const char* colon = static_cast<const char*>(
        std::memchr(part, ':', static_cast<std::size_t>(part_end - part)));
    std::int64_t version = 0;
    std::int64_t day = 0;
    if (colon == nullptr || !ParseWholeInt(part, colon, &version) ||
        !ParseWholeInt(colon + 1, part_end, &day)) {
      return CapturePairError(
          std::string_view(part, static_cast<std::size_t>(part_end - part)));
    }
    history->AppendCapture(static_cast<std::uint32_t>(version), day);
    if (part_end == end) return Status::OK();
    part = part_end + 1;
  }
}

/// Range checks on header fields that size in-memory tables: a value
/// outside its type would wrap into a huge allocation.
Status CheckDimensionSize(std::string_view text, std::int64_t size) {
  if (size < 0 || size > std::numeric_limits<std::uint32_t>::max()) {
    return Status::InvalidArgument("dimension size out of range: " +
                                   std::string(text));
  }
  return Status::OK();
}

}  // namespace

Status WriteWorldCsv(const world::World& world, const std::string& path) {
  FRESHSEL_TRACE_SPAN("io/write_world_csv");
  FRESHSEL_OBS_SCOPED_LATENCY("io.write_world.seconds");
  FRESHSEL_FAILPOINT_RETURN(
      "io.write", Status::Unavailable("injected fault: io.write " + path));
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  const world::DataDomain& domain = world.domain();
  out << "#world," << domain.dim1_name() << ',' << domain.dim1_size() << ','
      << domain.dim2_name() << ',' << domain.dim2_size() << ','
      << world.horizon() << '\n';
  out << "id,subdomain,birth,death,updates\n";
  for (const world::EntityRecord& entity : world.entities()) {
    // A record violating the lifespan invariant means the in-memory world is
    // corrupt; refuse to persist it rather than round-trip garbage.
    FRESHSEL_DCHECK(entity.death == world::kNever ||
                    entity.death >= entity.birth);
    out << entity.id << ',' << entity.subdomain << ',' << entity.birth
        << ',';
    if (entity.death != world::kNever) out << entity.death;
    out << ',';
    WriteBarList(out, entity.update_times);
    out << '\n';
    FRESHSEL_OBS_COUNT("io.world_rows.written", 1);
  }
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<world::World> ReadWorldCsv(const std::string& path) {
  FRESHSEL_TRACE_SPAN("io/read_world_csv");
  FRESHSEL_OBS_SCOPED_LATENCY("io.read_world.seconds");
  FRESHSEL_FAILPOINT_RETURN(
      "io.read", Status::Unavailable("injected fault: io.read " + path));
  // Every view below points into `buffer`, which outlives them all.
  std::string buffer;
  if (!ReadWholeFile(path, &buffer)) {
    return Status::IoError("cannot open for reading: " + path);
  }
  LineCursor lines(buffer);
  std::string_view line;
  if (!lines.Next(&line)) {
    return Status::InvalidArgument("empty world file: " + path);
  }
  std::array<std::string_view, 6> header;
  if (SplitFields(line, ',', &header) != 6 || header[0] != "#world") {
    return Status::InvalidArgument("bad world header: " + std::string(line));
  }
  std::int64_t dim1_size = 0;
  std::int64_t dim2_size = 0;
  std::int64_t horizon = 0;
  FRESHSEL_RETURN_IF_ERROR(ParseInt(header[2], &dim1_size));
  FRESHSEL_RETURN_IF_ERROR(ParseInt(header[4], &dim2_size));
  FRESHSEL_RETURN_IF_ERROR(ParseInt(header[5], &horizon));
  FRESHSEL_RETURN_IF_ERROR(CheckDimensionSize(header[2], dim1_size));
  FRESHSEL_RETURN_IF_ERROR(CheckDimensionSize(header[4], dim2_size));
  if (horizon < 0) {
    return Status::InvalidArgument("negative horizon: " +
                                   std::string(header[5]));
  }
  if (horizon > kMaxWorldHorizon) {
    return Status::InvalidArgument("horizon out of range: " +
                                   std::string(header[5]));
  }
  FRESHSEL_ASSIGN_OR_RETURN(
      world::DataDomain domain,
      world::DataDomain::Create(std::string(header[1]),
                                static_cast<std::uint32_t>(dim1_size),
                                std::string(header[3]),
                                static_cast<std::uint32_t>(dim2_size)));
  if (domain.subdomain_count() > kMaxWorldSubdomains) {
    return Status::InvalidArgument(
        "too many subdomains: " + std::to_string(domain.subdomain_count()));
  }
  // Both factors are bounded above, so the product cannot overflow.
  const std::int64_t cells =
      (static_cast<std::int64_t>(domain.subdomain_count()) + 1) *
      (horizon + 2);
  if (cells > kMaxWorldCountCells) {
    return Status::InvalidArgument("world count table too large: " +
                                   std::to_string(cells) + " cells");
  }
  world::World world(std::move(domain), horizon);

  if (!lines.Next(&line) || line != "id,subdomain,birth,death,updates") {
    return Status::InvalidArgument("bad world column header");
  }
  std::uint64_t rows = 0;
  std::array<std::string_view, 5> fields;
  while (lines.Next(&line)) {
    if (line.empty()) continue;
    if (SplitFields(line, ',', &fields) != 5) {
      return Status::InvalidArgument("bad world row: " + std::string(line));
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
    FRESHSEL_RETURN_IF_ERROR(ParseTimes(fields[4], &record.update_times));
    FRESHSEL_RETURN_IF_ERROR(world.AddEntity(std::move(record)));
    ++rows;
  }
  FRESHSEL_RETURN_IF_ERROR(world.Finalize());
  FRESHSEL_OBS_COUNT("io.world_rows.read", rows);
  return world;
}

Status WriteSourceHistoryCsv(const source::SourceHistory& history,
                             const std::string& path) {
  FRESHSEL_TRACE_SPAN("io/write_source_csv");
  FRESHSEL_FAILPOINT_RETURN(
      "io.write", Status::Unavailable("injected fault: io.write " + path));
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  const source::SourceSpec& spec = history.spec();
  out << "#source," << spec.name << ',' << spec.schedule.period << ','
      << spec.schedule.phase << ',' << history.world_entity_count() << '\n';
  out << "#scope,";
  WriteBarList(out, spec.scope);
  out << '\n';
  out << "entity,subdomain,inserted,deleted,captures\n";
  for (const source::CaptureRecord& rec : history.records()) {
    out << rec.entity << ',' << rec.subdomain << ',' << rec.inserted << ',';
    if (rec.deleted != world::kNever) out << rec.deleted;
    out << ',';
    const char* separator = "";
    for (const auto& [version, day] : history.captures(rec)) {
      out << separator << version << ':' << day;
      separator = "|";
    }
    out << '\n';
  }
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

namespace {

/// ReadSourceHistoryCsv; when `world_entity_count` is set, a file whose
/// entity count differs is refused before the index is sized.
Result<source::SourceHistory> ReadSourceHistory(
    const std::string& path, const std::size_t* world_entity_count) {
  FRESHSEL_TRACE_SPAN("io/read_source_csv");
  FRESHSEL_FAILPOINT_RETURN(
      "io.read", Status::Unavailable("injected fault: io.read " + path));
  // Every view below points into `buffer`, which outlives them all.
  std::string buffer;
  if (!ReadWholeFile(path, &buffer)) {
    return Status::IoError("cannot open for reading: " + path);
  }
  LineCursor lines(buffer);
  std::string_view line;
  if (!lines.Next(&line)) {
    return Status::InvalidArgument("empty source file: " + path);
  }
  std::array<std::string_view, 5> header;
  if (SplitFields(line, ',', &header) != 5 || header[0] != "#source") {
    return Status::InvalidArgument("bad source header: " + std::string(line));
  }
  source::SourceSpec spec;
  spec.name = std::string(header[1]);
  FRESHSEL_RETURN_IF_ERROR(ParseInt(header[2], &spec.schedule.period));
  FRESHSEL_RETURN_IF_ERROR(ParseInt(header[3], &spec.schedule.phase));
  std::int64_t entity_count = 0;
  FRESHSEL_RETURN_IF_ERROR(ParseInt(header[4], &entity_count));
  if (entity_count < 0 ||
      entity_count > std::numeric_limits<world::EntityId>::max()) {
    return Status::InvalidArgument("entity count out of range: " +
                                   std::string(header[4]));
  }
  if (world_entity_count != nullptr &&
      static_cast<std::size_t>(entity_count) != *world_entity_count) {
    return Status::InvalidArgument(
        "source entity count " + std::string(header[4]) +
        " differs from the world's " + std::to_string(*world_entity_count) +
        ": " + path);
  }

  if (!lines.Next(&line)) {
    return Status::InvalidArgument("missing scope line");
  }
  std::array<std::string_view, 2> scope_fields;
  if (SplitFields(line, ',', &scope_fields) != 2 ||
      scope_fields[0] != "#scope") {
    return Status::InvalidArgument("bad scope line: " + std::string(line));
  }
  if (!scope_fields[1].empty()) {
    FRESHSEL_RETURN_IF_ERROR(
        ForEachPart(scope_fields[1], '|', [&spec](std::string_view part) {
          std::int64_t sub = 0;
          FRESHSEL_RETURN_IF_ERROR(ParseInt(part, &sub));
          spec.scope.push_back(static_cast<world::SubdomainId>(sub));
          return Status::OK();
        }));
  }

  source::SourceHistory history(std::move(spec),
                                static_cast<std::size_t>(entity_count));
  if (!lines.Next(&line) ||
      line != "entity,subdomain,inserted,deleted,captures") {
    return Status::InvalidArgument("bad source column header");
  }
  // Each row is one record with at most one capture more than it has
  // '|'s. Sizing both arrays from those counts, each capped by the fewest
  // bytes a row ("0,0,0,,\n") or a capture ("0:0|") takes, saves
  // regrowing them row by row.
  const std::size_t row_bound =
      std::min(CountByte(buffer, '\n') + 1, buffer.size() / 8 + 1);
  history.Reserve(row_bound, std::min(CountByte(buffer, '|') + row_bound,
                                      buffer.size() / 4 + 1));
  std::uint64_t rows = 0;
  std::array<std::string_view, 5> fields;
  while (lines.Next(&line)) {
    if (line.empty()) continue;
    if (SplitFields(line, ',', &fields) != 5) {
      return Status::InvalidArgument("bad source row: " + std::string(line));
    }
    source::CaptureRecord record;
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
    // A row never inserted is still parsed; its commit drops the captures.
    if (!fields[4].empty()) {
      FRESHSEL_RETURN_IF_ERROR(AppendCaptures(fields[4], &history));
    }
    FRESHSEL_RETURN_IF_ERROR(history.CommitRecord(record));
    ++rows;
  }
  FRESHSEL_OBS_COUNT("io.source_rows.read", rows);
  return history;
}

}  // namespace

Result<source::SourceHistory> ReadSourceHistoryCsv(const std::string& path) {
  return ReadSourceHistory(path, nullptr);
}

Result<world::World> ReadWorldCsv(const std::string& path,
                                  const fault::RetryPolicy& retry) {
  return retry.RunResult<world::World>(
      "io.read_world", [&path]() { return ReadWorldCsv(path); });
}

Result<source::SourceHistory> ReadSourceHistoryCsv(
    const std::string& path, std::size_t world_entity_count,
    const fault::RetryPolicy& retry) {
  return retry.RunResult<source::SourceHistory>(
      "io.read_source", [&path, world_entity_count]() {
        return ReadSourceHistory(path, &world_entity_count);
      });
}

Status WriteWorldCsv(const world::World& world, const std::string& path,
                     const fault::RetryPolicy& retry) {
  return retry.Run("io.write_world",
                   [&]() { return WriteWorldCsv(world, path); });
}

Status WriteSourceHistoryCsv(const source::SourceHistory& history,
                             const std::string& path,
                             const fault::RetryPolicy& retry) {
  return retry.Run("io.write_source",
                   [&]() { return WriteSourceHistoryCsv(history, path); });
}

}  // namespace freshsel::io
