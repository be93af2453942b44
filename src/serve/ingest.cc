#include "serve/ingest.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <utility>

#include "common/string_util.h"
#include "io/scenario_io.h"
#include "obs/macros.h"

namespace freshsel::serve {

namespace fs = std::filesystem;

Result<ScenarioDirData> ReadScenarioDir(const std::string& dir,
                                        const fault::RetryPolicy& retry) {
  const fs::path root(dir);
  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    return Status::NotFound("not a directory: " + dir);
  }
  FRESHSEL_ASSIGN_OR_RETURN(
      world::World world,
      io::ReadWorldCsv((root / "world.csv").string(), retry));
  std::vector<std::string> source_files;
  for (const fs::directory_entry& entry : fs::directory_iterator(root)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("source_", 0) == 0) {
      source_files.push_back(entry.path().string());
    }
  }
  std::sort(source_files.begin(), source_files.end());
  if (source_files.empty()) {
    return Status::NotFound("no source_*.csv files in " + dir);
  }
  std::vector<source::SourceHistory> sources;
  sources.reserve(source_files.size());
  for (const std::string& file : source_files) {
    FRESHSEL_ASSIGN_OR_RETURN(
        source::SourceHistory history,
        io::ReadSourceHistoryCsv(file, world.entity_count(), retry));
    sources.push_back(std::move(history));
  }
  // Optional manifest: its first line is "t0,<value>".
  TimePoint manifest_t0 = 0;
  std::ifstream manifest(root / "manifest.csv");
  std::string first_line;
  if (manifest && std::getline(manifest, first_line)) {
    const std::vector<std::string> fields = Split(first_line, ',');
    if (fields.size() == 2 && fields[0] == "t0") {
      const char* begin = fields[1].data();
      const char* end = begin + fields[1].size();
      std::int64_t value = 0;
      auto [ptr, errc] = std::from_chars(begin, end, value);
      if (errc == std::errc() && ptr == end) manifest_t0 = value;
    }
  }
  return ScenarioDirData{std::move(world), std::move(sources), manifest_t0};
}

Result<ResidentScenario> LearnScenario(const std::string& name,
                                       ScenarioDirData data,
                                       const IngestOptions& options) {
  const TimePoint t0 = options.t0 > 0 ? options.t0 : data.manifest_t0;
  if (t0 <= 0) {
    return Status::InvalidArgument(
        "no t0 given and the scenario has no manifest t0");
  }
  if (t0 > data.world.horizon()) {
    return Status::InvalidArgument("t0 beyond the scenario horizon");
  }
  FRESHSEL_ASSIGN_OR_RETURN(
      estimation::WorldChangeModel world_model,
      estimation::WorldChangeModel::Learn(data.world, t0));
  FRESHSEL_ASSIGN_OR_RETURN(
      estimation::RobustProfiles robust,
      estimation::LearnSourceProfilesRobust(data.world, data.sources, t0,
                                            options.degradation_mode));
  ResidentScenario scenario{name,
                            /*epoch=*/0,
                            std::move(data.world),
                            t0,
                            std::move(world_model),
                            std::move(robust.profiles),
                            std::move(robust.report)};
  FRESHSEL_OBS_COUNT("serve.scenarios.ingested", 1);
  return scenario;
}

Result<ResidentScenario> IngestScenario(const std::string& name,
                                        const std::string& dir,
                                        const IngestOptions& options) {
  FRESHSEL_ASSIGN_OR_RETURN(ScenarioDirData data,
                            ReadScenarioDir(dir, options.retry));
  return LearnScenario(name, std::move(data), options);
}

}  // namespace freshsel::serve
