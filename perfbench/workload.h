#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "serve/protocol.h"

namespace perfbench {

/// The traffic mixes of the serve-path benchmark (README.md has the reasons
/// for each).
enum class Workload { kWarmSelect, kChurn };

freshsel::Result<Workload> ParseWorkload(const std::string& name);
const char* WorkloadName(Workload workload);

/// Scenario names as the daemon knows them; their directories under the
/// panel directory carry the same names.
inline constexpr const char* kDefaultScenario = "default";
inline constexpr const char* kOtherScenario = "other";

/// One distinct query of a workload, with its canonical request line.
struct Query {
  freshsel::serve::QueryParams params;
  std::string line;  ///< SerializeQueryRequest(no id, params).
};

/// Everything a run sends, derived from the seed alone, so the generate and
/// run steps (separate processes) agree on it without sharing state.
struct Plan {
  Workload workload = Workload::kWarmSelect;
  /// Class (a): the distinct warm queries, and the seeded order in which
  /// the warm clients draw them through one shared cursor.
  std::vector<Query> warm;
  std::vector<std::uint32_t> warm_sequence;
  std::size_t warm_clients = 2;
  /// Class (b), churn only: queries whose budgets appear nowhere else, so
  /// each one prepares cold, sent in the seeded order `cold_sequence`. The
  /// first `cold_prefill` fill the engine's prepared cache before the clock
  /// starts; then one goes out per `warm_per_cold` class (a) replies. Back
  /// to back, the sweep would hold the engine's prepare lock nearly all the
  /// time and starve class (a) of samples; paced by the clock instead, it
  /// would hold the lock longer on a slower machine and amplify the
  /// machine's noise.
  std::vector<Query> cold;
  std::vector<std::uint32_t> cold_sequence;
  std::size_t cold_prefill = 0;
  std::uint64_t warm_per_cold = 1;
  /// Class (c), churn only: back-to-back reloads of the other scenario.
  bool reloads = false;
};

Plan MakePlan(Workload workload, std::uint64_t seed);

/// What the daemon must answer, computed in process with
/// serve::ExecuteSelect over an independent ingest of the same files.
struct Expected {
  struct Answer {
    std::string response;  ///< SerializeQueryOutcome(no id, outcome).
    std::uint64_t oracle_calls = 0;
  };
  /// Keyed by request line.
  std::map<std::string, Answer> answers;
  /// Per scenario name: the load response minus the epoch.
  std::map<std::string, freshsel::serve::ScenarioInfo> scenarios;
};

/// Generate step: completes the panel directory for `plan`'s workload. The
/// panel holds everything a run reads and is the same on every seed, so it
/// is written once per build: the BL scenario files in the `freshsel
/// simulate` layout (`<name>/`) and the expected answer of every distinct
/// request of the workload (`<workload>.tsv`). Fails when the answers
/// differ from the committed digest at `digest_path` (the selected sources,
/// oracle calls and profit of every query, and each scenario's size), and
/// then writes this build's digest to `<workload>.digest.tsv`: answers
/// computed by the build under test would otherwise only check the daemon
/// against batch mode, not against the right answer.
freshsel::Status Generate(const Plan& plan, const std::string& panel,
                          const std::string& digest_path,
                          std::size_t threads);

freshsel::Result<Expected> ReadExpected(const Plan& plan,
                                        const std::string& panel);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
