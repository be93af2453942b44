#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "estimation/quality_estimator.h"
#include "selection/frequency_selection.h"
#include "serve/ingest.h"
#include "serve/protocol.h"

namespace freshsel::obs {
struct RunReport;
}  // namespace freshsel::obs

namespace freshsel::serve {

/// The session/engine layer of the daemon (DESIGN.md §15): resident
/// scenarios + query execution, independent of any transport. Also the
/// *only* select-execution path - batch `freshsel select` runs through
/// `ExecuteSelect` below, which is what makes daemon responses
/// byte-identical to batch output by construction rather than by test
/// vigilance alone.

/// Thread-safe inventory of resident scenarios. Scenarios are immutable
/// once ingested; re-loading a name atomically swaps the pointer and bumps
/// the epoch (in-flight queries keep the old scenario alive through their
/// shared_ptr).
class ScenarioRegistry {
 public:
  /// Ingests `dir` as scenario `name`, replacing any previous load.
  Result<ScenarioInfo> Load(const std::string& name, const std::string& dir,
                            const IngestOptions& options);

  Result<std::shared_ptr<const ResidentScenario>> Get(
      const std::string& name) const;

  /// All resident scenarios, sorted by name.
  std::vector<ScenarioInfo> List() const;
  std::size_t size() const;

  static ScenarioInfo Describe(const ResidentScenario& scenario);

 private:
  mutable Mutex mutex_;
  std::map<std::string, std::shared_ptr<const ResidentScenario>> scenarios_
      FRESHSEL_GUARDED_BY(mutex_);
  std::uint64_t next_epoch_ FRESHSEL_GUARDED_BY(mutex_) = 1;
};

/// Everything about a query that outlives a single request: the estimator
/// over the roster-filtered universe (whose SoA miss-factor tables, built
/// here as each source is registered, are the expensive resident state),
/// the frequency-augmented universe when max_divisor > 1, and its
/// unnormalized costs. Nothing here depends on metric, gain or budget, so
/// one entry serves every trade-off. Immutable after construction; safe to
/// share across concurrent requests (the estimator is immutable after
/// `AddSource`).
struct PreparedQuery {
  std::shared_ptr<const ResidentScenario> scenario;
  TimePoint t0 = 0;
  std::vector<const estimation::SourceProfile*> profiles;
  std::unique_ptr<estimation::QualityEstimator> estimator;
  std::vector<std::uint32_t> source_of;
  std::vector<std::int64_t> divisor_of;
  std::vector<double> costs;
  std::optional<selection::PartitionMatroid> matroid;
};

/// Builds the resident half of a query: roster filter, estimator over the
/// request's eval times, universe. Fails with InvalidArgument when
/// ValidateQuery refuses `params` or t0 lies past the scenario horizon, and
/// with NotFound on unknown roster names.
Result<std::shared_ptr<const PreparedQuery>> PrepareQuery(
    std::shared_ptr<const ResidentScenario> scenario,
    const QueryParams& params);

/// Runs the selection algorithm of `params` over a prepared query through
/// one selection::SelectSources call, which folds counters/stages/decisions
/// into `report`; fills `outcome` (when non-null) with the structured
/// response payload and writes the same facts to `out` as the
/// selected-sources table + summary line (byte-for-byte the batch
/// `freshsel select` output). Refuses what ValidateQuery refuses. The
/// profit oracle (metric, gain, budget) and its cache are built per call:
/// the oracle costs microseconds, and a resident cache would change the
/// reported oracle-call counts and break byte-identity with a cold batch
/// run.
Status ExecutePrepared(const PreparedQuery& prepared,
                       const QueryParams& params, std::ostream& out,
                       obs::RunReport* report,
                       QueryOutcome* outcome = nullptr);

/// One-shot convenience for the batch CLI: PrepareQuery + ExecutePrepared.
Status ExecuteSelect(std::shared_ptr<const ResidentScenario> scenario,
                     const QueryParams& params, std::ostream& out,
                     obs::RunReport* report,
                     QueryOutcome* outcome = nullptr);

/// Query execution against a registry, with a bounded cache of prepared
/// queries so repeated estimator shapes reuse the resident estimator state.
/// Each key is built once, outside the engine lock: concurrent callers of
/// the key being built wait for that build, and callers of every other key
/// are never held up by it. Thread-safe: concurrent ExecuteQuery calls on
/// one Engine are the daemon's normal operating mode.
class Engine {
 public:
  struct Options {
    /// Prepared-query cache capacity in estimator shapes, not budgets; the
    /// least recently used ready entry is evicted first (entries still
    /// building are never evicted).
    std::size_t prepared_capacity = 32;
    /// Ingestion options for op:"load" requests.
    IngestOptions ingest;
  };

  explicit Engine(ScenarioRegistry* registry);  ///< Default options.
  Engine(ScenarioRegistry* registry, Options options);

  /// Executes one selection query end to end; the outcome's `text` is the
  /// batch-identical rendering and `report_json` is filled when the
  /// request asked for it. A query ValidateQuery refuses fails before the
  /// prepared cache is looked up, so it neither counts nor builds.
  Result<QueryOutcome> ExecuteQuery(const QueryParams& params);

  /// Ingests a scenario directory at runtime (op:"load"), then drops the
  /// cached prepared queries of that name's older epochs, which no query
  /// can hit again.
  Result<ScenarioInfo> LoadScenario(const LoadParams& params)
      FRESHSEL_EXCLUDES(mutex_);

  std::vector<ScenarioInfo> ListScenarios() const;
  ScenarioRegistry* registry() const { return registry_; }

  /// A miss is one build; every other lookup, including a caller that
  /// waits for a build already in flight, is a hit.
  struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  CacheStats prepared_cache_stats() const FRESHSEL_EXCLUDES(mutex_);

 private:
  /// One cache slot. Callers of the key share it through a shared_ptr, so
  /// a failed build still reaches every caller that waited for it after
  /// the slot has left the map. Its fields are read and written only with
  /// `mutex_` held (the analysis cannot name the engine's mutex from here).
  struct PreparedEntry {
    std::string scenario;
    std::uint64_t epoch = 0;
    /// Value of `tick_` at the entry's last use; the smallest is evicted.
    std::uint64_t last_used = 0;
    /// Empty while the build runs, then its outcome.
    std::optional<Result<std::shared_ptr<const PreparedQuery>>> result;
  };

  Result<std::shared_ptr<const PreparedQuery>> GetOrPrepare(
      const QueryParams& params) FRESHSEL_EXCLUDES(mutex_);
  /// Makes room for one more entry by evicting least-recently-used ready
  /// entries; entries still building are skipped.
  void EvictForInsert() FRESHSEL_REQUIRES(mutex_);

  ScenarioRegistry* const registry_;
  const Options options_;
  mutable Mutex mutex_;
  /// Signalled whenever a build finishes, successfully or not.
  CondVar built_cv_;
  std::map<std::string, std::shared_ptr<PreparedEntry>> prepared_
      FRESHSEL_GUARDED_BY(mutex_);
  std::uint64_t tick_ FRESHSEL_GUARDED_BY(mutex_) = 0;
  CacheStats stats_ FRESHSEL_GUARDED_BY(mutex_);
};

}  // namespace freshsel::serve
