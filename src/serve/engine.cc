#include "serve/engine.h"

#include <cstddef>
#include <cstdint>
#include <map>
#include <sstream>
#include <utility>

#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "estimation/quality_estimator.h"
#include "fault/failpoint.h"
#include "obs/macros.h"
#include "obs/report.h"
#include "selection/cached_oracle.h"
#include "selection/cost.h"
#include "selection/profit.h"
#include "selection/selector.h"

namespace freshsel::serve {

namespace {

// The wire cap promises that nothing past it reaches the estimator; if the
// estimator's horizon ever moves, the codec must move with it.
static_assert(kMaxEvalSpanSteps == estimation::kMaxEvalHorizonSteps,
              "protocol eval-span cap out of sync with the estimator");

/// Canonical cache key over every parameter that shapes the *prepared*
/// half of a query: scenario identity + epoch, t0, eval grid, divisor and
/// roster, i.e. the estimator and its universe. Metric, gain, budget and
/// the algorithm knobs are deliberately excluded: they only shape the
/// per-request oracle and run, so one entry serves every trade-off.
std::string PreparedKey(const ResidentScenario& scenario,
                        const QueryParams& params) {
  std::string key = scenario.name;
  key += '\x1f';
  key += std::to_string(scenario.epoch);
  key += '\x1f';
  key += std::to_string(params.t0);
  key += '\x1f';
  key += std::to_string(params.points);
  key += '\x1f';
  key += std::to_string(params.stride);
  key += '\x1f';
  key += std::to_string(params.max_divisor);
  for (const std::string& name : params.roster) {
    key += '\x1f';
    key += name;
  }
  return key;
}

}  // namespace

// ---------------------------------------------------------------------------
// ScenarioRegistry

ScenarioInfo ScenarioRegistry::Describe(const ResidentScenario& scenario) {
  ScenarioInfo info;
  info.name = scenario.name;
  info.sources = scenario.profiles.size();
  info.entities = scenario.world.entity_count();
  info.t0 = scenario.t0;
  info.epoch = scenario.epoch;
  return info;
}

Result<ScenarioInfo> ScenarioRegistry::Load(const std::string& name,
                                            const std::string& dir,
                                            const IngestOptions& options) {
  // Ingest outside the lock: loading + learning is the slow part, and the
  // registry stays queryable (with the old epoch) while it runs.
  FRESHSEL_ASSIGN_OR_RETURN(ResidentScenario scenario,
                            IngestScenario(name, dir, options));
  auto shared = std::make_shared<ResidentScenario>(std::move(scenario));
  // Declared before the lock, so the replaced snapshot is released after
  // unlocking: freeing a large scenario takes tens of milliseconds, and
  // Engine::GetOrPrepare takes this mutex under its own.
  std::shared_ptr<const ResidentScenario> replaced;
  MutexLock lock(mutex_);
  shared->epoch = next_epoch_++;
  replaced = std::exchange(scenarios_[name], shared);
  return Describe(*shared);
}

Result<std::shared_ptr<const ResidentScenario>> ScenarioRegistry::Get(
    const std::string& name) const {
  MutexLock lock(mutex_);
  const auto it = scenarios_.find(name);
  if (it == scenarios_.end()) {
    return Status::NotFound("unknown scenario '" + name +
                            "' (load it with op:\"load\" or serve --dir)");
  }
  return it->second;
}

std::vector<ScenarioInfo> ScenarioRegistry::List() const {
  MutexLock lock(mutex_);
  std::vector<ScenarioInfo> infos;
  infos.reserve(scenarios_.size());
  for (const auto& [name, scenario] : scenarios_) {
    infos.push_back(Describe(*scenario));
  }
  return infos;
}

std::size_t ScenarioRegistry::size() const {
  MutexLock lock(mutex_);
  return scenarios_.size();
}

// ---------------------------------------------------------------------------
// Query preparation

Result<std::shared_ptr<const PreparedQuery>> PrepareQuery(
    std::shared_ptr<const ResidentScenario> scenario,
    const QueryParams& params) {
  FRESHSEL_RETURN_IF_ERROR(ValidateQuery(params));
  auto prepared = std::make_shared<PreparedQuery>();
  prepared->scenario = scenario;
  prepared->t0 = params.t0 > 0 ? params.t0 : scenario->t0;
  if (prepared->t0 <= 0) {
    return Status::InvalidArgument(
        "no t0 given and the scenario has no manifest t0");
  }
  if (prepared->t0 > scenario->world.horizon()) {
    return Status::InvalidArgument("t0 beyond the scenario horizon");
  }

  // Roster filter in scenario order (the roster is a set-filter, not a
  // reordering); unknown names fail loudly instead of shrinking silently.
  if (params.roster.empty()) {
    for (const estimation::SourceProfile& profile : scenario->profiles) {
      prepared->profiles.push_back(&profile);
    }
  } else {
    std::map<std::string, const estimation::SourceProfile*> by_name;
    for (const estimation::SourceProfile& profile : scenario->profiles) {
      by_name[profile.name] = &profile;
    }
    std::map<std::string, bool> wanted;
    for (const std::string& name : params.roster) wanted[name] = false;
    for (const auto& [name, unused] : wanted) {
      if (by_name.count(name) == 0) {
        return Status::NotFound("roster source not in scenario: " + name);
      }
    }
    for (const estimation::SourceProfile& profile : scenario->profiles) {
      if (wanted.count(profile.name) > 0) {
        prepared->profiles.push_back(&profile);
      }
    }
  }

  FRESHSEL_ASSIGN_OR_RETURN(
      estimation::QualityEstimator estimator,
      estimation::QualityEstimator::Create(
          scenario->world, scenario->world_model, {},
          MakeTimePoints(prepared->t0 + params.stride, params.points,
                         params.stride)));
  prepared->estimator =
      std::make_unique<estimation::QualityEstimator>(std::move(estimator));

  FRESHSEL_ASSIGN_OR_RETURN(
      selection::SelectionUniverse universe,
      selection::BuildSelectionUniverse(
          *prepared->estimator, prepared->profiles,
          selection::CostModel::ItemShareCosts(prepared->profiles),
          params.max_divisor));
  prepared->source_of = std::move(universe.source_of);
  prepared->divisor_of = std::move(universe.divisor_of);
  prepared->costs = std::move(universe.costs);
  prepared->matroid = std::move(universe.matroid);
  return std::shared_ptr<const PreparedQuery>(std::move(prepared));
}

// ---------------------------------------------------------------------------
// Query execution

Status ExecutePrepared(const PreparedQuery& prepared,
                       const QueryParams& params, std::ostream& out,
                       obs::RunReport* report, QueryOutcome* outcome) {
  // A prepared-cache hit skips PrepareQuery, so the run-side knobs
  // (kappa/restarts/threads, narrowed to int below) are checked here too.
  FRESHSEL_RETURN_IF_ERROR(ValidateQuery(params));
  obs::RunReport& run_report = *report;
  run_report.labels["metric"] = params.metric;
  run_report.labels["gain"] = params.gain;

  // The oracle is the only part that reads metric, gain and budget. Its
  // build is cost normalization plus a few empty-set estimates, so it is
  // made per request and the shared estimator serves every trade-off.
  selection::ProfitOracle::Config oracle_config;
  oracle_config.gain =
      selection::GainModel(FromWireName(kGainNames, params.gain),
                           FromWireName(kMetricNames, params.metric));
  oracle_config.budget = params.budget;
  FRESHSEL_ASSIGN_OR_RETURN(
      selection::ProfitOracle oracle,
      selection::ProfitOracle::Create(prepared.estimator.get(),
                                      prepared.costs, oracle_config));

  // Memoize the oracle per request: GRASP restarts and MaxSub local search
  // revisit sets constantly, and a *fresh* cache keeps the reported call
  // statistics identical to a cold batch run.
  selection::CachedProfitOracle cached(oracle);

  selection::SelectorConfig config;
  config.algorithm = FromWireName(kAlgorithmNames, params.algorithm);
  config.grasp_kappa = static_cast<int>(params.kappa);
  config.grasp_restarts = static_cast<int>(params.restarts);
  config.seed = static_cast<std::uint64_t>(params.seed);
  config.stochastic_greedy = params.stochastic;
  config.stochastic_epsilon = params.stochastic_epsilon;
  config.report = &run_report;
  // Explicit wiring (never automatic inside SelectSources): callers that
  // reuse one report across runs must not accumulate per-round records.
  config.decision_log = &run_report.decision_log;
  // GRASP fans candidate scoring out over a request-private pool when
  // threads > 1; the shared pool is single-coordinator-only and the
  // daemon runs many coordinators at once.
  std::unique_ptr<ThreadPool> pool;
  if (params.threads > 1) {
    pool = std::make_unique<ThreadPool>(
        static_cast<std::size_t>(params.threads));
    config.pool = pool.get();
  }
  FRESHSEL_ASSIGN_OR_RETURN(
      const selection::SelectionResult result,
      selection::SelectSources(
          cached, config,
          prepared.matroid.has_value() ? &*prepared.matroid : nullptr));
  // Read before the Cost calls below, which go through the same cache.
  const selection::CachedProfitOracle::Stats cache_stats = cached.stats();
  run_report.counters["cache_hits"] = cache_stats.hits;
  run_report.counters["cache_misses"] = cache_stats.misses;

  QueryOutcome local;
  QueryOutcome& filled = outcome != nullptr ? *outcome : local;
  filled.selected.clear();
  for (selection::SourceHandle h : result.selected) {
    filled.selected.push_back({prepared.profiles[prepared.source_of[h]]->name,
                               prepared.divisor_of[h], cached.Cost({h})});
  }
  const estimation::EstimatedQuality quality =
      prepared.estimator->EstimateAverage(result.selected);
  filled.profit = result.profit;
  filled.cost = cached.Cost(result.selected);
  filled.coverage = quality.coverage;
  filled.freshness = quality.local_freshness;
  filled.accuracy = quality.accuracy;
  filled.oracle_calls = result.oracle_calls;

  TablePrinter table("Selected sources", {"source", "divisor", "cost_share"});
  for (const SelectedSource& selected : filled.selected) {
    table.AddRow({selected.name, std::to_string(selected.divisor),
                  FormatDouble(selected.cost, 4)});
  }
  table.Print(out);
  out << "profit " << FormatDouble(filled.profit, 4) << ", cost "
      << FormatDouble(filled.cost, 4) << ", expected coverage "
      << FormatDouble(filled.coverage, 3) << ", freshness "
      << FormatDouble(filled.freshness, 3) << ", accuracy "
      << FormatDouble(filled.accuracy, 3) << " (" << filled.oracle_calls
      << " oracle calls, cache hit rate "
      << FormatDouble(cache_stats.hit_rate(), 3) << ")\n";
  return Status::OK();
}

Status ExecuteSelect(std::shared_ptr<const ResidentScenario> scenario,
                     const QueryParams& params, std::ostream& out,
                     obs::RunReport* report, QueryOutcome* outcome) {
  FRESHSEL_ASSIGN_OR_RETURN(
      const std::shared_ptr<const PreparedQuery> prepared,
      PrepareQuery(std::move(scenario), params));
  return ExecutePrepared(*prepared, params, out, report, outcome);
}

// ---------------------------------------------------------------------------
// Engine

Engine::Engine(ScenarioRegistry* registry) : Engine(registry, Options()) {}

Engine::Engine(ScenarioRegistry* registry, Options options)
    : registry_(registry), options_(std::move(options)) {}

namespace {

/// The cold half of Engine::GetOrPrepare, run without the engine lock.
Result<std::shared_ptr<const PreparedQuery>> BuildPrepared(
    std::shared_ptr<const ResidentScenario> scenario,
    const QueryParams& params) {
  FRESHSEL_OBS_SCOPED_LATENCY("serve.prepare.latency");
  FRESHSEL_ASSIGN_OR_RETURN(
      std::shared_ptr<const PreparedQuery> prepared,
      PrepareQuery(std::move(scenario), params));
  // After the build, so that callers can coalesce onto a build that fails.
  FRESHSEL_FAILPOINT_RETURN(
      "serve.prepare",
      Status::Unavailable("injected fault: serve.prepare"));
  return prepared;
}

}  // namespace

Result<std::shared_ptr<const PreparedQuery>> Engine::GetOrPrepare(
    const QueryParams& params) {
  std::shared_ptr<const ResidentScenario> scenario;
  std::string key;
  std::shared_ptr<PreparedEntry> entry;
  {
    MutexLock lock(mutex_);
    // Read under the engine lock, so that the purge in LoadScenario, which
    // follows its registry swap, sees every entry made from the old
    // snapshot.
    FRESHSEL_ASSIGN_OR_RETURN(scenario, registry_->Get(params.scenario));
    key = PreparedKey(*scenario, params);
    const auto it = prepared_.find(key);
    if (it != prepared_.end()) {
      entry = it->second;
      entry->last_used = ++tick_;
      ++stats_.hits;
      FRESHSEL_OBS_COUNT("serve.prepared.hits", 1);
      if (!entry->result.has_value()) {
        FRESHSEL_OBS_COUNT("serve.prepared.coalesced", 1);
        while (!entry->result.has_value()) built_cv_.Wait(mutex_);
      }
      return *entry->result;
    }
    ++stats_.misses;
    FRESHSEL_OBS_COUNT("serve.prepared.misses", 1);
    EvictForInsert();
    entry = std::make_shared<PreparedEntry>();
    entry->scenario = scenario->name;
    entry->epoch = scenario->epoch;
    entry->last_used = ++tick_;
    prepared_.emplace(key, entry);
  }

  Result<std::shared_ptr<const PreparedQuery>> built =
      BuildPrepared(scenario, params);

  MutexLock lock(mutex_);
  entry->result = built;
  // A failed build caches nothing. If a reload has already dropped the
  // entry, the key is of an old epoch and cannot have been reinserted.
  if (!built.ok()) prepared_.erase(key);
  built_cv_.NotifyAll();
  return built;
}

void Engine::EvictForInsert() {
  while (prepared_.size() >= options_.prepared_capacity) {
    auto victim = prepared_.end();
    for (auto it = prepared_.begin(); it != prepared_.end(); ++it) {
      if (it->second->result.has_value() &&
          (victim == prepared_.end() ||
           it->second->last_used < victim->second->last_used)) {
        victim = it;
      }
    }
    if (victim == prepared_.end()) return;  // Everything is building.
    prepared_.erase(victim);
  }
}

Result<QueryOutcome> Engine::ExecuteQuery(const QueryParams& params) {
  FRESHSEL_FAILPOINT_RETURN(
      "serve.query",
      Status::Unavailable("injected fault: serve.query"));
  FRESHSEL_OBS_SCOPED_LATENCY("serve.query.latency");
  // Before the cache, so that a bad request neither counts nor builds.
  FRESHSEL_RETURN_IF_ERROR(ValidateQuery(params));
  FRESHSEL_ASSIGN_OR_RETURN(
      const std::shared_ptr<const PreparedQuery> prepared,
      GetOrPrepare(params));
  obs::RunReport report;
  report.name = "serve/query";
  report.labels["scenario"] = params.scenario;
  QueryOutcome outcome;
  std::ostringstream text;
  const Status status =
      ExecutePrepared(*prepared, params, text, &report, &outcome);
  if (!status.ok()) {
    FRESHSEL_OBS_COUNT("serve.queries.failed", 1);
    return status;
  }
  outcome.text = text.str();
  if (params.include_report) {
    outcome.report_json = report.ToJson();
  }
  FRESHSEL_OBS_COUNT("serve.queries.executed", 1);
  return outcome;
}

Result<ScenarioInfo> Engine::LoadScenario(const LoadParams& params) {
  FRESHSEL_FAILPOINT_RETURN(
      "serve.ingest",
      Status::Unavailable("injected fault: serve.ingest"));
  FRESHSEL_ASSIGN_OR_RETURN(
      ScenarioInfo info,
      registry_->Load(params.scenario, params.dir, options_.ingest));
  // Declared before the lock, so purged entries are released after
  // unlocking, as the registry releases its replaced snapshot: the last of
  // them may hold that snapshot.
  std::vector<std::shared_ptr<PreparedEntry>> purged;
  MutexLock lock(mutex_);
  for (auto it = prepared_.begin(); it != prepared_.end();) {
    if (it->second->scenario == info.name && it->second->epoch < info.epoch) {
      purged.push_back(std::move(it->second));
      it = prepared_.erase(it);
    } else {
      ++it;
    }
  }
  return info;
}

std::vector<ScenarioInfo> Engine::ListScenarios() const {
  return registry_->List();
}

Engine::CacheStats Engine::prepared_cache_stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

}  // namespace freshsel::serve
