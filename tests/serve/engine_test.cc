// Session/engine-layer tests (DESIGN.md §15): resident scenarios, the
// prepared-query cache, roster filtering, and the central equivalence
// claim - Engine::ExecuteQuery produces byte-for-byte the text that batch
// `freshsel select` prints, because both run serve::ExecuteSelect.

#include "serve/engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/commands.h"
#include "fault/failpoint.h"
#include "obs/json_reader.h"
#include "obs/report.h"
#include "serve/ingest.h"
#include "serve/protocol.h"
#include "testing/scratch.h"

namespace freshsel::serve {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string output;
    ASSERT_EQ(Run({"simulate", "--workload", "bl", "--out",
                   scratch_.path().c_str(), "--seed", "7", "--scale", "0.3",
                   "--locations", "5", "--categories", "2"},
                  &output),
              0)
        << output;
  }

  void TearDown() override {
    fault::FailpointRegistry::Global().DisarmAll();
  }

  static int Run(std::vector<const char*> argv, std::string* output) {
    argv.insert(argv.begin(), "freshsel");
    std::ostringstream out;
    std::ostringstream err;
    const int code = cli::RunMain(static_cast<int>(argv.size()),
                                  argv.data(), out, err);
    *output = out.str() + err.str();
    return code;
  }

  /// The canonical query every test variant starts from.
  static QueryParams BaseParams() {
    QueryParams params;
    params.t0 = 100;
    params.points = 3;
    params.stride = 14;
    return params;
  }

  /// A shape whose build is slow (tens of milliseconds: preparation grows
  /// with the square of the eval grid) but whose selection stays cheap
  /// (one source), so that tests can act while it is still building.
  static QueryParams SlowParams(const ScenarioRegistry& registry) {
    QueryParams params = BaseParams();
    params.points = 1500;
    params.stride = 1;
    Result<std::shared_ptr<const ResidentScenario>> scenario =
        registry.Get(params.scenario);
    if (scenario.ok()) params.roster = {(*scenario)->profiles[0].name};
    return params;
  }

  /// Spins until the engine has started `misses` builds.
  static void WaitForMisses(const Engine& engine, std::uint64_t misses) {
    while (engine.prepared_cache_stats().misses < misses) {
      std::this_thread::yield();
    }
  }

  /// Ingest at the same cutoff the queries use. Batch `select --t0 100`
  /// learns its models at t0=100, so serving the same bytes requires the
  /// resident scenario to be learned there too (the manifest says 300;
  /// queries can only evaluate at or after the learned cutoff).
  static IngestOptions BaseIngest() {
    IngestOptions options;
    options.t0 = 100;
    return options;
  }

  testing::ScratchDir scratch_;
};

TEST_F(EngineTest, RegistryLoadsListsAndBumpsEpochs) {
  ScenarioRegistry registry;
  Result<ScenarioInfo> first =
      registry.Load("default", scratch_.path(), IngestOptions{});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_GT(first->sources, 0u);
  EXPECT_GT(first->entities, 0u);
  EXPECT_GT(first->t0, 0);  // From the manifest.
  EXPECT_EQ(first->epoch, 1u);
  EXPECT_EQ(registry.size(), 1u);

  // Re-loading the same name swaps the scenario and bumps the epoch.
  Result<ScenarioInfo> again =
      registry.Load("default", scratch_.path(), IngestOptions{});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->epoch, 2u);
  EXPECT_EQ(registry.size(), 1u);

  Result<ScenarioInfo> alt =
      registry.Load("alt", scratch_.path(), IngestOptions{});
  ASSERT_TRUE(alt.ok());
  EXPECT_EQ(alt->epoch, 3u);

  const std::vector<ScenarioInfo> list = registry.List();
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0].name, "alt");  // Sorted by name.
  EXPECT_EQ(list[1].name, "default");

  Result<std::shared_ptr<const ResidentScenario>> missing =
      registry.Get("nope");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_NE(missing.status().message().find("unknown scenario"),
            std::string::npos);
}

TEST_F(EngineTest, ExecuteQueryIsByteIdenticalToBatchSelect) {
  ScenarioRegistry registry;
  ASSERT_TRUE(registry.Load("default", scratch_.path(), BaseIngest()).ok());
  Engine engine(&registry);

  Result<QueryOutcome> outcome = engine.ExecuteQuery(BaseParams());
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_FALSE(outcome->selected.empty());
  EXPECT_NE(outcome->text.find("profit"), std::string::npos);
  EXPECT_GE(outcome->coverage, 0.0);
  EXPECT_LE(outcome->coverage, 1.0);
  EXPECT_GT(outcome->oracle_calls, 0u);
  EXPECT_TRUE(outcome->report_json.empty());  // Not requested.

  // The batch CLI on the same directory with the same knobs. Batch output
  // may carry extra leading lines (degradation notes); the selection table
  // + summary must be its byte-identical tail.
  std::string batch;
  ASSERT_EQ(Run({"select", "--dir", scratch_.path().c_str(), "--t0", "100",
                 "--points", "3", "--stride", "14"},
                &batch),
            0)
      << batch;
  ASSERT_FALSE(outcome->text.empty());
  EXPECT_TRUE(batch.ends_with(outcome->text))
      << "daemon text:\n" << outcome->text << "\nbatch output:\n" << batch;

  // Determinism: the same request again yields the same bytes and the
  // same oracle statistics (fresh per-request profit cache).
  Result<QueryOutcome> repeat = engine.ExecuteQuery(BaseParams());
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(repeat->text, outcome->text);
  EXPECT_EQ(repeat->oracle_calls, outcome->oracle_calls);
}

TEST_F(EngineTest, PreparedCacheHitsMissesAndLruEviction) {
  ScenarioRegistry registry;
  ASSERT_TRUE(registry.Load("default", scratch_.path(), BaseIngest()).ok());
  Engine::Options options;
  options.prepared_capacity = 2;
  Engine engine(&registry, options);

  QueryParams a = BaseParams();
  ASSERT_TRUE(engine.ExecuteQuery(a).ok());
  EXPECT_EQ(engine.prepared_cache_stats().hits, 0u);
  EXPECT_EQ(engine.prepared_cache_stats().misses, 1u);

  QueryParams b = BaseParams();
  b.stride = 7;
  ASSERT_TRUE(engine.ExecuteQuery(b).ok());
  EXPECT_EQ(engine.prepared_cache_stats().misses, 2u);

  // Same shape -> hit; algorithm knobs (seed, restarts) are not part of
  // the prepared key. The hit makes `a` more recently used than `b`.
  QueryParams a_reseeded = a;
  a_reseeded.seed = 99;
  ASSERT_TRUE(engine.ExecuteQuery(a_reseeded).ok());
  EXPECT_EQ(engine.prepared_cache_stats().hits, 1u);
  EXPECT_EQ(engine.prepared_cache_stats().misses, 2u);

  QueryParams c = BaseParams();
  c.points = 2;
  ASSERT_TRUE(engine.ExecuteQuery(c).ok());  // Capacity 2: evicts `b`.
  EXPECT_EQ(engine.prepared_cache_stats().misses, 3u);

  // `a` was inserted first but touched since; FIFO would have evicted it.
  ASSERT_TRUE(engine.ExecuteQuery(a).ok());
  EXPECT_EQ(engine.prepared_cache_stats().hits, 2u);
  EXPECT_EQ(engine.prepared_cache_stats().misses, 3u);

  ASSERT_TRUE(engine.ExecuteQuery(b).ok());  // Evicted -> miss again.
  EXPECT_EQ(engine.prepared_cache_stats().misses, 4u);
}

TEST_F(EngineTest, OneEntryServesEveryBudgetMetricAndGain) {
  ScenarioRegistry registry;
  ASSERT_TRUE(registry.Load("default", scratch_.path(), BaseIngest()).ok());
  Result<std::shared_ptr<const ResidentScenario>> scenario =
      registry.Get("default");
  ASSERT_TRUE(scenario.ok());
  Engine engine(&registry);

  // Only the per-request oracle reads metric, gain and budget, so all
  // twelve trade-offs share one estimator: one build, eleven hits.
  int requests = 0;
  std::set<std::string> distinct;
  for (const double budget : {0.02, 0.05, 1.0}) {
    for (const char* metric : {"coverage", "freshness"}) {
      for (const char* gain : {"linear", "quad"}) {
        QueryParams params = BaseParams();
        params.budget = budget;
        params.metric = metric;
        params.gain = gain;
        Result<QueryOutcome> served = engine.ExecuteQuery(params);
        ASSERT_TRUE(served.ok()) << served.status().ToString();
        ++requests;
        distinct.insert(served->text);

        // The reference prepares its own estimator from scratch.
        std::ostringstream text;
        obs::RunReport report;
        QueryOutcome fresh;
        ASSERT_TRUE(
            ExecuteSelect(*scenario, params, text, &report, &fresh).ok());
        EXPECT_EQ(served->text, text.str())
            << "budget " << budget << ", " << metric << ", " << gain;
        EXPECT_EQ(served->oracle_calls, fresh.oracle_calls);
      }
    }
  }
  // Each trade-off is answered by its own oracle, not a shared one.
  EXPECT_EQ(distinct.size(), static_cast<std::size_t>(requests));
  EXPECT_EQ(engine.prepared_cache_stats().misses, 1u);
  EXPECT_EQ(engine.prepared_cache_stats().hits,
            static_cast<std::uint64_t>(requests - 1));

  // Every estimator-shaping field still keys its own entry.
  std::vector<QueryParams> shapes(5, BaseParams());
  shapes[0].t0 = 120;
  shapes[1].points = 2;
  shapes[2].stride = 7;
  shapes[3].max_divisor = 2;
  shapes[4].roster = {(*scenario)->profiles[0].name,
                      (*scenario)->profiles[1].name};
  std::uint64_t misses = 1;
  for (const QueryParams& shape : shapes) {
    ASSERT_TRUE(engine.ExecuteQuery(shape).ok());
    EXPECT_EQ(engine.prepared_cache_stats().misses, ++misses);
  }
}

TEST_F(EngineTest, UnknownMetricOrGainFailsBeforeAnyBuild) {
  ScenarioRegistry registry;
  ASSERT_TRUE(registry.Load("default", scratch_.path(), BaseIngest()).ok());
  Engine engine(&registry);

  QueryParams bad_metric = BaseParams();
  bad_metric.metric = "recall";
  Result<QueryOutcome> outcome = engine.ExecuteQuery(bad_metric);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(outcome.status().message(),
            "field 'metric' must be one of {coverage, accuracy, freshness, "
            "mix}, got 'recall'");

  QueryParams bad_gain = BaseParams();
  bad_gain.gain = "cubic";
  outcome = engine.ExecuteQuery(bad_gain);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(outcome.status().message(),
            "field 'gain' must be one of {linear, quad, step, data}, got "
            "'cubic'");

  QueryParams bad_algorithm = BaseParams();
  bad_algorithm.algorithm = "bogus";
  outcome = engine.ExecuteQuery(bad_algorithm);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(outcome.status().message(),
            "field 'algorithm' must be one of {greedy, maxsub, grasp, "
            "budgeted}, got 'bogus'");
  EXPECT_EQ(engine.prepared_cache_stats().misses, 0u);
  EXPECT_EQ(engine.prepared_cache_stats().hits, 0u);

  // Nothing was inserted: the valid shape is the first build, and a bad
  // name on that now-warm shape is refused without touching the cache.
  ASSERT_TRUE(engine.ExecuteQuery(BaseParams()).ok());
  EXPECT_FALSE(engine.ExecuteQuery(bad_metric).ok());
  EXPECT_EQ(engine.prepared_cache_stats().misses, 1u);
  EXPECT_EQ(engine.prepared_cache_stats().hits, 0u);

  // The in-process entry points refuse the same names.
  Result<std::shared_ptr<const ResidentScenario>> scenario =
      registry.Get("default");
  ASSERT_TRUE(scenario.ok());
  Result<std::shared_ptr<const PreparedQuery>> prepared =
      PrepareQuery(*scenario, bad_gain);
  ASSERT_FALSE(prepared.ok());
  EXPECT_EQ(prepared.status().message(),
            "field 'gain' must be one of {linear, quad, step, data}, got "
            "'cubic'");
  prepared = PrepareQuery(*scenario, BaseParams());
  ASSERT_TRUE(prepared.ok());
  std::ostringstream text;
  obs::RunReport report;
  const Status status =
      ExecutePrepared(**prepared, bad_metric, text, &report);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(),
            "field 'metric' must be one of {coverage, accuracy, freshness, "
            "mix}, got 'recall'");
  EXPECT_TRUE(text.str().empty());
}

TEST_F(EngineTest, ReloadDropsStaleEntriesOfThatScenarioOnly) {
  ScenarioRegistry registry;
  Engine::Options options;
  options.ingest = BaseIngest();
  Engine engine(&registry, options);
  LoadParams load;
  load.scenario = "default";
  load.dir = scratch_.path();
  ASSERT_TRUE(engine.LoadScenario(load).ok());
  LoadParams other_load = load;
  other_load.scenario = "other";
  ASSERT_TRUE(engine.LoadScenario(other_load).ok());

  QueryParams other = BaseParams();
  other.scenario = "other";
  ASSERT_TRUE(engine.ExecuteQuery(other).ok());
  ASSERT_TRUE(engine.ExecuteQuery(BaseParams()).ok());
  std::weak_ptr<const ResidentScenario> old_snapshot;
  {
    Result<std::shared_ptr<const ResidentScenario>> current =
        registry.Get("default");
    ASSERT_TRUE(current.ok());
    old_snapshot = *current;
  }

  // Start a reload while a query of the old epoch is still building.
  Result<QueryOutcome> in_flight = Status::Internal("not run");
  std::thread query(
      [&] { in_flight = engine.ExecuteQuery(SlowParams(registry)); });
  WaitForMisses(engine, 3);
  ASSERT_TRUE(engine.LoadScenario(load).ok());
  query.join();
  ASSERT_TRUE(in_flight.ok()) << in_flight.status().ToString();
  EXPECT_TRUE(old_snapshot.expired());

  // The other scenario's entry survived the reload; the reloaded name
  // builds afresh.
  ASSERT_TRUE(engine.ExecuteQuery(other).ok());
  EXPECT_EQ(engine.prepared_cache_stats().hits, 1u);
  ASSERT_TRUE(engine.ExecuteQuery(BaseParams()).ok());
  EXPECT_EQ(engine.prepared_cache_stats().misses, 4u);
}

TEST_F(EngineTest, RosterFiltersAndRejectsUnknownNames) {
  ScenarioRegistry registry;
  ASSERT_TRUE(registry.Load("default", scratch_.path(), BaseIngest()).ok());
  Engine engine(&registry);

  // Discover the simulator's actual source names instead of guessing.
  Result<std::shared_ptr<const ResidentScenario>> scenario =
      registry.Get("default");
  ASSERT_TRUE(scenario.ok());
  ASSERT_GE((*scenario)->profiles.size(), 2u);
  const std::string first = (*scenario)->profiles[0].name;
  const std::string second = (*scenario)->profiles[1].name;

  QueryParams roster_query = BaseParams();
  roster_query.roster = {first, second};
  Result<QueryOutcome> outcome = engine.ExecuteQuery(roster_query);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  for (const SelectedSource& selected : outcome->selected) {
    EXPECT_TRUE(selected.name == first || selected.name == second)
        << selected.name;
  }

  QueryParams bad = BaseParams();
  bad.roster = {first, "not_a_source"};
  Result<QueryOutcome> rejected = engine.ExecuteQuery(bad);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kNotFound);
  EXPECT_NE(rejected.status().message().find("roster source not in scenario"),
            std::string::npos);
}

TEST_F(EngineTest, T0BeyondHorizonIsRejected) {
  ScenarioRegistry registry;
  ASSERT_TRUE(registry.Load("default", scratch_.path(), BaseIngest()).ok());
  Engine engine(&registry);
  QueryParams params = BaseParams();
  params.t0 = 1000000;
  Result<QueryOutcome> outcome = engine.ExecuteQuery(params);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(outcome.status().message().find("horizon"), std::string::npos);
}

TEST_F(EngineTest, WireBoundsAreReCheckedForInProcessCallers) {
  // The daemon's codec already refuses these, but batch `freshsel select`
  // and tests build QueryParams directly; the engine must reject them
  // before MakeTimePoints sizes an allocation from them or a selector
  // narrows them to int.
  ScenarioRegistry registry;
  ASSERT_TRUE(registry.Load("default", scratch_.path(), BaseIngest()).ok());
  Engine engine(&registry);

  QueryParams params = BaseParams();
  params.points = std::int64_t{4} * 1000 * 1000 * 1000 * 1000 * 1000 * 1000;
  Result<QueryOutcome> outcome = engine.ExecuteQuery(params);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(outcome.status().message().find("points"), std::string::npos);

  params = BaseParams();
  params.stride = std::int64_t{1} << 62;  // t0 + i * stride would overflow.
  outcome = engine.ExecuteQuery(params);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);

  params = BaseParams();  // points=3, stride=14: each in range...
  params.points = kMaxEvalSpanSteps;  // ...but the product is not.
  outcome = engine.ExecuteQuery(params);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);

  params = BaseParams();
  params.kappa = std::int64_t{5} * 1000 * 1000 * 1000;  // Negative as int.
  params.algorithm = "grasp";
  outcome = engine.ExecuteQuery(params);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(outcome.status().message().find("kappa"), std::string::npos);

  params = BaseParams();
  params.restarts = std::int64_t{1} << 40;
  outcome = engine.ExecuteQuery(params);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);

  params = BaseParams();
  params.threads = 0;
  outcome = engine.ExecuteQuery(params);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(EngineTest, CodecAndEngineRefuseTheSameQueriesAlike) {
  // One validator serves the wire and the in-process entry points, so a
  // query the daemon refuses is refused with the same message in process,
  // before the prepared cache is touched.
  ScenarioRegistry registry;
  ASSERT_TRUE(registry.Load("default", scratch_.path(), BaseIngest()).ok());
  Engine engine(&registry);

  using Mutation = void (*)(QueryParams*);
  const std::vector<Mutation> mutations = {
      [](QueryParams* p) { p->metric = "recall"; },
      [](QueryParams* p) { p->gain = "cubic"; },
      [](QueryParams* p) { p->algorithm = "annealing"; },
      [](QueryParams* p) { p->budget = 0.0; },
      [](QueryParams* p) { p->budget = -1.0; },
      [](QueryParams* p) { p->t0 = -1; },
      [](QueryParams* p) { p->points = 0; },
      [](QueryParams* p) { p->points = 4000000000000000000; },
      [](QueryParams* p) { p->points = kMaxEvalSpanSteps + 1; },
      [](QueryParams* p) { p->stride = 0; },
      [](QueryParams* p) { p->stride = 4000000000000000000; },
      [](QueryParams* p) { p->stride = kMaxEvalSpanSteps + 1; },
      [](QueryParams* p) { p->points = kMaxEvalSpanSteps, p->stride = 2; },
      [](QueryParams* p) { p->stride = kMaxEvalSpanSteps, p->points = 2; },
      [](QueryParams* p) { p->points = 1025, p->stride = 1024; },
      [](QueryParams* p) { p->stride = kMaxEvalSpanSteps; },
      [](QueryParams* p) { p->threads = 0; },
      [](QueryParams* p) { p->threads = kMaxQueryThreads + 1; },
      [](QueryParams* p) { p->stochastic_epsilon = 0.0; },
      [](QueryParams* p) { p->stochastic_epsilon = 1.0; },
      [](QueryParams* p) { p->max_divisor = 0; },
      [](QueryParams* p) { p->max_divisor = kMaxQueryDivisor + 1; },
      [](QueryParams* p) { p->kappa = 5000000000; },
      [](QueryParams* p) { p->kappa = kMaxQueryKappa + 1; },
      [](QueryParams* p) { p->restarts = 5000000000; },
      [](QueryParams* p) { p->restarts = kMaxQueryRestarts + 1; },
      [](QueryParams* p) { p->scenario = ""; },
      [](QueryParams* p) { p->scenario = "../etc"; },
      [](QueryParams* p) { p->scenario = "a b"; },
      [](QueryParams* p) { p->roster = {"a", "a"}; },
      [](QueryParams* p) { p->roster = {""}; },
  };
  for (std::size_t i = 0; i < mutations.size(); ++i) {
    QueryParams params = BaseParams();
    mutations[i](&params);
    const std::string line = SerializeQueryRequest(false, 0, params);
    Result<Request> parsed = ParseRequest(line);
    ASSERT_FALSE(parsed.ok()) << line;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << line;
    Result<QueryOutcome> outcome = engine.ExecuteQuery(params);
    ASSERT_FALSE(outcome.ok()) << line;
    EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument) << line;
    EXPECT_EQ(outcome.status().message(), parsed.status().message()) << line;
  }
  EXPECT_EQ(engine.prepared_cache_stats().misses, 0u);
  EXPECT_EQ(engine.prepared_cache_stats().hits, 0u);
}

TEST_F(EngineTest, ManifestT0IsTheDefaultCutoff) {
  ScenarioRegistry registry;
  Result<ScenarioInfo> info =
      registry.Load("default", scratch_.path(), IngestOptions{});
  ASSERT_TRUE(info.ok());
  Engine engine(&registry);
  QueryParams params = BaseParams();
  params.t0 = 0;  // "Use the scenario's manifest cutoff."
  Result<QueryOutcome> outcome = engine.ExecuteQuery(params);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_FALSE(outcome->selected.empty());
}

TEST_F(EngineTest, UnknownScenarioSurfacesAsNotFound) {
  ScenarioRegistry registry;
  Engine engine(&registry);
  QueryParams params = BaseParams();
  params.scenario = "missing";
  Result<QueryOutcome> outcome = engine.ExecuteQuery(params);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kNotFound);
}

TEST_F(EngineTest, LoadScenarioOpIngestsAtRuntime) {
  ScenarioRegistry registry;
  Engine::Options options;
  options.ingest = BaseIngest();
  Engine engine(&registry, options);
  LoadParams load;
  load.scenario = "runtime";
  load.dir = scratch_.path();
  Result<ScenarioInfo> info = engine.LoadScenario(load);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->name, "runtime");
  ASSERT_EQ(engine.ListScenarios().size(), 1u);
  EXPECT_EQ(engine.ListScenarios()[0].name, "runtime");

  QueryParams params = BaseParams();
  params.scenario = "runtime";
  EXPECT_TRUE(engine.ExecuteQuery(params).ok());
}

/// A scenario directory with a hostile header fails its load with the
/// reader's status, and the registry keeps serving the previous epoch.
TEST_F(EngineTest, HostileHeaderLoadFailsAndKeepsTheOldEpoch) {
  ScenarioRegistry registry;
  Engine::Options options;
  options.ingest = BaseIngest();
  Engine engine(&registry, options);
  LoadParams load;
  load.scenario = "default";
  load.dir = scratch_.path();
  ASSERT_TRUE(engine.LoadScenario(load).ok());

  const std::vector<std::pair<std::string, std::string>> hostile = {
      {"world.csv", "#world,location,5,category,2,-5\n"
                    "id,subdomain,birth,death,updates\n"},
      {"world.csv", "#world,location,1,category,1,9000000000000000000\n"
                    "id,subdomain,birth,death,updates\n"},
      {"source_000.csv", "#source,s,1,0,-1\n#scope,0\n"
                         "entity,subdomain,inserted,deleted,captures\n"}};
  for (const auto& [file, text] : hostile) {
    SCOPED_TRACE(file);
    testing::ScratchDir dir("hostile");
    for (const auto& entry :
         std::filesystem::directory_iterator(scratch_.path())) {
      std::filesystem::copy(entry.path(),
                            dir.path() + "/" +
                                entry.path().filename().string());
    }
    {
      std::ofstream out(dir.path() + "/" + file, std::ios::trunc);
      out << text;
    }
    load.dir = dir.path();
    const Result<ScenarioInfo> info = engine.LoadScenario(load);
    ASSERT_FALSE(info.ok());
    EXPECT_EQ(info.status().code(), StatusCode::kInvalidArgument)
        << info.status().ToString();
    const std::vector<ScenarioInfo> list = engine.ListScenarios();
    ASSERT_EQ(list.size(), 1u);
    EXPECT_EQ(list[0].epoch, 1u);
  }
  EXPECT_TRUE(engine.ExecuteQuery(BaseParams()).ok());
}

TEST_F(EngineTest, RequestedReportIsSchemaV2Json) {
  ScenarioRegistry registry;
  ASSERT_TRUE(registry.Load("default", scratch_.path(), BaseIngest()).ok());
  Engine engine(&registry);
  QueryParams params = BaseParams();
  params.include_report = true;
  Result<QueryOutcome> outcome = engine.ExecuteQuery(params);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_FALSE(outcome->report_json.empty());
  Result<obs::JsonValue> report = obs::ParseJson(outcome->report_json);
  ASSERT_TRUE(report.ok()) << outcome->report_json.substr(0, 200);
  EXPECT_EQ(report->StringOr("name", ""), "serve/query");
  const obs::JsonValue* labels = report->Find("labels");
  ASSERT_NE(labels, nullptr);
  EXPECT_EQ(labels->StringOr("scenario", ""), "default");
}

TEST_F(EngineTest, QueryFailpointSurfacesAsStructuredError) {
  ScenarioRegistry registry;
  ASSERT_TRUE(registry.Load("default", scratch_.path(), BaseIngest()).ok());
  Engine engine(&registry);
  ASSERT_TRUE(fault::FailpointRegistry::Global()
                  .ArmFromSpec("serve.query=always")
                  .ok());
  Result<QueryOutcome> outcome = engine.ExecuteQuery(BaseParams());
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(outcome.status().message().find("injected fault"),
            std::string::npos);
  fault::FailpointRegistry::Global().DisarmAll();
  EXPECT_TRUE(engine.ExecuteQuery(BaseParams()).ok());  // Recovers.
}

TEST_F(EngineTest, ColdBuildDoesNotBlockHitsOnOtherKeys) {
  ScenarioRegistry registry;
  ASSERT_TRUE(registry.Load("default", scratch_.path(), BaseIngest()).ok());
  Engine engine(&registry);
  // Armed but never firing: the failpoint's hit count is the number of
  // builds that have finished.
  ASSERT_TRUE(fault::FailpointRegistry::Global()
                  .ArmFromSpec("serve.prepare=prob:0")
                  .ok());
  const fault::Failpoint& builds_done =
      fault::FailpointRegistry::Global().Get("serve.prepare");
  ASSERT_TRUE(engine.ExecuteQuery(BaseParams()).ok());  // Warms K2.
  ASSERT_EQ(builds_done.hits(), 1u);

  Result<QueryOutcome> cold = Status::Internal("not run");
  std::thread cold_caller(
      [&] { cold = engine.ExecuteQuery(SlowParams(registry)); });
  WaitForMisses(engine, 2);  // K1's build has started.
  Result<QueryOutcome> warm = engine.ExecuteQuery(BaseParams());
  const std::uint64_t finished = builds_done.hits();
  cold_caller.join();
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(finished, 1u) << "the K2 hit waited for K1's build";
  EXPECT_EQ(engine.prepared_cache_stats().hits, 1u);
  EXPECT_EQ(engine.prepared_cache_stats().misses, 2u);
}

TEST_F(EngineTest, FailedBuildReachesEveryCoalescedCallerAndIsNotCached) {
  ScenarioRegistry registry;
  ASSERT_TRUE(registry.Load("default", scratch_.path(), BaseIngest()).ok());
  Engine engine(&registry);
  ASSERT_TRUE(fault::FailpointRegistry::Global()
                  .ArmFromSpec("serve.prepare=once")
                  .ok());

  constexpr int kCallers = 4;
  std::vector<Result<QueryOutcome>> results(
      kCallers, Result<QueryOutcome>(Status::Internal("not run")));
  std::vector<std::thread> callers;
  callers.emplace_back(
      [&] { results[0] = engine.ExecuteQuery(SlowParams(registry)); });
  WaitForMisses(engine, 1);  // The build is running; the rest coalesce.
  for (int i = 1; i < kCallers; ++i) {
    callers.emplace_back([&, i] {
      results[static_cast<std::size_t>(i)] =
          engine.ExecuteQuery(SlowParams(registry));
    });
  }
  for (std::thread& t : callers) t.join();

  for (const Result<QueryOutcome>& result : results) {
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
    EXPECT_NE(result.status().message().find("serve.prepare"),
              std::string::npos);
  }
  EXPECT_EQ(engine.prepared_cache_stats().misses, 1u);
  EXPECT_EQ(engine.prepared_cache_stats().hits,
            static_cast<std::uint64_t>(kCallers - 1));

  // Nothing was cached: the next call builds again, and succeeds.
  EXPECT_TRUE(engine.ExecuteQuery(SlowParams(registry)).ok());
  EXPECT_EQ(engine.prepared_cache_stats().misses, 2u);
}

TEST_F(EngineTest, IngestFailpointSurfacesAsStructuredError) {
  ScenarioRegistry registry;
  Engine engine(&registry);
  ASSERT_TRUE(fault::FailpointRegistry::Global()
                  .ArmFromSpec("serve.ingest=always")
                  .ok());
  LoadParams load;
  load.scenario = "faulty";
  load.dir = scratch_.path();
  Result<ScenarioInfo> info = engine.LoadScenario(load);
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(engine.ListScenarios().empty());  // Nothing half-loaded.
}

}  // namespace
}  // namespace freshsel::serve
