#include "workload.h"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "common/random.h"
#include "common/string_util.h"
#include "io/scenario_io.h"
#include "obs/report.h"
#include "serve/engine.h"
#include "serve/ingest.h"
#include "workloads/bl_generator.h"

namespace perfbench {

namespace serve = freshsel::serve;
using freshsel::Result;
using freshsel::Status;

namespace {

constexpr const char* kMetrics[] = {"coverage", "freshness"};
constexpr double kWarmBudgets[] = {0.3, 0.5, 0.7, 0.9};
constexpr const char* kWarmAlgorithms[] = {"greedy", "maxsub", "budgeted"};

/// Long enough that a client never sees the sequence wrap within a run at
/// today's rates; wrapping is harmless anyway (every query is warm).
constexpr std::size_t kSequenceLength = std::size_t{1} << 16;

/// Class (b): 24 cold shapes fill the 32-entry prepared cache beside the 8
/// warm ones; then one cold query goes out per 24 warm replies (about 2 a
/// second). The pool is the same on every seed, so its answers are computed
/// once per build; each seed sends it in its own order, and a run uses far
/// fewer budgets than the pool holds.
constexpr std::size_t kColdPrefill = 24;
constexpr std::uint64_t kWarmPerCold = 24;
constexpr std::size_t kColdPoolSize = 512;

serve::QueryParams Params(const char* algorithm, const char* metric,
                          double budget) {
  serve::QueryParams params;
  params.scenario = kDefaultScenario;
  params.algorithm = algorithm;
  params.metric = metric;
  params.budget = budget;
  return params;
}

Query MakeQuery(serve::QueryParams params) {
  Query query;
  query.line = serve::SerializeQueryRequest(false, 0, params);
  query.params = std::move(params);
  return query;
}

std::vector<Query> WarmSelectQueries() {
  std::vector<Query> queries;
  for (const char* metric : kMetrics) {
    for (double budget : kWarmBudgets) {
      for (const char* algorithm : kWarmAlgorithms) {
        queries.push_back(MakeQuery(Params(algorithm, metric, budget)));
      }
    }
  }
  return queries;
}

/// Budgets on a 1e-4 grid in [0.25, 0.95], distinct from each other and
/// from the warm budgets, so every one is a prepared-cache miss.
std::vector<Query> ColdQueries() {
  freshsel::Rng rng(0xc01dc01dULL);
  std::set<std::int64_t> used;
  for (double budget : kWarmBudgets) {
    used.insert(static_cast<std::int64_t>(budget * 10000 + 0.5));
  }
  std::vector<Query> queries;
  while (queries.size() < kColdPoolSize) {
    const std::int64_t basis_points = rng.UniformInt(2500, 9500);
    if (!used.insert(basis_points).second) continue;
    const char* metric = kMetrics[rng.NextBounded(2)];
    const char* algorithm = kWarmAlgorithms[rng.NextBounded(3)];
    queries.push_back(MakeQuery(Params(
        algorithm, metric, static_cast<double>(basis_points) / 10000.0)));
  }
  return queries;
}

}  // namespace

Result<Workload> ParseWorkload(const std::string& name) {
  for (Workload workload :
       {Workload::kWarmSelect, Workload::kChurn}) {
    if (name == WorkloadName(workload)) return workload;
  }
  return Status::InvalidArgument("unknown workload: " + name);
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kWarmSelect:
      return "warm_select";
    case Workload::kChurn:
      return "churn";
  }
  return "?";
}

Plan MakePlan(Workload workload, std::uint64_t seed) {
  Plan plan;
  plan.workload = workload;
  plan.warm = WarmSelectQueries();
  freshsel::Rng rng(seed ^ 0x5e9e5e9eULL);
  plan.warm_sequence.reserve(kSequenceLength);
  for (std::size_t i = 0; i < kSequenceLength; ++i) {
    plan.warm_sequence.push_back(
        static_cast<std::uint32_t>(rng.NextBounded(plan.warm.size())));
  }
  if (workload == Workload::kChurn) {
    plan.warm_clients = 1;
    plan.cold = ColdQueries();
    plan.cold_sequence.resize(plan.cold.size());
    for (std::uint32_t i = 0; i < plan.cold_sequence.size(); ++i) {
      plan.cold_sequence[i] = i;
    }
    // Fisher-Yates on the repository's Rng: the same order on every
    // standard library, unlike std::shuffle.
    for (std::size_t i = plan.cold_sequence.size() - 1; i > 0; --i) {
      std::swap(plan.cold_sequence[i],
                plan.cold_sequence[rng.NextBounded(i + 1)]);
    }
    plan.cold_prefill = kColdPrefill;
    plan.warm_per_cold = kWarmPerCold;
    plan.reloads = true;
  }
  return plan;
}

namespace {

/// Written last into a scenario directory, so its presence marks the
/// directory complete.
constexpr const char* kScenarioInfoFile = "scenario.tsv";

/// Writes `lines` to `path` through a temporary file, so that a file under
/// the panel either is complete or does not exist.
Status WriteAtomically(const std::string& path, const std::string& lines) {
  const std::string temporary = path + ".tmp";
  {
    std::ofstream out(temporary);
    out << lines;
    out.flush();
    if (!out) return Status::IoError("cannot write " + temporary);
  }
  std::error_code ec;
  std::filesystem::rename(temporary, path, ec);
  if (ec) return Status::IoError("cannot rename " + temporary);
  return Status::OK();
}

std::string ScenarioLine(const serve::ScenarioInfo& info) {
  std::ostringstream line;
  line << "scenario\t" << info.name << '\t' << info.sources << '\t'
       << info.entities << '\t' << info.t0 << '\n';
  return line.str();
}

/// One query's line of the digest: what it asked and, of its answer, the
/// facts that do not depend on how the text prints a number.
std::string DigestLine(const serve::QueryParams& params,
                       const serve::QueryOutcome& outcome) {
  std::string selected;
  for (const serve::SelectedSource& source : outcome.selected) {
    if (!selected.empty()) selected += ',';
    selected += source.name + ':' + std::to_string(source.divisor);
  }
  return freshsel::StringPrintf(
      "query\t%s\t%s\t%.4f\t%llu\t%.6g\t%s\n", params.algorithm.c_str(),
      params.metric.c_str(), params.budget,
      static_cast<unsigned long long>(outcome.oracle_calls), outcome.profit,
      selected.c_str());
}

/// Expected answers of `queries`, computed with serve::ExecuteSelect on
/// `threads` threads: the answer lines, and the digest lines to check them
/// against.
struct AnswerSet {
  std::string lines;
  std::string digest;
};

Result<AnswerSet> AnswerLines(
    const std::shared_ptr<const serve::ResidentScenario>& resident,
    const std::vector<Query>& queries, std::size_t threads) {
  std::vector<Expected::Answer> answers(queries.size());
  std::vector<std::string> digests(queries.size());
  std::vector<Status> errors(queries.size());
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i = next++; i < queries.size(); i = next++) {
      std::ostringstream text;
      freshsel::obs::RunReport report;
      serve::QueryOutcome outcome;
      errors[i] = serve::ExecuteSelect(resident, queries[i].params, text,
                                       &report, &outcome);
      outcome.text = text.str();
      answers[i].response = serve::SerializeQueryOutcome(false, 0, outcome);
      answers[i].oracle_calls = outcome.oracle_calls;
      digests[i] = DigestLine(queries[i].params, outcome);
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& thread : pool) thread.join();
  AnswerSet set;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    FRESHSEL_RETURN_IF_ERROR(errors[i]);
    set.lines += "query\t" + std::to_string(answers[i].oracle_calls) + '\t' +
                 queries[i].line + '\t' + answers[i].response + '\n';
    set.digest += digests[i];
  }
  return set;
}

/// Fails unless every line of `digest` is a line of the committed digest
/// at `path`. That file covers every query of every workload; as a line
/// names its query by algorithm, metric and budget, a query whose answer
/// changed has no matching line.
Status CheckDigest(const std::string& digest, const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot read " + path);
  std::set<std::string> committed;
  std::string line;
  while (std::getline(in, line)) committed.insert(line);
  std::istringstream fresh(digest);
  while (std::getline(fresh, line)) {
    if (committed.count(line) == 0) {
      return Status::FailedPrecondition("not in " + path + ": " + line);
    }
  }
  return Status::OK();
}

Status ReadTsv(const std::string& path, Expected* expected) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot read " + path);
  std::string line;
  while (std::getline(in, line)) {
    // JSON escapes tabs inside strings, so a tab only ever separates fields.
    const std::vector<std::string> fields = freshsel::Split(line, '\t');
    if (fields.size() == 5 && fields[0] == "scenario") {
      serve::ScenarioInfo& info = expected->scenarios[fields[1]];
      info.name = fields[1];
      info.sources = std::stoull(fields[2]);
      info.entities = std::stoull(fields[3]);
      info.t0 = std::stoll(fields[4]);
    } else if (fields.size() == 4 && fields[0] == "query") {
      expected->answers[fields[2]] = {fields[3], std::stoull(fields[1])};
    } else {
      return Status::InvalidArgument("malformed line in " + path);
    }
  }
  return Status::OK();
}

std::string AnswersPath(const Plan& plan, const std::string& panel) {
  return panel + "/" + WorkloadName(plan.workload) + ".tsv";
}

/// Seed of the BL scenario served under `name`: the generator's default
/// panel for the queried scenario, the next seed for the reloaded one, on
/// every benchmark seed. Seeding the queried scenario from the benchmark
/// seed made the work per query, and so qps, differ by 40% (interquartile
/// range over median) between seeds, which no run length averages away;
/// the benchmark seed varies the request order and the order of the cold
/// budgets.
std::uint64_t ScenarioSeed(const std::string& name) {
  const std::uint64_t panel = freshsel::workloads::BlConfig().seed;
  return name == kDefaultScenario ? panel : panel + 1;
}

/// Scenarios every workload loads, in load order.
constexpr const char* kScenarioNames[] = {kDefaultScenario, kOtherScenario};

/// Writes the BL scenario of `seed` to `dir` in the `freshsel simulate`
/// layout (world.csv, source_NNN.csv, manifest.csv), plus the load
/// response the daemon must give for it as `name` (epoch left 0).
Status WriteBlScenario(std::uint64_t seed, const std::string& name,
                       const std::string& dir) {
  freshsel::workloads::BlConfig config;
  config.seed = seed;
  FRESHSEL_ASSIGN_OR_RETURN(const freshsel::workloads::Scenario scenario,
                            freshsel::workloads::GenerateBlScenario(config));
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create " + dir);
  FRESHSEL_RETURN_IF_ERROR(
      freshsel::io::WriteWorldCsv(scenario.world, dir + "/world.csv"));
  for (std::size_t i = 0; i < scenario.sources.size(); ++i) {
    FRESHSEL_RETURN_IF_ERROR(freshsel::io::WriteSourceHistoryCsv(
        scenario.sources[i],
        dir + "/" + freshsel::StringPrintf("source_%03zu.csv", i)));
  }
  std::ofstream manifest(dir + "/manifest.csv");
  manifest << "t0," << scenario.t0 << "\n";
  if (!manifest) return Status::IoError("cannot write " + dir);
  serve::ScenarioInfo info;
  info.name = name;
  info.sources = scenario.sources.size();
  info.entities = scenario.world.entity_count();
  info.t0 = scenario.t0;
  // Last: its presence marks the directory complete.
  return WriteAtomically(dir + "/" + kScenarioInfoFile, ScenarioLine(info));
}

}  // namespace

Status Generate(const Plan& plan, const std::string& panel,
                const std::string& digest_path, std::size_t threads) {
  for (const std::string name : kScenarioNames) {
    const std::string dir = panel + "/" + name;
    if (!std::filesystem::exists(dir + "/" + kScenarioInfoFile)) {
      FRESHSEL_RETURN_IF_ERROR(WriteBlScenario(ScenarioSeed(name), name, dir));
    }
  }
  const std::string answers_path = AnswersPath(plan, panel);
  if (std::filesystem::exists(answers_path)) return Status::OK();
  // Every query goes to the default scenario.
  FRESHSEL_ASSIGN_OR_RETURN(
      serve::ResidentScenario scenario,
      serve::IngestScenario(kDefaultScenario,
                            panel + "/" + kDefaultScenario,
                            serve::IngestOptions()));
  const auto resident =
      std::make_shared<const serve::ResidentScenario>(std::move(scenario));
  std::vector<Query> queries = plan.warm;
  queries.insert(queries.end(), plan.cold.begin(), plan.cold.end());
  FRESHSEL_ASSIGN_OR_RETURN(const AnswerSet answers,
                            AnswerLines(resident, queries, threads));
  std::string digest;
  for (const std::string name : kScenarioNames) {
    std::ifstream info(panel + "/" + name + "/" + kScenarioInfoFile);
    std::string line;
    std::getline(info, line);
    digest += line + '\n';
  }
  digest += answers.digest;
  const Status checked = CheckDigest(digest, digest_path);
  if (!checked.ok()) {
    // For whoever changed the answers on purpose: the digest to commit.
    const std::string fresh =
        panel + "/" + WorkloadName(plan.workload) + ".digest.tsv";
    FRESHSEL_RETURN_IF_ERROR(WriteAtomically(fresh, digest));
    return Status::FailedPrecondition(checked.message() +
                                      " (this build's digest: " + fresh + ")");
  }
  return WriteAtomically(answers_path, answers.lines);
}

Result<Expected> ReadExpected(const Plan& plan, const std::string& panel) {
  Expected expected;
  for (const std::string name : kScenarioNames) {
    FRESHSEL_RETURN_IF_ERROR(ReadTsv(
        panel + "/" + name + "/" + kScenarioInfoFile, &expected));
  }
  FRESHSEL_RETURN_IF_ERROR(ReadTsv(AnswersPath(plan, panel), &expected));
  return expected;
}

}  // namespace perfbench
