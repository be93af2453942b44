// Serve-path benchmark program (README.md). run.py invokes it twice per run,
// as two processes, so that the benchmark's own set-up never shows in the
// measured process's memory:
//
//   serve_bench generate --workload W --seed N --panel P --digest F
//       completes the panel P: the BL scenario files and the expected
//       answer of every distinct request, checked against the digest F
//       (see workload.h);
//   serve_bench run --workload W --seed N --seconds S --trace 0|1 --panel P
//       --dir D [--trace-out FILE]
//       serves P's scenarios from an in-process daemon listening in D,
//       drives it with closed-loop clients over a unix socket, checks every
//       response and prints a report line followed by the result line.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/simd.h"
#include "common/thread_annotations.h"
#include "estimation/degradation.h"
#include "estimation/world_change_model.h"
#include "obs/json.h"
#include "obs/report.h"
#include "serve/client.h"
#include "serve/engine.h"
#include "serve/ingest.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "spans.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace serve = freshsel::serve;
using freshsel::Result;
using freshsel::Status;

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// warm_select: loads of the other scenario before the clock, with nothing
/// else running. With the set-ups' loads they give reload_p50_ms.
constexpr int kQuietReloads = 6;
/// Untimed closed-loop phase between set-up and the clock.
constexpr double kSettleSeconds = 1.0;
/// Layer-pass repetitions (traced runs only).
constexpr int kLoadRepeats = 3;
constexpr int kSelectRepeats = 3;
constexpr std::size_t kColdPrepareSamples = 16;
/// Length of each recording window of a traced phase; windows alternate
/// between off and on.
constexpr std::int64_t kTraceWindowNs = 1'000'000'000;

constexpr const char* kAlgorithms[] = {"greedy", "maxsub", "budgeted"};

struct Options {
  std::string mode;
  Workload workload = Workload::kWarmSelect;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string panel;
  std::string dir;
  std::string trace_out;
  std::string digest;
};

Result<Options> ParseOptions(int argc, char** argv) {
  if (argc < 2) {
    return Status::InvalidArgument("usage: serve_bench generate|run ...");
  }
  Options options;
  options.mode = argv[1];
  if (options.mode != "generate" && options.mode != "run") {
    return Status::InvalidArgument("unknown mode: " + options.mode);
  }
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      FRESHSEL_ASSIGN_OR_RETURN(options.workload, ParseWorkload(value));
    } else if (flag == "--seed" || flag == "--seconds") {
      std::size_t used = 0;
      try {
        if (flag == "--seed") {
          options.seed = std::stoull(value, &used);
        } else {
          options.seconds = std::stod(value, &used);
        }
      } catch (const std::exception&) {
        used = 0;
      }
      if (used == 0 || used != value.size()) {
        return Status::InvalidArgument("bad " + flag + ": " + value);
      }
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--panel") {
      options.panel = value;
    } else if (flag == "--dir") {
      options.dir = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--digest") {
      options.digest = value;
    } else {
      return Status::InvalidArgument("unknown flag: " + flag);
    }
  }
  if (argc % 2 != 0) return Status::InvalidArgument("flag without a value");
  if (options.panel.empty()) return Status::InvalidArgument("--panel needed");
  if (options.mode == "run" && options.dir.empty()) {
    return Status::InvalidArgument("--dir needed");
  }
  if (options.mode == "generate" && options.digest.empty()) {
    return Status::InvalidArgument("--digest needed");
  }
  if (!(options.seconds > 0)) {
    return Status::InvalidArgument("--seconds must be positive");
  }
  return options;
}

/// Nearest-rank quantile: always one of the observed values.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double value : values) sum += value;
  return sum / static_cast<double>(values.size());
}

int CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return static_cast<int>(std::thread::hardware_concurrency());
  }
  return CPU_COUNT(&set);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

/// Requests sent, and how many came back wrong. `overloaded` responses are
/// failures too, counted separately so a shed request is visible as such.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t overloaded = 0;

  void Add(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    overloaded += other.overloaded;
  }
};

/// Compares one response byte for byte with its expected line.
bool Check(const Result<std::string>& response, const std::string& expected,
           Tally* tally) {
  ++tally->attempted;
  if (response.ok() && *response == expected) return true;
  ++tally->failed;
  if (response.ok() &&
      response->find("\"code\":\"overloaded\"") != std::string::npos) {
    ++tally->overloaded;
  }
  return false;
}

/// Most clients one phase runs: two warm clients, or one of each class.
constexpr int kMaxClients = 3;

/// The announced client a connection thread serves; -1 until announced.
thread_local int served_client = -1;

/// Server-side spans, taken by a handler wrapped around the engine's own.
/// The server gives every connection its own thread, so a span is tied to
/// its client through the thread that served it: before a recorded phase
/// each client announces itself with an op:"list", which reaches the
/// handler on that thread. Each client switches recording of its own
/// requests on and off before sending them, so the client knows exactly
/// which of its requests have a server span.
class TracingHandler : public serve::RequestHandler {
 public:
  explicit TracingHandler(serve::RequestHandler* inner) : inner_(inner) {}

  Result<serve::QueryOutcome> HandleQuery(
      const serve::QueryParams& params) override {
    if (!Recording()) return inner_->HandleQuery(params);
    const std::int64_t start = NowNs();
    Result<serve::QueryOutcome> outcome = inner_->HandleQuery(params);
    Record("serve.engine.query", start);
    return outcome;
  }

  Result<serve::ScenarioInfo> HandleLoad(
      const serve::LoadParams& params) override {
    if (!Recording()) return inner_->HandleLoad(params);
    const std::int64_t start = NowNs();
    Result<serve::ScenarioInfo> info = inner_->HandleLoad(params);
    Record("serve.engine.load", start);
    return info;
  }

  std::vector<serve::ScenarioInfo> ListScenarios() override {
    served_client = announcing_.load(std::memory_order_acquire);
    return inner_->ListScenarios();
  }

  std::string MetricsText() override { return inner_->MetricsText(); }

  /// The client whose op:"list" arrives next; -1 ends the announcements.
  void Announce(int client) {
    announcing_.store(client, std::memory_order_release);
  }

  /// Whether `client`'s next requests are recorded. Set by the client
  /// itself between requests.
  void SetRecording(int client, bool on) {
    recording_[client].store(on, std::memory_order_release);
  }

  /// Spans per announced client, in the order served.
  std::map<int, std::vector<Span>> TakeSpans() {
    freshsel::MutexLock lock(mutex_);
    std::map<int, std::vector<Span>> spans = std::move(spans_);
    spans_.clear();
    return spans;
  }

 private:
  bool Recording() const {
    const int client = served_client;
    return client >= 0 &&
           recording_[client].load(std::memory_order_acquire);
  }

  void Record(const char* name, std::int64_t start) {
    Span span;
    span.name = name;
    span.start_ns = start;
    span.end_ns = NowNs();
    freshsel::MutexLock lock(mutex_);
    spans_[served_client].push_back(std::move(span));
  }

  serve::RequestHandler* const inner_;
  std::atomic<int> announcing_{-1};
  std::atomic<bool> recording_[kMaxClients] = {};
  freshsel::Mutex mutex_;
  std::map<int, std::vector<Span>> spans_ FRESHSEL_GUARDED_BY(mutex_);
};

serve::Server::Options ServerOptions(const std::string& socket) {
  serve::Server::Options options;
  options.unix_socket = socket;
  return options;
}

/// The daemon as `freshsel serve` assembles it, in process.
struct Daemon {
  Daemon(bool traced, const std::string& socket)
      : engine(&registry),
        handler(&engine),
        tracing(&handler),
        server(traced ? static_cast<serve::RequestHandler*>(&tracing)
                      : &handler,
               ServerOptions(socket)) {}

  serve::ScenarioRegistry registry;
  serve::Engine engine;
  serve::EngineHandler handler;
  TracingHandler tracing;
  serve::Server server;
};

/// One request as its client saw it.
struct Sample {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t index = 0;  ///< Query index within its class.
  bool reached_handler = true;
  bool traced = false;  ///< Sent while its client's recording was on.

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

struct ClientLog {
  char request_class = 'a';
  std::vector<Sample> samples;
  Tally tally;
};

struct Phase {
  std::int64_t start_ns = 0;
  std::int64_t deadline_ns = 0;
  std::vector<ClientLog> clients;
  std::map<int, std::vector<Span>> server_spans;
  std::uint64_t queued_max = 0;
  serve::Engine::CacheStats prepared;  ///< Over this phase.

  /// A traced phase records in every other window, so that the traced and
  /// untraced requests it compares share the machine's drift.
  bool RecordingAt(std::int64_t now_ns) const {
    return ((now_ns - start_ns) / kTraceWindowNs) % 2 == 1;
  }

  std::vector<double> LatenciesMs(char request_class) const {
    std::vector<double> latencies;
    for (const ClientLog& client : clients) {
      if (client.request_class != request_class) continue;
      for (const Sample& sample : client.samples) {
        latencies.push_back(sample.ms());
      }
    }
    return latencies;
  }

  /// Class (a) latencies of the requests sent with recording on or off.
  std::vector<double> WarmLatenciesMs(bool traced) const {
    std::vector<double> latencies;
    for (const ClientLog& client : clients) {
      if (client.request_class != 'a') continue;
      for (const Sample& sample : client.samples) {
        if (sample.traced == traced) latencies.push_back(sample.ms());
      }
    }
    return latencies;
  }

  /// Class (a) completions per second over the phase: the mean rate,
  /// which weighs fast and slow stretches of a shared machine by their
  /// length (a median over one-second windows flips between them). Timed
  /// to the last completion, so the figure keeps all its digits.
  double Rate() const {
    std::size_t completed = 0;
    std::int64_t last = start_ns;
    for (const ClientLog& client : clients) {
      if (client.request_class != 'a') continue;
      for (const Sample& sample : client.samples) {
        if (sample.end_ns > deadline_ns) continue;
        ++completed;
        last = std::max(last, sample.end_ns);
      }
    }
    if (last == start_ns) return 0.0;
    return static_cast<double>(completed) * 1e9 /
           static_cast<double>(last - start_ns);
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

class Bench {
 public:
  Bench(Options options, Plan plan, Expected expected)
      : options_(std::move(options)),
        plan_(std::move(plan)),
        expected_(std::move(expected)),
        socket_(options_.dir + "/serve.sock") {}

  int Run();

 private:
  Status ResolveAnswers();
  Status SetupOnce();
  Status Load(serve::Client* client, const std::string& name);
  /// A timed phase runs every request class; the settle phase before it,
  /// class (a) only.
  Result<Phase> RunPhase(double seconds, bool timed, bool record);
  void Drive(serve::Client* client, int index, const Phase& phase,
             bool record, ClientLog* log);
  std::string LoadLine(const std::string& name) const;
  std::string LoadAnswer(const std::string& name, std::uint64_t epoch) const;
  Result<std::vector<Span>> Correlate(const Phase& phase) const;
  Status LayerPass(std::vector<Span>* spans, std::vector<Metric>* metrics);
  std::vector<Metric> EndToEnd(const Phase& phase) const;
  Status PerLayer(const Phase& traced, std::vector<Metric>* metrics);
  std::string ReportJson(const std::vector<Metric>& metrics,
                         const serve::Engine::CacheStats& timed, bool warm_ok,
                         std::uint64_t misses_after_warmup) const;

  const Options options_;
  const Plan plan_;
  const Expected expected_;
  const std::string socket_;
  std::vector<const Expected::Answer*> warm_answers_;
  std::vector<const Expected::Answer*> cold_answers_;

  std::unique_ptr<Daemon> daemon_;
  /// Epoch the current daemon's registry assigns to the next load.
  std::uint64_t next_epoch_ = 1;
  std::atomic<std::size_t> warm_cursor_{0};
  std::atomic<std::size_t> cold_cursor_{0};
  /// Class (a) replies so far; class (b) paces itself on it.
  std::atomic<std::uint64_t> warm_completed_{0};

  std::map<std::string, Tally> tallies_;
  std::vector<double> setup_s_;
  /// Loads made with nothing else running: the set-ups', and warm_select's
  /// reloads before the clock.
  std::vector<double> quiet_load_ms_;
  std::vector<double> setup_cold_ms_;
  std::uint64_t oracle_calls_total_ = 0;
  std::uint64_t memo_lookups_ = 0;
};

Status Bench::ResolveAnswers() {
  auto resolve = [&](const std::vector<Query>& queries,
                     std::vector<const Expected::Answer*>* answers) {
    for (const Query& query : queries) {
      const auto it = expected_.answers.find(query.line);
      if (it == expected_.answers.end()) {
        return Status::NotFound("no expected answer for " + query.line);
      }
      answers->push_back(&it->second);
    }
    return Status::OK();
  };
  FRESHSEL_RETURN_IF_ERROR(resolve(plan_.warm, &warm_answers_));
  return resolve(plan_.cold, &cold_answers_);
}

std::string Bench::LoadLine(const std::string& name) const {
  serve::LoadParams params;
  params.scenario = name;
  params.dir = options_.panel + "/" + name;
  return serve::SerializeLoadRequest(false, 0, params);
}

std::string Bench::LoadAnswer(const std::string& name,
                              std::uint64_t epoch) const {
  serve::ScenarioInfo info = expected_.scenarios.at(name);
  info.epoch = epoch;
  return serve::SerializeLoaded(false, 0, info);
}

Status Bench::Load(serve::Client* client, const std::string& name) {
  const Result<std::string> response = client->Call(LoadLine(name));
  if (Check(response, LoadAnswer(name, next_epoch_++), &tallies_["setup"])) {
    return Status::OK();
  }
  return Status::Internal(
      "scenario load failed: " +
      (response.ok() ? *response : response.status().ToString()));
}

/// Server start, the default scenario loaded over the wire, and every
/// distinct warm request answered once; the first request of each prepared
/// shape is a cold one.
Status Bench::SetupOnce() {
  daemon_.reset();
  const std::int64_t start = NowNs();
  daemon_ = std::make_unique<Daemon>(options_.trace, socket_);
  FRESHSEL_RETURN_IF_ERROR(daemon_->server.Start());
  next_epoch_ = 1;
  FRESHSEL_ASSIGN_OR_RETURN(serve::Client client,
                            serve::Client::ConnectUnix(socket_));
  Tally& tally = tallies_["setup"];
  const std::int64_t load_sent = NowNs();
  FRESHSEL_RETURN_IF_ERROR(Load(&client, kDefaultScenario));
  quiet_load_ms_.push_back(static_cast<double>(NowNs() - load_sent) / 1e6);
  std::uint64_t misses = daemon_->engine.prepared_cache_stats().misses;
  for (std::size_t i = 0; i < plan_.warm.size(); ++i) {
    const std::int64_t sent = NowNs();
    const Result<std::string> response = client.Call(plan_.warm[i].line);
    const double ms = static_cast<double>(NowNs() - sent) / 1e6;
    Check(response, warm_answers_[i]->response, &tally);
    const std::uint64_t now_misses =
        daemon_->engine.prepared_cache_stats().misses;
    if (now_misses != misses) setup_cold_ms_.push_back(ms);
    misses = now_misses;
  }
  setup_s_.push_back(static_cast<double>(NowNs() - start) / 1e9);
  return Status::OK();
}

void Bench::Drive(serve::Client* client, int index, const Phase& phase,
                  bool record, ClientLog* log) {
  const std::int64_t deadline = phase.deadline_ns;
  std::string load_answer;
  const std::uint64_t warm_base = warm_completed_.load();
  std::uint64_t cold_sent = 0;
  const std::string load_line =
      plan_.reloads ? LoadLine(kOtherScenario) : std::string();
  while (NowNs() < deadline) {
    Sample sample;
    if (record) {
      sample.traced = phase.RecordingAt(NowNs());
      daemon_->tracing.SetRecording(index, sample.traced);
    }
    const std::string* line = nullptr;
    const std::string* answer = nullptr;
    if (log->request_class == 'a') {
      const std::size_t position =
          warm_cursor_.fetch_add(1, std::memory_order_relaxed);
      sample.index =
          plan_.warm_sequence[position % plan_.warm_sequence.size()];
      line = &plan_.warm[sample.index].line;
      answer = &warm_answers_[sample.index]->response;
    } else if (log->request_class == 'b') {
      ++cold_sent;
      while (warm_completed_.load() - warm_base <
                 cold_sent * plan_.warm_per_cold &&
             NowNs() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (NowNs() >= deadline) break;
      sample.index = plan_.cold_sequence[
          cold_cursor_.fetch_add(1, std::memory_order_relaxed) %
          plan_.cold_sequence.size()];
      line = &plan_.cold[sample.index].line;
      answer = &cold_answers_[sample.index]->response;
    } else {
      // Only this thread loads while the phase runs, so epochs are in order.
      load_answer = LoadAnswer(kOtherScenario, next_epoch_++);
      line = &load_line;
      answer = &load_answer;
    }
    sample.start_ns = NowNs();
    const Result<std::string> response = client->Call(*line);
    sample.end_ns = NowNs();
    const std::uint64_t overloaded_before = log->tally.overloaded;
    const bool ok = Check(response, *answer, &log->tally);
    sample.reached_handler =
        response.ok() && log->tally.overloaded == overloaded_before;
    log->samples.push_back(sample);
    if (log->request_class == 'a') ++warm_completed_;
    if (!ok && !response.ok()) break;  // The connection is gone.
  }
}

Result<Phase> Bench::RunPhase(double seconds, bool timed, bool record) {
  Phase phase;
  std::vector<char> classes(plan_.warm_clients, 'a');
  if (timed && !plan_.cold.empty()) classes.push_back('b');
  if (timed && plan_.reloads) classes.push_back('c');
  std::vector<serve::Client> clients;
  for (std::size_t i = 0; i < classes.size(); ++i) {
    FRESHSEL_ASSIGN_OR_RETURN(serve::Client client,
                              serve::Client::ConnectUnix(socket_));
    if (record) {
      daemon_->tracing.Announce(static_cast<int>(i));
      FRESHSEL_RETURN_IF_ERROR(
          client
              .Call(serve::SerializeControlRequest(
                  false, 0, serve::RequestOp::kListScenarios))
              .status());
    }
    clients.push_back(std::move(client));
    phase.clients.push_back(ClientLog{classes[i], {}, {}});
  }
  daemon_->tracing.Announce(-1);

  const serve::Engine::CacheStats before =
      daemon_->engine.prepared_cache_stats();
  phase.start_ns = NowNs();
  phase.deadline_ns =
      phase.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  std::atomic<bool> sampling{record};
  std::thread sampler;
  if (record) {
    // Part of the tracing, so it samples only in recording windows.
    sampler = std::thread([&] {
      while (sampling.load(std::memory_order_relaxed)) {
        if (phase.RecordingAt(NowNs())) {
          phase.queued_max = std::max(phase.queued_max,
                                      daemon_->server.ping_info().queued);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    threads.emplace_back([this, &clients, &phase, record, i] {
      Drive(&clients[i], static_cast<int>(i), phase, record,
            &phase.clients[i]);
    });
  }
  for (std::thread& thread : threads) thread.join();
  sampling.store(false, std::memory_order_relaxed);
  if (sampler.joinable()) sampler.join();
  for (std::size_t i = 0; i < clients.size(); ++i) {
    daemon_->tracing.SetRecording(static_cast<int>(i), false);
  }
  const serve::Engine::CacheStats after =
      daemon_->engine.prepared_cache_stats();
  phase.prepared.hits = after.hits - before.hits;
  phase.prepared.misses = after.misses - before.misses;
  phase.server_spans = daemon_->tracing.TakeSpans();
  for (const ClientLog& client : phase.clients) {
    tallies_[std::string(1, client.request_class)].Add(client.tally);
    for (const Sample& sample : client.samples) {
      if (client.request_class == 'a') {
        oracle_calls_total_ += warm_answers_[sample.index]->oracle_calls;
      } else if (client.request_class == 'b') {
        oracle_calls_total_ += cold_answers_[sample.index]->oracle_calls;
      }
    }
  }
  return phase;
}

/// Pairs each client's requests with the server spans of its connection
/// thread, in order: client span = root, server span = its child.
Result<std::vector<Span>> Bench::Correlate(const Phase& phase) const {
  std::vector<Span> spans;
  std::uint64_t request = 0;
  for (std::size_t i = 0; i < phase.clients.size(); ++i) {
    const ClientLog& client = phase.clients[i];
    const auto found = phase.server_spans.find(static_cast<int>(i));
    const std::vector<Span> none;
    const std::vector<Span>& served =
        found == phase.server_spans.end() ? none : found->second;
    std::size_t next = 0;
    for (const Sample& sample : client.samples) {
      Span root;
      root.name = client.request_class == 'c' ? "client.load" : "client.query";
      root.tag = std::string(1, client.request_class);
      root.start_ns = sample.start_ns;
      root.end_ns = sample.end_ns;
      root.request = ++request;
      spans.push_back(root);
      if (!sample.reached_handler || !sample.traced) continue;
      if (next >= served.size()) {
        return Status::Internal("fewer server spans than requests");
      }
      Span child = served[next++];
      child.tag = root.tag;
      child.parent = static_cast<std::int64_t>(spans.size()) - 1;
      child.request = root.request;
      spans.push_back(std::move(child));
    }
    if (next != served.size()) {
      return Status::Internal("more server spans than requests");
    }
  }
  return spans;
}

/// Calls each layer's public functions directly, timing every call. Runs
/// after the traced phase, with the daemon idle.
Status Bench::LayerPass(std::vector<Span>* spans,
                        std::vector<Metric>* metrics) {
  std::uint64_t request = 1u << 30;
  auto timed = [&](const char* name, std::string tag, std::int64_t parent,
                   auto&& call) {
    Span span;
    span.name = name;
    span.tag = std::move(tag);
    span.parent = parent;
    span.request = request;
    span.start_ns = NowNs();
    auto result = call();
    span.end_ns = NowNs();
    spans->push_back(std::move(span));
    return result;
  };
  auto open_root = [&](const char* name) {
    Span root;
    root.name = name;
    root.request = ++request;
    root.start_ns = NowNs();
    spans->push_back(std::move(root));
    return static_cast<std::int64_t>(spans->size()) - 1;
  };
  auto close_root = [&](std::int64_t root) {
    (*spans)[static_cast<std::size_t>(root)].end_ns = NowNs();
  };

  // io + estimation: what a load does, one call at a time.
  const std::string default_dir = options_.panel + "/" + kDefaultScenario;
  const serve::IngestOptions ingest;
  std::vector<double> read_ms, world_ms, profiles_ms;
  double degraded = 0;
  for (int rep = 0; rep < kLoadRepeats; ++rep) {
    const std::int64_t root = open_root("layer.load");
    FRESHSEL_ASSIGN_OR_RETURN(
        const serve::ScenarioDirData data, timed("io.read", "", root, [&] {
          return serve::ReadScenarioDir(default_dir, ingest.retry);
        }));
    read_ms.push_back(spans->back().ms());
    FRESHSEL_RETURN_IF_ERROR(
        timed("estimation.learn_world", "", root, [&] {
          return freshsel::estimation::WorldChangeModel::Learn(
              data.world, data.manifest_t0);
        }).status());
    world_ms.push_back(spans->back().ms());
    FRESHSEL_ASSIGN_OR_RETURN(
        const freshsel::estimation::RobustProfiles robust,
        timed("estimation.learn_profiles", "", root, [&] {
          return freshsel::estimation::LearnSourceProfilesRobust(
              data.world, data.sources, data.manifest_t0,
              ingest.degradation_mode);
        }));
    profiles_ms.push_back(spans->back().ms());
    degraded = static_cast<double>(robust.report.degraded.size());
    close_root(root);
  }
  metrics->push_back({"io.read_ms", Median(read_ms), "ms", read_ms.size()});
  metrics->push_back({"estimation.learn_world_ms", Median(world_ms), "ms",
                      world_ms.size()});
  metrics->push_back({"estimation.learn_profiles_ms", Median(profiles_ms),
                      "ms", profiles_ms.size()});
  metrics->push_back(
      {"estimation.sources_degraded", degraded, "count", kLoadRepeats});

  // serve.engine: PrepareQuery on the daemon's resident scenario, over the
  // shapes this workload prepares cold (churn: its budget sweep).
  FRESHSEL_ASSIGN_OR_RETURN(
      const std::shared_ptr<const serve::ResidentScenario> resident,
      daemon_->registry.Get(kDefaultScenario));
  std::vector<const Query*> cold_shapes;
  if (plan_.cold.empty()) {
    for (const Query& query : plan_.warm) cold_shapes.push_back(&query);
  } else {
    for (std::size_t i = 0; i < kColdPrepareSamples && i < plan_.cold.size();
         ++i) {
      cold_shapes.push_back(&plan_.cold[plan_.cold_sequence[i]]);
    }
  }
  std::vector<double> prepare_ms;
  std::map<std::string, std::shared_ptr<const serve::PreparedQuery>> prepared;
  for (const Query* query : cold_shapes) {
    ++request;
    FRESHSEL_ASSIGN_OR_RETURN(
        std::shared_ptr<const serve::PreparedQuery> built,
        timed("serve.engine.prepare", "", -1, [&] {
          return serve::PrepareQuery(resident, query->params);
        }));
    prepare_ms.push_back(spans->back().ms());
    prepared[query->line] = std::move(built);
  }
  metrics->push_back({"serve.engine.prepare_ms", Median(prepare_ms), "ms",
                      prepare_ms.size()});

  // selection + serve.protocol: parse, select on a prepared query,
  // serialize, for every distinct warm request.
  std::map<std::string, std::vector<double>> select_ms;
  std::vector<double> parse_us, serialize_us, bytes;
  double select_total_ms = 0;
  std::uint64_t oracle_calls = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  Tally& tally = tallies_["layer"];
  for (int rep = 0; rep < kSelectRepeats; ++rep) {
    for (std::size_t i = 0; i < plan_.warm.size(); ++i) {
      const Query& query = plan_.warm[i];
      std::shared_ptr<const serve::PreparedQuery>& shape =
          prepared[query.line];
      if (shape == nullptr) {
        FRESHSEL_ASSIGN_OR_RETURN(shape,
                                  serve::PrepareQuery(resident, query.params));
      }
      const std::int64_t root = open_root("layer.query");
      FRESHSEL_ASSIGN_OR_RETURN(
          const serve::Request parsed,
          timed("serve.protocol.parse", "", root,
                [&] { return serve::ParseRequest(query.line); }));
      parse_us.push_back(spans->back().ms() * 1e3);
      std::ostringstream text;
      freshsel::obs::RunReport report;
      serve::QueryOutcome outcome;
      FRESHSEL_RETURN_IF_ERROR(
          timed("selection.select", query.params.algorithm, root, [&] {
            return serve::ExecutePrepared(*shape, parsed.query, text,
                                          &report, &outcome);
          }));
      select_ms[query.params.algorithm].push_back(spans->back().ms());
      select_total_ms += spans->back().ms();
      oracle_calls += outcome.oracle_calls;
      memo_hits += report.counters["cache_hits"];
      memo_misses += report.counters["cache_misses"];
      outcome.text = text.str();
      const std::string response =
          timed("serve.protocol.serialize", "", root, [&] {
            return serve::SerializeQueryOutcome(false, 0, outcome);
          });
      serialize_us.push_back(spans->back().ms() * 1e3);
      bytes.push_back(static_cast<double>(response.size()));
      close_root(root);
      Check(response, warm_answers_[i]->response, &tally);
    }
  }
  for (const char* algorithm : kAlgorithms) {
    const std::vector<double>& times = select_ms[algorithm];
    metrics->push_back({std::string("selection.select_ms.") + algorithm,
                        Median(times), "ms", times.size()});
  }
  memo_lookups_ = memo_hits + memo_misses;
  metrics->push_back({"selection.oracle_us_per_call",
                      oracle_calls == 0
                          ? 0.0
                          : select_total_ms * 1e3 /
                                static_cast<double>(oracle_calls),
                      "us", static_cast<std::size_t>(oracle_calls)});
  metrics->push_back({"selection.memo_hit_ratio",
                      memo_lookups_ == 0
                          ? 0.0
                          : static_cast<double>(memo_hits) /
                                static_cast<double>(memo_lookups_),
                      "ratio", static_cast<std::size_t>(memo_lookups_)});
  metrics->push_back({"serve.protocol.parse_us", Median(parse_us), "us",
                      parse_us.size()});
  metrics->push_back({"serve.protocol.serialize_us", Median(serialize_us),
                      "us", serialize_us.size()});
  metrics->push_back(
      {"serve.protocol.response_bytes", Mean(bytes), "bytes", bytes.size()});
  return Status::OK();
}

std::vector<Metric> Bench::EndToEnd(const Phase& phase) const {
  std::vector<Metric> metrics;
  metrics.push_back({"setup_s", Median(setup_s_), "s", setup_s_.size()});
  const std::vector<double> latencies = phase.LatenciesMs('a');
  metrics.push_back({"qps", phase.Rate(), "1/s", latencies.size()});
  metrics.push_back({"latency_p50_ms", Quantile(latencies, 0.5), "ms",
                     latencies.size()});
  metrics.push_back({"latency_p99_ms", Quantile(latencies, 0.99), "ms",
                     latencies.size()});
  // Churn measures cold prepares and reloads under load; warm_select
  // reports those it made before the clock, with nothing else running.
  const std::vector<double> cold =
      plan_.cold.empty() ? setup_cold_ms_ : phase.LatenciesMs('b');
  metrics.push_back(
      {"cold_latency_p50_ms", Quantile(cold, 0.5), "ms", cold.size()});
  const std::vector<double> reloads =
      plan_.reloads ? phase.LatenciesMs('c') : quiet_load_ms_;
  metrics.push_back(
      {"reload_p50_ms", Quantile(reloads, 0.5), "ms", reloads.size()});
  metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB", 1});
  return metrics;
}

Status Bench::PerLayer(const Phase& traced, std::vector<Metric>* metrics) {
  FRESHSEL_ASSIGN_OR_RETURN(std::vector<Span> spans, Correlate(traced));
  const std::size_t phase_spans = spans.size();
  FRESHSEL_RETURN_IF_ERROR(LayerPass(&spans, metrics));

  // Per warm query, its median select time in the layer pass splits a
  // served query's engine time into selection and waiting. The layer pass
  // visits the warm queries in plan order, so select span k belongs to
  // query k % warm.size().
  std::vector<std::vector<double>> select_of(plan_.warm.size());
  std::size_t k = 0;
  for (std::size_t i = phase_spans; i < spans.size(); ++i) {
    if (spans[i].name != "selection.select") continue;
    select_of[k++ % plan_.warm.size()].push_back(spans[i].ms());
  }
  std::vector<double> select_median(plan_.warm.size());
  for (std::size_t q = 0; q < plan_.warm.size(); ++q) {
    select_median[q] = Median(select_of[q]);
  }

  const std::vector<double> self = SelfTimesMs(spans);
  std::vector<double> query_ms, wait_ms, overhead_ms;
  std::vector<double> oracle_calls;
  std::size_t span = 0;
  for (const ClientLog& client : traced.clients) {
    for (const Sample& sample : client.samples) {
      const std::size_t root = span++;
      const bool has_child =
          span < phase_spans && spans[span].parent ==
                                    static_cast<std::int64_t>(root);
      if (client.request_class == 'a') {
        oracle_calls.push_back(
            static_cast<double>(warm_answers_[sample.index]->oracle_calls));
        if (has_child) {
          overhead_ms.push_back(self[root]);
          query_ms.push_back(spans[span].ms());
          wait_ms.push_back(std::max(
              0.0, spans[span].ms() - select_median[sample.index]));
        }
      }
      if (has_child) ++span;
    }
  }
  std::uint64_t overloaded = 0;
  for (const auto& [name, tally] : tallies_) overloaded += tally.overloaded;
  const std::vector<double> traced_latency = traced.WarmLatenciesMs(true);
  const std::vector<double> untraced_latency = traced.WarmLatenciesMs(false);
  metrics->push_back({"serve.engine.prepared_hits",
                      static_cast<double>(traced.prepared.hits), "count", 1});
  metrics->push_back({"serve.engine.prepared_misses",
                      static_cast<double>(traced.prepared.misses), "count",
                      1});
  metrics->push_back(
      {"serve.engine.query_ms", Median(query_ms), "ms", query_ms.size()});
  metrics->push_back(
      {"serve.engine.wait_ms", Mean(wait_ms), "ms", wait_ms.size()});
  metrics->push_back({"selection.oracle_calls", Mean(oracle_calls), "count",
                      oracle_calls.size()});
  metrics->push_back({"serve.server.overhead_ms", Median(overhead_ms), "ms",
                      overhead_ms.size()});
  metrics->push_back({"serve.server.overloaded",
                      static_cast<double>(overloaded), "count", 1});
  metrics->push_back({"serve.server.queued_max",
                      static_cast<double>(traced.queued_max), "count", 1});
  metrics->push_back(
      {"trace.overhead_ms",
       Quantile(traced_latency, 0.5) - Quantile(untraced_latency, 0.5), "ms",
       traced_latency.size()});

  if (!options_.trace_out.empty()) {
    std::ofstream out(options_.trace_out);
    out << SpansToJson(spans) << '\n';
    if (!out) return Status::IoError("cannot write " + options_.trace_out);
  }
  return Status::OK();
}

std::string Bench::ReportJson(const std::vector<Metric>& metrics,
                              const serve::Engine::CacheStats& timed,
                              bool warm_ok,
                              std::uint64_t misses_after_warmup) const {
  freshsel::obs::JsonWriter writer;
  writer.BeginObject();
  writer.Key("report");
  writer.BeginObject();
  writer.Field("workload", WorkloadName(plan_.workload));
  writer.Field("seed", options_.seed);
  writer.Field("seconds", options_.seconds);
  writer.Field("trace", static_cast<std::uint64_t>(options_.trace));
  writer.Key("labels");
  writer.BeginObject();
  writer.Field("nproc", static_cast<std::uint64_t>(CpuCount()));
  writer.Field("simd", freshsel::simd::kBackendName);
  writer.Field("build_type", PERFBENCH_BUILD_TYPE);
  writer.Field("compiler", PERFBENCH_COMPILER);
  writer.EndObject();
  writer.Key("requests");
  writer.BeginObject();
  for (const auto& [name, tally] : tallies_) {
    writer.Key(name);
    writer.BeginObject();
    writer.Field("attempted", tally.attempted);
    writer.Field("succeeded", tally.attempted - tally.failed);
    writer.Field("failed", tally.failed);
    writer.Field("overloaded", tally.overloaded);
    writer.EndObject();
  }
  writer.EndObject();
  writer.Key("prepared_measured");
  writer.BeginObject();
  writer.Field("hits", timed.hits);
  writer.Field("misses", timed.misses);
  writer.EndObject();
  writer.Field("prepared_misses_after_warmup", misses_after_warmup);
  writer.Key("warm_stayed_warm");
  writer.Bool(warm_ok);
  writer.Field("oracle_calls_total", oracle_calls_total_);
  if (options_.trace) writer.Field("memo_lookups", memo_lookups_);
  writer.Key("samples");
  writer.BeginObject();
  for (const Metric& metric : metrics) {
    writer.Field(metric.name, static_cast<std::uint64_t>(metric.samples));
  }
  writer.EndObject();
  writer.EndObject();
  writer.EndObject();
  return writer.TakeString();
}

int Bench::Run() {
  Status status = ResolveAnswers();
  for (int rep = 0; status.ok() && rep < (options_.trace ? 1 : kSetupRepeats);
       ++rep) {
    status = SetupOnce();
  }
  Result<serve::Client> client = serve::Client::ConnectUnix(socket_);
  if (status.ok()) status = client.status();
  if (status.ok() && plan_.reloads) {
    // Resident before the clock, but not part of setup_s: the set-up
    // repeated for setup_s is the same on every workload.
    status = Load(&*client, kOtherScenario);
    // Fill the prepared cache with cold shapes, so that evictions of the
    // warm shapes run at their steady rate from the first timed request.
    for (std::size_t i = 0; status.ok() && i < plan_.cold_prefill; ++i) {
      const std::uint32_t index = plan_.cold_sequence[cold_cursor_++];
      Check(client->Call(plan_.cold[index].line),
            cold_answers_[index]->response, &tallies_["setup"]);
    }
  } else if (!options_.trace) {
    for (int rep = 0; status.ok() && rep < kQuietReloads; ++rep) {
      const std::int64_t sent = NowNs();
      status = Load(&*client, kOtherScenario);
      quiet_load_ms_.push_back(static_cast<double>(NowNs() - sent) / 1e6);
    }
  }
  serve::Engine::CacheStats warmed;
  if (status.ok()) {
    warmed = daemon_->engine.prepared_cache_stats();
    status = RunPhase(kSettleSeconds, false, false).status();
  }
  std::vector<Metric> metrics;
  serve::Engine::CacheStats timed;  // Prepared-cache use while measured.
  if (status.ok()) {
    Result<Phase> phase = RunPhase(options_.seconds, true, options_.trace);
    status = phase.status();
    if (status.ok()) {
      timed = phase->prepared;
      if (options_.trace) {
        status = PerLayer(*phase, &metrics);
      } else {
        metrics = EndToEnd(*phase);
      }
    }
  }
  if (!status.ok()) {
    std::cerr << "serve_bench: " << status.ToString() << "\n";
    return 1;
  }
  const std::uint64_t misses_after_warmup =
      daemon_->engine.prepared_cache_stats().misses - warmed.misses;
  // A warm workload that prepares after warm-up has silently gone cold.
  const bool warm_ok =
      plan_.workload == Workload::kChurn || misses_after_warmup == 0;
  daemon_.reset();

  Tally total;
  for (const auto& [name, tally] : tallies_) total.Add(tally);
  const bool correct = total.failed == 0 && warm_ok;
  std::cout << ReportJson(metrics, timed, warm_ok, misses_after_warmup)
            << "\n";
  freshsel::obs::JsonWriter writer;
  writer.BeginObject();
  writer.Key("correct");
  writer.Bool(correct);
  writer.Field("attempted", total.attempted);
  writer.Field("failed", total.failed);
  writer.Key("metrics");
  writer.BeginObject();
  for (const Metric& metric : metrics) {
    writer.Key(metric.name);
    writer.BeginObject();
    writer.Field("value", metric.value);
    writer.Field("unit", metric.unit);
    writer.EndObject();
  }
  writer.EndObject();
  writer.EndObject();
  std::cout << writer.str() << std::endl;
  return correct ? 0 : 1;
}

int Main(int argc, char** argv) {
  const Result<Options> options = ParseOptions(argc, argv);
  if (!options.ok()) {
    std::cerr << "serve_bench: " << options.status().ToString() << "\n";
    return 2;
  }
  Plan plan = MakePlan(options->workload, options->seed);
  if (options->mode == "generate") {
    const Status status =
        Generate(plan, options->panel, options->digest, /*threads=*/3);
    if (!status.ok()) {
      std::cerr << "serve_bench: " << status.ToString() << "\n";
      return 1;
    }
    return 0;
  }
  Result<Expected> expected = ReadExpected(plan, options->panel);
  if (!expected.ok()) {
    std::cerr << "serve_bench: " << expected.status().ToString() << "\n";
    return 1;
  }
  Bench bench(*options, std::move(plan), std::move(*expected));
  return bench.Run();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
