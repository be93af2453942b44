#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "cli/commands.h"
#include "fault/failpoint.h"
#include "fault/retry.h"
#include "obs/json_reader.h"
#include "serve/client.h"
#include "serve/engine.h"
#include "serve/ingest.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace freshsel::cli {

namespace {

/// The server the signal handler forwards SIGTERM/SIGINT to. An atomic
/// pointer because the handler runs on an arbitrary thread's signal
/// context; RequestShutdown itself is async-signal-safe (one write to a
/// self-pipe).
std::atomic<serve::Server*> g_signal_server{nullptr};

void HandleShutdownSignal(int /*signal*/) {
  serve::Server* server = g_signal_server.load(std::memory_order_relaxed);
  if (server != nullptr) server->RequestShutdown();
}

/// Mirror of commands.cc ReadRobustnessFlags for the daemon commands
/// (kept local: serve has no --deterministic-metrics, and arms failpoints
/// for the daemon's whole lifetime).
Result<fault::RetryPolicy> ReadRetryFlags(const ArgMap& args) {
  const std::string failpoints = args.GetString("failpoints", "");
  FRESHSEL_ASSIGN_OR_RETURN(std::int64_t retry_max,
                            args.GetInt("retry-max", 3));
  FRESHSEL_ASSIGN_OR_RETURN(double retry_backoff,
                            args.GetDouble("retry-backoff", 0.01));
  if (retry_max < 1) {
    return Status::InvalidArgument("--retry-max must be >= 1");
  }
  if (retry_backoff < 0.0) {
    return Status::InvalidArgument("--retry-backoff must be >= 0");
  }
  if (!failpoints.empty()) {
    fault::FailpointRegistry::Global().DisarmAll();
    FRESHSEL_RETURN_IF_ERROR(
        fault::FailpointRegistry::Global().ArmFromSpec(failpoints));
  }
  fault::RetryOptions retry_options;
  retry_options.max_attempts = static_cast<int>(retry_max);
  retry_options.initial_backoff_seconds = retry_backoff;
  retry_options.max_backoff_seconds =
      std::max(retry_backoff, retry_options.max_backoff_seconds);
  return fault::RetryPolicy(retry_options);
}

Result<estimation::DegradationMode> ReadDegradation(const ArgMap& args) {
  FRESHSEL_ASSIGN_OR_RETURN(bool strict, args.GetBool("strict", false));
  FRESHSEL_ASSIGN_OR_RETURN(bool degrade, args.GetBool("degrade", !strict));
  if (strict && degrade) {
    return Status::InvalidArgument("--strict and --degrade are exclusive");
  }
  return strict ? estimation::DegradationMode::kStrict
                : estimation::DegradationMode::kDegrade;
}

}  // namespace

Status RunServe(const ArgMap& args, std::ostream& out) {
  const std::string dir = args.GetString("dir", "");
  const std::string scenario_name = args.GetString("scenario", "default");
  const std::string socket_path = args.GetString("socket", "");
  const std::string host = args.GetString("host", "127.0.0.1");
  FRESHSEL_ASSIGN_OR_RETURN(std::int64_t port, args.GetInt("port", 0));
  FRESHSEL_ASSIGN_OR_RETURN(std::int64_t t0, args.GetInt("t0", 0));
  FRESHSEL_ASSIGN_OR_RETURN(std::int64_t max_inflight,
                            args.GetInt("max-inflight", 8));
  FRESHSEL_ASSIGN_OR_RETURN(std::int64_t max_queue,
                            args.GetInt("max-queue", 32));
  FRESHSEL_ASSIGN_OR_RETURN(std::int64_t prepared_cache,
                            args.GetInt("prepared-cache", 32));
  FRESHSEL_ASSIGN_OR_RETURN(fault::RetryPolicy retry, ReadRetryFlags(args));
  FRESHSEL_ASSIGN_OR_RETURN(estimation::DegradationMode degradation_mode,
                            ReadDegradation(args));
  FRESHSEL_RETURN_IF_ERROR(CheckUnreadFlags(args));
  FRESHSEL_RETURN_IF_ERROR(CheckNoPositionals(args));
  if (max_inflight < 1) {
    return Status::InvalidArgument("--max-inflight must be >= 1");
  }
  if (max_queue < 0) {
    return Status::InvalidArgument("--max-queue must be >= 0");
  }
  if (prepared_cache < 1) {
    return Status::InvalidArgument("--prepared-cache must be >= 1");
  }
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument("--port must be in [0, 65535]");
  }

  serve::ScenarioRegistry registry;
  serve::Engine::Options engine_options;
  engine_options.prepared_capacity =
      static_cast<std::size_t>(prepared_cache);
  engine_options.ingest.retry = retry;
  engine_options.ingest.degradation_mode = degradation_mode;
  engine_options.ingest.t0 = t0;
  serve::Engine engine(&registry, engine_options);
  if (!dir.empty()) {
    FRESHSEL_ASSIGN_OR_RETURN(
        const serve::ScenarioInfo info,
        registry.Load(scenario_name, dir, engine_options.ingest));
    out << "loaded scenario '" << info.name << "' (" << info.sources
        << " sources, " << info.entities << " entities, t0 " << info.t0
        << ")\n";
  }

  serve::EngineHandler handler(&engine);
  serve::Server::Options server_options;
  server_options.unix_socket = socket_path;
  server_options.host = host;
  server_options.port = static_cast<int>(port);
  server_options.max_inflight = static_cast<std::size_t>(max_inflight);
  server_options.max_queue = static_cast<std::size_t>(max_queue);
  serve::Server server(&handler, server_options);
  // Handlers go in before Start: the server's self-pipe already exists, so
  // a SIGTERM delivered the instant the socket becomes connectable is a
  // clean early drain, not a process kill.
  g_signal_server.store(&server, std::memory_order_relaxed);
  using SignalHandler = void (*)(int);
  const SignalHandler previous_term =
      std::signal(SIGTERM, HandleShutdownSignal);
  const SignalHandler previous_int =
      std::signal(SIGINT, HandleShutdownSignal);
  const Status start_status = server.Start();
  if (!start_status.ok()) {
    std::signal(SIGTERM, previous_term);
    std::signal(SIGINT, previous_int);
    g_signal_server.store(nullptr, std::memory_order_relaxed);
    return start_status;
  }
  if (!socket_path.empty()) {
    out << "listening on unix:" << socket_path << "\n";
  } else {
    out << "listening on " << host << ":" << server.port() << "\n";
  }
  out.flush();
  server.Wait();
  std::signal(SIGTERM, previous_term);
  std::signal(SIGINT, previous_int);
  g_signal_server.store(nullptr, std::memory_order_relaxed);
  out << "drained\n";
  return Status::OK();
}

Status RunQuery(const ArgMap& args, std::ostream& out) {
  const std::string socket_path = args.GetString("socket", "");
  const std::string host = args.GetString("host", "127.0.0.1");
  FRESHSEL_ASSIGN_OR_RETURN(std::int64_t port, args.GetInt("port", 0));
  const std::string op = args.GetString("op", "query");
  FRESHSEL_ASSIGN_OR_RETURN(bool raw, args.GetBool("raw", false));
  FRESHSEL_ASSIGN_OR_RETURN(bool include_report,
                            args.GetBool("report", false));
  const std::string scenario_name = args.GetString("scenario", "default");
  const std::string load_dir = args.GetString("load-dir", "");

  std::string request;
  if (op == "query") {
    FRESHSEL_ASSIGN_OR_RETURN(serve::QueryParams params,
                              ReadQueryParams(args));
    params.scenario = scenario_name;
    params.include_report = include_report;
    request = serve::SerializeQueryRequest(true, 1, params);
  } else if (op == "load") {
    serve::LoadParams params;
    params.scenario = scenario_name;
    params.dir = load_dir;
    if (params.dir.empty()) {
      return Status::InvalidArgument("--op load requires --load-dir DIR");
    }
    request = serve::SerializeLoadRequest(true, 1, params);
  } else if (op == "ping") {
    request = serve::SerializeControlRequest(true, 1, serve::RequestOp::kPing);
  } else if (op == "list") {
    request = serve::SerializeControlRequest(true, 1,
                                             serve::RequestOp::kListScenarios);
  } else if (op == "metrics") {
    request =
        serve::SerializeControlRequest(true, 1, serve::RequestOp::kMetrics);
  } else {
    return Status::InvalidArgument(
        "unknown --op: " + op + " (expected query|load|ping|list|metrics)");
  }
  FRESHSEL_RETURN_IF_ERROR(CheckUnreadFlags(args));
  FRESHSEL_RETURN_IF_ERROR(CheckNoPositionals(args));
  if (socket_path.empty() && port == 0) {
    return Status::InvalidArgument(
        "query requires --socket PATH or --port N");
  }

  FRESHSEL_ASSIGN_OR_RETURN(
      serve::Client client,
      socket_path.empty()
          ? serve::Client::ConnectTcp(host, static_cast<int>(port))
          : serve::Client::ConnectUnix(socket_path));
  FRESHSEL_ASSIGN_OR_RETURN(const std::string response,
                            client.Call(request));
  if (raw) {
    out << response << "\n";
    return Status::OK();
  }
  FRESHSEL_ASSIGN_OR_RETURN(obs::JsonValue doc, obs::ParseJson(response));
  if (!doc.is_object()) {
    return Status::Internal("malformed daemon response: " + response);
  }
  const obs::JsonValue* ok = doc.Find("ok");
  if (ok == nullptr || !ok->is_bool()) {
    return Status::Internal("malformed daemon response: " + response);
  }
  if (!ok->AsBool()) {
    std::string code = "internal";
    std::string message = "unknown error";
    const obs::JsonValue* error = doc.Find("error");
    if (error != nullptr && error->is_object()) {
      const obs::JsonValue* code_value = error->Find("code");
      if (code_value != nullptr && code_value->is_string()) {
        code = code_value->AsString();
      }
      const obs::JsonValue* message_value = error->Find("message");
      if (message_value != nullptr && message_value->is_string()) {
        message = message_value->AsString();
      }
    }
    return serve::StatusFromWire(code,
                                 "daemon error (" + code + "): " + message);
  }
  const obs::JsonValue* result = doc.Find("result");
  if (result == nullptr || !result->is_object()) {
    return Status::Internal("malformed daemon response: " + response);
  }
  // Human-facing payloads print as their natural text; everything else
  // stays raw JSON (use --raw for scripting either way).
  const obs::JsonValue* text = result->Find("text");
  if (op == "query" && text != nullptr && text->is_string()) {
    out << text->AsString();
    return Status::OK();
  }
  const obs::JsonValue* exposition = result->Find("openmetrics");
  if (op == "metrics" && exposition != nullptr && exposition->is_string()) {
    out << exposition->AsString();
    return Status::OK();
  }
  out << response << "\n";
  return Status::OK();
}

}  // namespace freshsel::cli
