#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "serve/protocol.h"

namespace freshsel::serve {

class Engine;

/// What the transport needs from whoever answers requests. The daemon
/// binds it to an Engine (`EngineHandler`); the transport tests bind it to
/// deterministic stubs (e.g. a handler that blocks until released, which
/// turns the admission-control tests from timing races into lockstep
/// scripts). Implementations must be safe to call from many connection
/// threads at once.
class RequestHandler {
 public:
  virtual ~RequestHandler() = default;
  virtual Result<QueryOutcome> HandleQuery(const QueryParams& params) = 0;
  virtual Result<ScenarioInfo> HandleLoad(const LoadParams& params) = 0;
  virtual std::vector<ScenarioInfo> ListScenarios() = 0;
  /// OpenMetrics exposition body for op:"metrics" and GET /metrics.
  virtual std::string MetricsText() = 0;
};

/// The production handler: forwards to an Engine and scrapes the global
/// metrics registry.
class EngineHandler : public RequestHandler {
 public:
  explicit EngineHandler(Engine* engine) : engine_(engine) {}
  Result<QueryOutcome> HandleQuery(const QueryParams& params) override;
  Result<ScenarioInfo> HandleLoad(const LoadParams& params) override;
  std::vector<ScenarioInfo> ListScenarios() override;
  std::string MetricsText() override;

 private:
  Engine* const engine_;
};

/// The transport layer of the daemon (DESIGN.md §15): a newline-delimited
/// JSON listener on a unix socket or loopback TCP, one thread per
/// connection, with admission control over the work ops and a graceful
/// drain on shutdown.
///
/// Admission control: at most `max_inflight` kQuery/kLoadScenario requests
/// execute at once; up to `max_queue` more wait on a condition variable for
/// a lane; beyond that the request is answered `overloaded` immediately
/// (shed early, never stall the connection). Control ops (ping / list /
/// metrics) always bypass the queue so health checks stay meaningful under
/// saturation.
///
/// Shutdown: `RequestShutdown()` is async-signal-safe (one write to a
/// self-pipe), so a SIGTERM handler may call it directly. The accept loop
/// then stops accepting, marks the server draining (new work is refused
/// with `draining`, control ops still answer), waits for in-flight work to
/// finish writing its responses, and only then shuts down the read side of
/// every connection so reader threads unblock and exit. `Wait()` returns
/// once the drain is complete.
///
/// As a convenience for scrapers, a connection whose first line is an HTTP
/// `GET /metrics` request is answered with a one-shot HTTP response
/// carrying the OpenMetrics exposition, then closed.
class Server {
 public:
  struct Options {
    /// Non-empty -> listen on this unix-domain socket path (note the
    /// ~107-byte kernel limit on path length; tests use short /tmp paths).
    std::string unix_socket;
    /// TCP bind address when `unix_socket` is empty. Loopback by default:
    /// the daemon speaks an unauthenticated protocol.
    std::string host = "127.0.0.1";
    int port = 0;  ///< 0 -> ephemeral; read the bound port from `port()`.
    std::size_t max_inflight = 8;
    std::size_t max_queue = 32;
  };

  Server(RequestHandler* handler, Options options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the accept loop. Fails with IoError when
  /// the socket cannot be bound.
  Status Start();

  /// The bound TCP port (after Start); 0 when serving a unix socket.
  int port() const;

  /// Begins a graceful shutdown. Async-signal-safe: one byte written to a
  /// self-pipe; the accept loop does the actual work. Idempotent.
  void RequestShutdown();

  /// Blocks until the server has drained and every connection thread has
  /// exited. Returns immediately if Start was never called.
  void Wait();

  /// RequestShutdown + Wait. Called by the destructor if still running.
  void Stop();

  /// Live admission-control state (also the op:"ping" payload).
  PingInfo ping_info() const;

  /// Test-only: connection-thread handles currently retained (running plus
  /// finished-but-not-yet-reaped). Bounded by the number of *live*
  /// connections, not by connections ever served - the reaping invariant
  /// the lifecycle test asserts.
  std::size_t retained_connection_threads_for_test() const;

  /// Test-only: handles of connection threads still running (not yet
  /// parked for reaping). Lets a test wait for a closed connection's
  /// thread to finish without sleeping blind.
  std::size_t running_connection_threads_for_test() const;

 private:
  enum class Admission { kProceed, kOverloaded, kDraining };

  void AcceptLoop();
  void ServeConnection(int fd, std::uint64_t id);
  std::string Dispatch(const std::string& line);
  void HandleHttpGet(int fd, const std::string& request_line);
  Admission Admit() FRESHSEL_EXCLUDES(state_mutex_);
  void Release() FRESHSEL_EXCLUDES(state_mutex_);
  void Drain() FRESHSEL_EXCLUDES(state_mutex_);

  RequestHandler* const handler_;
  const Options options_;

  int listen_fd_ = -1;
  int bound_port_ = 0;
  // Atomics, not plain ints: RequestShutdown runs from signal handlers on
  // whichever thread the signal lands on, which may not be the thread that
  // constructed the server (the e2e suite runs the daemon on a test
  // thread). Lock-free int loads are async-signal-safe.
  std::atomic<int> shutdown_pipe_read_{-1};
  std::atomic<int> shutdown_pipe_write_{-1};
  bool started_ = false;
  std::thread accept_thread_;

  mutable Mutex state_mutex_;
  CondVar admission_cv_;
  CondVar drained_cv_;
  bool draining_ FRESHSEL_GUARDED_BY(state_mutex_) = false;
  std::size_t inflight_ FRESHSEL_GUARDED_BY(state_mutex_) = 0;
  std::size_t queued_ FRESHSEL_GUARDED_BY(state_mutex_) = 0;
  std::vector<int> connection_fds_ FRESHSEL_GUARDED_BY(state_mutex_);
  // Connection-thread lifecycle: a running thread's handle lives in
  // connection_threads_ under a per-connection id (ids, unlike fds, are
  // never recycled). On exit the thread parks its own handle in
  // finished_threads_, which the accept loop joins on the next accept -
  // so retained handles are bounded by live connections, not by
  // connections ever served. Whatever remains at shutdown is joined by
  // AcceptLoop after the drain.
  std::uint64_t next_connection_id_ FRESHSEL_GUARDED_BY(state_mutex_) = 0;
  std::map<std::uint64_t, std::thread> connection_threads_
      FRESHSEL_GUARDED_BY(state_mutex_);
  std::vector<std::thread> finished_threads_
      FRESHSEL_GUARDED_BY(state_mutex_);
};

}  // namespace freshsel::serve
