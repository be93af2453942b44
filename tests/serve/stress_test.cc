// Concurrency stress + equivalence suite (ISSUE 10 satellite): many
// client threads hammer one daemon over loopback TCP and every response
// must be byte-identical to what batch `freshsel select` prints for the
// same request. Runs under TSan in the CI serve-gate job; there are no
// sleeps to hide races behind - correctness is enforced by the admission
// queue and the engine's locking alone.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/commands.h"
#include "fault/failpoint.h"
#include "obs/json_reader.h"
#include "serve/client.h"
#include "serve/engine.h"
#include "serve/ingest.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "testing/scratch.h"

namespace freshsel::serve {
namespace {

class ServeStressTest : public ::testing::Test {
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

  static QueryParams BaseParams() {
    QueryParams params;
    params.t0 = 100;
    params.points = 3;
    params.stride = 14;
    return params;
  }

  /// Ingest at the queries' cutoff, matching what batch `select --t0 100`
  /// learns (the manifest t0 is later; evaluation can't precede the
  /// learned cutoff).
  static IngestOptions BaseIngest() {
    IngestOptions options;
    options.t0 = 100;
    return options;
  }

  testing::ScratchDir scratch_;
};

/// Extracts result.text from a raw response line, failing the test (and
/// returning "") on any malformed or error response.
std::string ResponseText(const Result<std::string>& response) {
  if (!response.ok()) {
    ADD_FAILURE() << "call failed: " << response.status().ToString();
    return "";
  }
  Result<obs::JsonValue> doc = obs::ParseJson(*response);
  if (!doc.ok() || !doc->is_object()) {
    ADD_FAILURE() << "bad response: " << *response;
    return "";
  }
  const obs::JsonValue* ok = doc->Find("ok");
  if (ok == nullptr || !ok->AsBool()) {
    ADD_FAILURE() << "error response: " << *response;
    return "";
  }
  const obs::JsonValue* result = doc->Find("result");
  return result == nullptr ? "" : result->StringOr("text", "");
}

TEST_F(ServeStressTest, SixtyFourConcurrentClientsMatchBatchSelect) {
  // The batch reference for the exact same knobs.
  std::string batch;
  ASSERT_EQ(Run({"select", "--dir", scratch_.path().c_str(), "--t0", "100",
                 "--points", "3", "--stride", "14"},
                &batch),
            0)
      << batch;

  ScenarioRegistry registry;
  ASSERT_TRUE(registry.Load("default", scratch_.path(), BaseIngest()).ok());
  Engine engine(&registry);
  EngineHandler handler(&engine);
  Server::Options options;
  options.max_inflight = 8;
  options.max_queue = 64;  // Every client fits; no shed in this test.
  Server server(&handler, options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 64;
  std::vector<std::string> texts(kClients);
  std::atomic<int> connect_failures{0};
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        Result<Client> client =
            Client::ConnectTcp("127.0.0.1", server.port());
        if (!client.ok()) {
          connect_failures.fetch_add(1);
          return;
        }
        texts[static_cast<std::size_t>(i)] = ResponseText(client->Call(
            SerializeQueryRequest(true, static_cast<std::uint64_t>(i),
                                  BaseParams())));
      });
    }
    for (std::thread& t : clients) t.join();
  }
  EXPECT_EQ(connect_failures.load(), 0);

  ASSERT_FALSE(texts[0].empty());
  EXPECT_TRUE(batch.ends_with(texts[0]))
      << "daemon text:\n" << texts[0] << "\nbatch output:\n" << batch;
  for (int i = 1; i < kClients; ++i) {
    EXPECT_EQ(texts[static_cast<std::size_t>(i)], texts[0])
        << "client " << i << " diverged";
  }
  server.Stop();

  // The shared prepared cache did its job: one build, the rest hits.
  const Engine::CacheStats stats = engine.prepared_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kClients - 1));
}

TEST_F(ServeStressTest, MixedQueryShapesStayDeterministicUnderConcurrency) {
  ScenarioRegistry registry;
  ASSERT_TRUE(registry.Load("default", scratch_.path(), BaseIngest()).ok());
  Engine engine(&registry);

  // Four distinct request shapes: different algorithms, a roster filter,
  // a multi-threaded evaluation. Serial references first (each request
  // builds a fresh profit cache, so serial and concurrent runs report
  // identical statistics).
  std::vector<QueryParams> shapes;
  shapes.push_back(BaseParams());
  {
    QueryParams p = BaseParams();
    p.algorithm = "greedy";
    shapes.push_back(p);
  }
  {
    QueryParams p = BaseParams();
    p.algorithm = "budgeted";
    p.budget = 0.5;
    shapes.push_back(p);
  }
  {
    // Roster names come from the scenario itself, not a guess.
    Result<std::shared_ptr<const ResidentScenario>> scenario =
        registry.Get("default");
    ASSERT_TRUE(scenario.ok());
    ASSERT_GE((*scenario)->profiles.size(), 3u);
    QueryParams p = BaseParams();
    for (std::size_t i = 0; i < 3; ++i) {
      p.roster.push_back((*scenario)->profiles[i].name);
    }
    p.threads = 2;
    shapes.push_back(p);
  }
  std::vector<std::string> reference;
  for (const QueryParams& shape : shapes) {
    Result<QueryOutcome> outcome = engine.ExecuteQuery(shape);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    reference.push_back(outcome->text);
  }

  EngineHandler handler(&engine);
  Server::Options options;
  options.max_inflight = 8;
  options.max_queue = 64;
  Server server(&handler, options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 32;
  std::vector<std::string> texts(kClients);
  {
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        Result<Client> client =
            Client::ConnectTcp("127.0.0.1", server.port());
        ASSERT_TRUE(client.ok()) << client.status().ToString();
        const QueryParams& shape =
            shapes[static_cast<std::size_t>(i) % shapes.size()];
        texts[static_cast<std::size_t>(i)] = ResponseText(client->Call(
            SerializeQueryRequest(true, static_cast<std::uint64_t>(i),
                                  shape)));
      });
    }
    for (std::thread& t : clients) t.join();
  }
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(texts[static_cast<std::size_t>(i)],
              reference[static_cast<std::size_t>(i) % shapes.size()])
        << "client " << i << " diverged from its serial reference";
  }
  server.Stop();
}

TEST_F(ServeStressTest, ConcurrentControlOpsNeverBlockOnWork) {
  ScenarioRegistry registry;
  ASSERT_TRUE(registry.Load("default", scratch_.path(), BaseIngest()).ok());
  Engine engine(&registry);
  EngineHandler handler(&engine);
  Server::Options options;
  options.max_inflight = 2;
  options.max_queue = 64;
  Server server(&handler, options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kWorkers = 16;
  constexpr int kProbers = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int i = 0; i < kWorkers; ++i) {
    threads.emplace_back([&] {
      Result<Client> client =
          Client::ConnectTcp("127.0.0.1", server.port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      if (ResponseText(
              client->Call(SerializeQueryRequest(false, 0, BaseParams())))
              .empty()) {
        failures.fetch_add(1);
      }
    });
  }
  for (int i = 0; i < kProbers; ++i) {
    threads.emplace_back([&] {
      Result<Client> client =
          Client::ConnectTcp("127.0.0.1", server.port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int probe = 0; probe < 20; ++probe) {
        Result<std::string> response = client->Call(
            SerializeControlRequest(true, static_cast<std::uint64_t>(probe),
                                    RequestOp::kPing));
        Result<obs::JsonValue> doc =
            response.ok() ? obs::ParseJson(*response)
                          : Result<obs::JsonValue>(response.status());
        if (!doc.ok() || doc->Find("ok") == nullptr ||
            !doc->Find("ok")->AsBool()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  server.Stop();
}

TEST_F(ServeStressTest, IngestionFaultsSurfaceAsStructuredErrors) {
  ScenarioRegistry registry;
  Engine engine(&registry);
  EngineHandler handler(&engine);
  Server server(&handler, Server::Options{});
  ASSERT_TRUE(server.Start().ok());

  ASSERT_TRUE(fault::FailpointRegistry::Global()
                  .ArmFromSpec("io.read=always")
                  .ok());
  Result<Client> client = Client::ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  LoadParams load;
  load.scenario = "default";
  load.dir = scratch_.path();
  Result<std::string> response =
      client->Call(SerializeLoadRequest(true, 1, load));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  Result<obs::JsonValue> doc = obs::ParseJson(*response);
  ASSERT_TRUE(doc.ok());
  ASSERT_NE(doc->Find("ok"), nullptr);
  EXPECT_FALSE(doc->Find("ok")->AsBool()) << *response;
  const obs::JsonValue* error = doc->Find("error");
  ASSERT_NE(error, nullptr) << *response;
  const std::string code = error->StringOr("code", "");
  EXPECT_TRUE(code == "io_error" || code == "unavailable") << *response;
  EXPECT_NE(error->StringOr("message", "").find("injected fault"),
            std::string::npos)
      << *response;

  // Nothing half-loaded, and the daemon recovers once the fault clears.
  fault::FailpointRegistry::Global().DisarmAll();
  Result<std::string> retry =
      client->Call(SerializeLoadRequest(true, 2, load));
  ASSERT_TRUE(retry.ok());
  Result<obs::JsonValue> retry_doc = obs::ParseJson(*retry);
  ASSERT_TRUE(retry_doc.ok());
  EXPECT_TRUE(retry_doc->Find("ok")->AsBool()) << *retry;
  server.Stop();
}

}  // namespace
}  // namespace freshsel::serve
