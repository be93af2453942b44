// Seeded property/fuzz suite for the protocol codec (ISSUE 10 satellite).
// The invariant under test is narrow and absolute: for ANY byte string,
// ParseRequest returns either a parsed request or InvalidArgument - it
// never crashes, never hangs, never returns another error class. The
// mutator is seeded with freshsel::Rng so a failure reproduces exactly;
// ASan/UBSan jobs run this same binary in CI.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "serve/protocol.h"

namespace freshsel::serve {
namespace {

/// The one property every input must satisfy.
void CheckNeverCrashes(const std::string& line) {
  Result<Request> request = ParseRequest(line);
  if (!request.ok()) {
    EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument)
        << "unexpected error class for: " << line.substr(0, 200);
  }
}

/// A seeded, structurally valid request to mutate. Varies every knob so
/// mutations land on all field kinds (strings, ints, doubles, bools,
/// arrays).
std::string SeedRequest(Rng& rng) {
  switch (rng.NextBounded(4)) {
    case 0: {
      QueryParams params;
      params.scenario = rng.NextBounded(2) == 0 ? "default" : "web.v2-1";
      const char* metrics[] = {"coverage", "accuracy", "freshness", "mix"};
      params.metric = metrics[rng.NextBounded(4)];
      const char* gains[] = {"linear", "quad", "step", "data"};
      params.gain = gains[rng.NextBounded(4)];
      const char* algorithms[] = {"greedy", "maxsub", "grasp", "budgeted"};
      params.algorithm = algorithms[rng.NextBounded(4)];
      params.t0 = static_cast<std::int64_t>(rng.NextBounded(1000));
      params.points = 1 + static_cast<std::int64_t>(rng.NextBounded(20));
      params.stride = 1 + static_cast<std::int64_t>(rng.NextBounded(30));
      if (rng.NextBounded(2) == 0) {
        params.budget = 0.0625 * static_cast<double>(1 + rng.NextBounded(16));
      }
      params.max_divisor = 1 + static_cast<std::int64_t>(rng.NextBounded(4));
      // Seeds ride the wire as JSON doubles, which are only integer-exact
      // up to 2^53; the codec rejects magnitudes past its conservative
      // int64 cap, so fuzz within the representable range.
      params.seed = static_cast<std::int64_t>(rng.Next() >> 11);
      if (rng.NextBounded(2) == 0) params.seed = -params.seed;
      params.threads = 1 + static_cast<std::int64_t>(rng.NextBounded(64));
      params.stochastic = rng.NextBounded(2) == 0;
      params.stochastic_epsilon =
          0.0625 * static_cast<double>(1 + rng.NextBounded(15));
      for (std::uint64_t i = 0; i < rng.NextBounded(4); ++i) {
        params.roster.push_back("src_" + std::to_string(i));
      }
      params.include_report = rng.NextBounded(2) == 0;
      return SerializeQueryRequest(rng.NextBounded(2) == 0, rng.Next(),
                                   params);
    }
    case 1: {
      LoadParams params;
      params.scenario = "fuzz-load";
      params.dir = "/tmp/fuzz/\"dir\"\n\t";
      return SerializeLoadRequest(true, rng.Next(), params);
    }
    case 2:
      return SerializeControlRequest(rng.NextBounded(2) == 0, rng.Next(),
                                     RequestOp::kPing);
    default:
      return SerializeControlRequest(true, rng.Next(),
                                     RequestOp::kListScenarios);
  }
}

TEST(ProtocolFuzzTest, ValidSeedsRoundTripUnderEveryRngState) {
  Rng rng(0x5eed0001);
  for (int i = 0; i < 500; ++i) {
    const std::string line = SeedRequest(rng);
    Result<Request> request = ParseRequest(line);
    ASSERT_TRUE(request.ok())
        << "serializer emitted an unparseable request: " << line << " -> "
        << request.status().ToString();
  }
}

TEST(ProtocolFuzzTest, TruncationAtEveryOffsetIsHandled) {
  Rng rng(0x5eed0002);
  for (int i = 0; i < 50; ++i) {
    const std::string line = SeedRequest(rng);
    for (std::size_t cut = 0; cut < line.size(); ++cut) {
      CheckNeverCrashes(line.substr(0, cut));
      CheckNeverCrashes(line.substr(cut));
    }
  }
}

TEST(ProtocolFuzzTest, RandomByteMutationsAreHandled) {
  Rng rng(0x5eed0003);
  for (int i = 0; i < 2000; ++i) {
    std::string line = SeedRequest(rng);
    const std::uint64_t mutations = 1 + rng.NextBounded(8);
    for (std::uint64_t m = 0; m < mutations; ++m) {
      if (line.empty()) break;
      const std::size_t pos = rng.NextBounded(line.size());
      switch (rng.NextBounded(4)) {
        case 0:  // Flip to an arbitrary byte (NUL included).
          line[pos] = static_cast<char>(rng.NextBounded(256));
          break;
        case 1:  // Delete.
          line.erase(pos, 1);
          break;
        case 2:  // Insert an arbitrary byte.
          line.insert(pos, 1, static_cast<char>(rng.NextBounded(256)));
          break;
        default:  // Duplicate a random span (breeds duplicate keys).
          line.insert(pos, line.substr(pos, rng.NextBounded(16)));
          break;
      }
    }
    CheckNeverCrashes(line);
  }
}

TEST(ProtocolFuzzTest, EmbeddedNulBytesAreRejectedCleanly) {
  std::string line = R"({"op":"query","scenario":"de)";
  line += '\0';
  line += R"(fault"})";
  CheckNeverCrashes(line);
  CheckNeverCrashes(std::string(64, '\0'));
  std::string nul_key = R"({"op":"ping",")";
  nul_key += '\0';
  nul_key += R"(":1})";
  CheckNeverCrashes(nul_key);
}

TEST(ProtocolFuzzTest, TypeConfusionOnEveryKnownField) {
  // Every field of a full query request, each replaced by every JSON kind.
  const char* fields[] = {"op",          "id",
                          "scenario",    "metric",
                          "gain",        "algorithm",
                          "t0",          "points",
                          "stride",      "budget",
                          "max_divisor", "kappa",
                          "restarts",    "seed",
                          "threads",     "stochastic",
                          "stochastic_epsilon",
                          "roster",      "report"};
  const char* confusions[] = {"null", "true",      "-3.25",
                              "\"x\"", "[1,2]",    "{\"k\":1}",
                              "1e308", "-1e308",   "0.5",
                              "[]",    "{}",       "18446744073709551616"};
  for (const char* field : fields) {
    for (const char* confusion : confusions) {
      std::string line = R"({"op":"query",")";
      line += field;
      if (std::string(field) == "op") {
        line = R"({"op":)";
        line += confusion;
        line += "}";
      } else {
        line += R"(":)";
        line += confusion;
        line += "}";
      }
      CheckNeverCrashes(line);
    }
  }
}

TEST(ProtocolFuzzTest, DeepNestingDoesNotOverflowTheStack) {
  // A pathological depth bomb; the parser must error out (depth cap or
  // structural error), not recurse to death.
  std::string deep = R"({"op":"query","roster":)";
  deep.append(5000, '[');
  deep.append(5000, ']');
  deep += "}";
  CheckNeverCrashes(deep);

  std::string deep_objects;
  for (int i = 0; i < 5000; ++i) deep_objects += R"({"a":)";
  deep_objects += "1";
  deep_objects.append(5000, '}');
  CheckNeverCrashes(deep_objects);
}

TEST(ProtocolFuzzTest, OversizedLinesAreRejectedNotParsed) {
  std::string line = R"({"op":"query","scenario":")";
  line.append(kMaxRequestBytes + 1, 'a');
  line += "\"}";
  Result<Request> request = ParseRequest(line);
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(request.status().message().find("exceeds"), std::string::npos);
}

TEST(ProtocolFuzzTest, ResponsesSurviveMutationAsParserInput) {
  // Responses and requests share one JSON dialect; a confused client that
  // echoes a response back must get a clean error, not a crash.
  Rng rng(0x5eed0004);
  QueryOutcome outcome;
  outcome.selected = {{"a", 1, 0.5}};
  outcome.text = "profit 1.0\n";
  outcome.report_json = R"({"schema_version":2,"name":"serve/query"})";
  const std::string seeds[] = {
      SerializeQueryOutcome(true, 7, outcome),
      SerializeError(false, 0, "draining", "daemon is shutting down"),
      SerializePing(true, 1, PingInfo{"serving", 0, 0, 1}),
  };
  for (const std::string& seed : seeds) {
    CheckNeverCrashes(seed);
    for (int i = 0; i < 300; ++i) {
      std::string line = seed;
      const std::size_t pos = rng.NextBounded(line.size());
      line[pos] = static_cast<char>(rng.NextBounded(256));
      CheckNeverCrashes(line);
    }
  }
}

}  // namespace
}  // namespace freshsel::serve
