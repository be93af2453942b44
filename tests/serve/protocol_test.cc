// Codec-layer tests for the daemon wire protocol (DESIGN.md §15). The
// codec is pure - no sockets, no engine - so everything here is exact:
// strict parsing (unknown fields, duplicate keys, type confusion and
// out-of-domain values are errors, not warnings), canonical serialization,
// and the round-trip property ParseRequest(Serialize*(...)) == original
// that the fuzz suite and `freshsel query` both lean on.

#include "serve/protocol.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "obs/json_reader.h"

namespace freshsel::serve {
namespace {

Request ParseOk(const std::string& line) {
  Result<Request> request = ParseRequest(line);
  EXPECT_TRUE(request.ok()) << line << " -> " << request.status().ToString();
  return request.ok() ? *request : Request{};
}

Status ParseErr(const std::string& line) {
  Result<Request> request = ParseRequest(line);
  EXPECT_FALSE(request.ok()) << "unexpectedly parsed: " << line;
  return request.ok() ? Status::OK() : request.status();
}

/// Rejection-only form for call sites that don't inspect the message.
void ExpectParseErr(const std::string& line) {
  static_cast<void>(ParseErr(line));
}

// ---------------------------------------------------------------------------
// Parsing: happy paths

TEST(ProtocolParseTest, ControlOpsParseWithAndWithoutId) {
  Request ping = ParseOk(R"({"op":"ping"})");
  EXPECT_EQ(ping.op, RequestOp::kPing);
  EXPECT_FALSE(ping.has_id);

  Request list = ParseOk(R"({"op":"list","id":0})");
  EXPECT_EQ(list.op, RequestOp::kListScenarios);
  EXPECT_TRUE(list.has_id);
  EXPECT_EQ(list.id, 0u);  // has_id distinguishes "no id" from "id 0".

  Request metrics = ParseOk(R"({"op":"metrics","id":18446744073709551615})");
  EXPECT_EQ(metrics.op, RequestOp::kMetrics);
  EXPECT_TRUE(metrics.has_id);
  EXPECT_EQ(metrics.id, std::numeric_limits<std::uint64_t>::max());
}

TEST(ProtocolParseTest, QueryDefaultsMatchBatchSelectDefaults) {
  Request request = ParseOk(R"({"op":"query"})");
  ASSERT_EQ(request.op, RequestOp::kQuery);
  const QueryParams& q = request.query;
  EXPECT_EQ(q.scenario, "default");
  EXPECT_EQ(q.metric, "coverage");
  EXPECT_EQ(q.gain, "linear");
  EXPECT_EQ(q.algorithm, "maxsub");
  EXPECT_EQ(q.t0, 0);
  EXPECT_EQ(q.points, 10);
  EXPECT_EQ(q.stride, 7);
  EXPECT_TRUE(std::isinf(q.budget));
  EXPECT_EQ(q.max_divisor, 1);
  EXPECT_EQ(q.kappa, 5);
  EXPECT_EQ(q.restarts, 20);
  EXPECT_EQ(q.seed, 42);
  EXPECT_EQ(q.threads, 1);
  EXPECT_FALSE(q.stochastic);
  EXPECT_DOUBLE_EQ(q.stochastic_epsilon, 0.1);
  EXPECT_TRUE(q.roster.empty());
  EXPECT_FALSE(q.include_report);
}

TEST(ProtocolParseTest, QueryWithEveryField) {
  Request request = ParseOk(
      R"({"op":"query","id":7,"scenario":"web-3.1","metric":"mix",)"
      R"("gain":"quad","algorithm":"budgeted","t0":90,"points":4,)"
      R"("stride":14,"budget":0.4,"max_divisor":3,"kappa":2,)"
      R"("restarts":5,"seed":-9,"threads":8,)"
      R"("stochastic":true,"stochastic_epsilon":0.25,)"
      R"("roster":["a","b"],"report":true})");
  const QueryParams& q = request.query;
  EXPECT_TRUE(request.has_id);
  EXPECT_EQ(request.id, 7u);
  EXPECT_EQ(q.scenario, "web-3.1");
  EXPECT_EQ(q.metric, "mix");
  EXPECT_EQ(q.gain, "quad");
  EXPECT_EQ(q.algorithm, "budgeted");
  EXPECT_EQ(q.t0, 90);
  EXPECT_EQ(q.points, 4);
  EXPECT_EQ(q.stride, 14);
  EXPECT_DOUBLE_EQ(q.budget, 0.4);
  EXPECT_EQ(q.max_divisor, 3);
  EXPECT_EQ(q.kappa, 2);
  EXPECT_EQ(q.restarts, 5);
  EXPECT_EQ(q.seed, -9);
  EXPECT_EQ(q.threads, 8);
  EXPECT_TRUE(q.stochastic);
  EXPECT_DOUBLE_EQ(q.stochastic_epsilon, 0.25);
  EXPECT_EQ(q.roster, (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(q.include_report);
}

TEST(ProtocolParseTest, LoadRequiresDir) {
  Request request =
      ParseOk(R"({"op":"load","scenario":"s1","dir":"/data/s1"})");
  EXPECT_EQ(request.op, RequestOp::kLoadScenario);
  EXPECT_EQ(request.load.scenario, "s1");
  EXPECT_EQ(request.load.dir, "/data/s1");

  EXPECT_EQ(ParseErr(R"({"op":"load","scenario":"s1"})").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseErr(R"({"op":"load","dir":""})").code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Parsing: strictness

TEST(ProtocolParseTest, RejectsMalformedFrames) {
  ExpectParseErr("");
  ExpectParseErr("not json");
  ExpectParseErr("{");
  ExpectParseErr("[1,2,3]");           // Non-object root.
  ExpectParseErr("\"query\"");         // String root.
  ExpectParseErr("42");                // Number root.
  ExpectParseErr("null");
  ExpectParseErr(R"({"id":1})");       // Missing op.
  ExpectParseErr(R"({"op":"nope"})");  // Unknown op.
  ExpectParseErr(R"({"op":42})");      // Type-confused op.
}

TEST(ProtocolParseTest, RejectsUnknownFieldsNamingTheOffender) {
  const Status status = ParseErr(R"({"op":"query","bugdet":0.4})");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("bugdet"), std::string::npos)
      << status.ToString();
  // Control ops accept no payload fields at all.
  ExpectParseErr(R"({"op":"ping","scenario":"default"})");
  ExpectParseErr(R"({"op":"list","dir":"/x"})");
}

TEST(ProtocolParseTest, RejectsRemovedAccelerationFlags) {
  // CELF and incremental scoring follow from the oracle, not the request,
  // and the vector path from the CPU; the former "lazy", "incremental" and
  // "fast_math" knobs are unknown fields now.
  for (const char* field : {"lazy", "incremental", "fast_math"}) {
    const Status status = ParseErr(std::string(R"({"op":"query",")") +
                                   field + R"(":false})");
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << field;
    EXPECT_NE(status.message().find(std::string("unknown field '") + field),
              std::string::npos)
        << status.ToString();
  }
}

TEST(ProtocolParseTest, RejectsDuplicateKeys) {
  const Status status =
      ParseErr(R"({"op":"query","budget":0.4,"budget":0.9})");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("duplicate"), std::string::npos);
  ExpectParseErr(R"({"op":"ping","op":"ping"})");
}

TEST(ProtocolParseTest, RejectsTypeConfusion) {
  ExpectParseErr(R"({"op":"query","budget":"0.4"})");
  ExpectParseErr(R"({"op":"query","scenario":17})");
  ExpectParseErr(R"({"op":"query","stochastic":"yes"})");
  ExpectParseErr(R"({"op":"query","points":true})");
  ExpectParseErr(R"({"op":"query","roster":"s1"})");
  ExpectParseErr(R"({"op":"query","roster":[1]})");
  ExpectParseErr(R"({"op":"query","seed":1.5})");     // Non-integer number.
  ExpectParseErr(R"({"op":"query","id":-1})");        // Negative id.
  ExpectParseErr(R"({"op":"query","id":1.5})");
  ExpectParseErr(R"({"op":"query","id":"7"})");
  ExpectParseErr(R"({"op":"load","dir":["x"]})");
}

TEST(ProtocolParseTest, RejectsOutOfDomainValues) {
  ExpectParseErr(R"({"op":"query","metric":"recall"})");
  ExpectParseErr(R"({"op":"query","gain":"cubic"})");
  ExpectParseErr(R"({"op":"query","algorithm":"annealing"})");
  ExpectParseErr(R"({"op":"query","budget":0})");
  ExpectParseErr(R"({"op":"query","budget":-1})");
  ExpectParseErr(R"({"op":"query","points":0})");
  ExpectParseErr(R"({"op":"query","stride":0})");
  ExpectParseErr(R"({"op":"query","threads":0})");
  ExpectParseErr(R"({"op":"query","threads":65})");
  ExpectParseErr(R"({"op":"query","stochastic_epsilon":0})");
  ExpectParseErr(R"({"op":"query","stochastic_epsilon":1})");
  ExpectParseErr(R"({"op":"query","max_divisor":0})");
  ExpectParseErr(R"({"op":"query","scenario":""})");
  ExpectParseErr(R"({"op":"query","scenario":"../etc"})");
  ExpectParseErr(R"({"op":"query","scenario":"a b"})");
  ExpectParseErr(R"({"op":"query","roster":["a","a"]})");  // Duplicate entry.
  ExpectParseErr(R"({"op":"query","roster":[""]})");
}

TEST(ProtocolParseTest, RejectsResourceSizingValuesPastTheWireCaps) {
  // Every knob that sizes an allocation or narrows to int downstream has a
  // hard wire cap; a single request must not be able to reserve gigabytes
  // (points), overflow t0 + i * stride (stride), or flip negative inside a
  // selector (kappa/restarts).
  ExpectParseErr(R"({"op":"query","points":4000000000000000000})");
  ExpectParseErr(R"({"op":"query","points":1048577})");
  ExpectParseErr(R"({"op":"query","stride":4000000000000000000})");
  ExpectParseErr(R"({"op":"query","stride":1048577})");
  ExpectParseErr(R"({"op":"query","max_divisor":65})");
  ExpectParseErr(R"({"op":"query","kappa":5000000000})");
  ExpectParseErr(R"({"op":"query","kappa":65537})");
  ExpectParseErr(R"({"op":"query","restarts":5000000000})");
  ExpectParseErr(R"({"op":"query","restarts":65537})");
  // The caps sit exactly at the documented constants (stride 1 keeps the
  // cross-field points * stride bound satisfied at the points cap).
  EXPECT_EQ(ParseOk(R"({"op":"query","stride":1,"points":1048576})")
                .query.points,
            kMaxEvalSpanSteps);
  EXPECT_EQ(ParseOk(R"({"op":"query","kappa":65536})").query.kappa,
            kMaxQueryKappa);
  EXPECT_EQ(ParseOk(R"({"op":"query","restarts":65536})").query.restarts,
            kMaxQueryRestarts);
  EXPECT_EQ(ParseOk(R"({"op":"query","max_divisor":64})").query.max_divisor,
            kMaxQueryDivisor);
}

TEST(ProtocolParseTest, RejectsEvalSpansPastTheHorizon) {
  // points and stride are individually in range, but their product (the
  // farthest eval time's offset from t0) exceeds the estimator horizon.
  // Field order must not matter.
  ExpectParseErr(R"({"op":"query","points":1048576,"stride":2})");
  ExpectParseErr(R"({"op":"query","stride":1048576,"points":2})");
  ExpectParseErr(R"({"op":"query","points":1025,"stride":1024})");
  // The exact boundary is accepted: 1024 * 1024 == 2^20.
  const Request boundary =
      ParseOk(R"({"op":"query","points":1024,"stride":1024})");
  EXPECT_EQ(boundary.query.points * boundary.query.stride,
            kMaxEvalSpanSteps);
  // A stride-only request still honors the default points (10).
  ExpectParseErr(R"({"op":"query","stride":1048576})" );
}

TEST(ProtocolSerializeTest, ControlSerializerRefusesWorkOps) {
  // Work ops carry parameters; folding them into some control line would
  // hand the caller a valid-looking but wrong request.
  EXPECT_DEATH(SerializeControlRequest(true, 1, RequestOp::kQuery),
               "control op");
  EXPECT_DEATH(SerializeControlRequest(false, 0, RequestOp::kLoadScenario),
               "control op");
}

TEST(ProtocolParseTest, RejectsOversizedLines) {
  std::string line = R"({"op":"query","scenario":")";
  line.append(kMaxRequestBytes, 'a');
  line += "\"}";
  const Status status = ParseErr(line);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("exceeds"), std::string::npos);
}

TEST(ProtocolParseTest, EnumErrorsListTheAllowedValues) {
  const Status status = ParseErr(R"({"op":"query","metric":"recall"})");
  EXPECT_NE(status.message().find("coverage"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("recall"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Round trips

bool SameParams(const QueryParams& a, const QueryParams& b) {
  return a.scenario == b.scenario && a.metric == b.metric &&
         a.gain == b.gain && a.algorithm == b.algorithm && a.t0 == b.t0 &&
         a.points == b.points && a.stride == b.stride &&
         ((std::isinf(a.budget) && std::isinf(b.budget)) ||
          a.budget == b.budget) &&
         a.max_divisor == b.max_divisor && a.kappa == b.kappa &&
         a.restarts == b.restarts && a.seed == b.seed &&
         a.threads == b.threads && a.stochastic == b.stochastic &&
         a.stochastic_epsilon == b.stochastic_epsilon &&
         a.roster == b.roster && a.include_report == b.include_report;
}

TEST(ProtocolRoundTripTest, DefaultQueryParamsSurviveSerialization) {
  const QueryParams params;
  Request parsed = ParseOk(SerializeQueryRequest(true, 9, params));
  EXPECT_TRUE(parsed.has_id);
  EXPECT_EQ(parsed.id, 9u);
  EXPECT_TRUE(SameParams(parsed.query, params));
}

TEST(ProtocolRoundTripTest, RichQueryParamsSurviveSerialization) {
  QueryParams params;
  params.scenario = "web.v2-1";
  params.metric = "freshness";
  params.gain = "step";
  params.algorithm = "grasp";
  params.t0 = 365;
  params.points = 3;
  params.stride = 30;
  params.budget = 0.125;  // Dyadic: exact through the double formatter.
  params.max_divisor = 4;
  params.kappa = 3;
  params.restarts = 7;
  params.seed = -1234567;
  params.threads = 16;
  params.stochastic = true;
  params.stochastic_epsilon = 0.5;
  params.roster = {"crawl-a", "crawl-b", "feed_1"};
  params.include_report = true;
  Request parsed = ParseOk(SerializeQueryRequest(false, 0, params));
  EXPECT_FALSE(parsed.has_id);
  EXPECT_TRUE(SameParams(parsed.query, params));
}

TEST(ProtocolRoundTripTest, LoadAndControlRequestsSurviveSerialization) {
  LoadParams load;
  load.scenario = "s9";
  load.dir = "/data/with \"quotes\" and \n newlines";
  Request parsed = ParseOk(SerializeLoadRequest(true, 3, load));
  EXPECT_EQ(parsed.op, RequestOp::kLoadScenario);
  EXPECT_EQ(parsed.load.scenario, load.scenario);
  EXPECT_EQ(parsed.load.dir, load.dir);

  EXPECT_EQ(ParseOk(SerializeControlRequest(true, 1, RequestOp::kPing)).op,
            RequestOp::kPing);
  EXPECT_EQ(
      ParseOk(SerializeControlRequest(false, 0, RequestOp::kListScenarios))
          .op,
      RequestOp::kListScenarios);
  EXPECT_EQ(ParseOk(SerializeControlRequest(true, 2, RequestOp::kMetrics)).op,
            RequestOp::kMetrics);
}

// ---------------------------------------------------------------------------
// Response serializers

obs::JsonValue ParseResponse(const std::string& line) {
  Result<obs::JsonValue> doc = obs::ParseJson(line);
  EXPECT_TRUE(doc.ok()) << line;
  EXPECT_TRUE(doc.ok() && doc->is_object()) << line;
  return doc.ok() ? *doc : obs::JsonValue();
}

TEST(ProtocolResponseTest, ErrorCarriesCodeAndMessage) {
  obs::JsonValue doc =
      ParseResponse(SerializeError(true, 4, "overloaded", "queue full"));
  EXPECT_EQ(doc.UintOr("id", 0), 4u);
  ASSERT_NE(doc.Find("ok"), nullptr);
  EXPECT_FALSE(doc.Find("ok")->AsBool());
  const obs::JsonValue* error = doc.Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->StringOr("code", ""), "overloaded");
  EXPECT_EQ(error->StringOr("message", ""), "queue full");
  EXPECT_EQ(doc.Find("result"), nullptr);
}

TEST(ProtocolResponseTest, StatusErrorUsesSnakeCaseWireNames) {
  obs::JsonValue doc = ParseResponse(
      SerializeStatusError(false, 0, Status::NotFound("no such scenario")));
  EXPECT_EQ(doc.Find("id"), nullptr);  // No id in -> no id out.
  EXPECT_EQ(doc.Find("error")->StringOr("code", ""), "not_found");
  EXPECT_EQ(doc.Find("error")->StringOr("message", ""), "no such scenario");
}

TEST(ProtocolResponseTest, PingCarriesStateAndProtocolVersion) {
  PingInfo info;
  info.state = "draining";
  info.inflight = 2;
  info.queued = 5;
  info.scenarios = 1;
  obs::JsonValue doc = ParseResponse(SerializePing(true, 1, info));
  const obs::JsonValue* result = doc.Find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->StringOr("state", ""), "draining");
  EXPECT_EQ(result->UintOr("protocol_version", 0),
            static_cast<std::uint64_t>(kProtocolVersion));
  EXPECT_EQ(result->UintOr("inflight", 0), 2u);
  EXPECT_EQ(result->UintOr("queued", 0), 5u);
  EXPECT_EQ(result->UintOr("scenarios", 9), 1u);
}

TEST(ProtocolResponseTest, ScenarioListAndLoadedShareOneShape) {
  ScenarioInfo info;
  info.name = "default";
  info.sources = 12;
  info.entities = 3400;
  info.t0 = 100;
  info.epoch = 3;
  obs::JsonValue loaded = ParseResponse(SerializeLoaded(true, 2, info));
  const obs::JsonValue* result = loaded.Find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->StringOr("name", ""), "default");
  EXPECT_EQ(result->UintOr("sources", 0), 12u);
  EXPECT_EQ(result->UintOr("entities", 0), 3400u);
  EXPECT_EQ(result->NumberOr("t0", 0), 100.0);
  EXPECT_EQ(result->UintOr("epoch", 0), 3u);

  obs::JsonValue list = ParseResponse(SerializeScenarioList(true, 2, {info}));
  const obs::JsonValue* scenarios = list.Find("result")->Find("scenarios");
  ASSERT_NE(scenarios, nullptr);
  ASSERT_EQ(scenarios->items().size(), 1u);
  EXPECT_EQ(scenarios->items()[0].StringOr("name", ""), "default");
}

TEST(ProtocolResponseTest, QueryOutcomeCarriesSelectionAndText) {
  QueryOutcome outcome;
  outcome.selected = {{"crawl-a", 1, 0.25}, {"feed_1", 2, 0.125}};
  outcome.profit = 1.5;
  outcome.cost = 0.375;
  outcome.coverage = 0.9;
  outcome.freshness = 0.8;
  outcome.accuracy = 0.7;
  outcome.oracle_calls = 42;
  outcome.text = "table\nsummary line\n";
  obs::JsonValue doc =
      ParseResponse(SerializeQueryOutcome(true, 11, outcome));
  const obs::JsonValue* result = doc.Find("result");
  ASSERT_NE(result, nullptr);
  const obs::JsonValue* selected = result->Find("selected");
  ASSERT_NE(selected, nullptr);
  ASSERT_EQ(selected->items().size(), 2u);
  EXPECT_EQ(selected->items()[0].StringOr("name", ""), "crawl-a");
  EXPECT_EQ(selected->items()[1].NumberOr("divisor", 0), 2.0);
  EXPECT_EQ(result->NumberOr("profit", 0), 1.5);
  EXPECT_EQ(result->UintOr("oracle_calls", 0), 42u);
  EXPECT_EQ(result->StringOr("text", ""), "table\nsummary line\n");
  EXPECT_EQ(result->Find("report"), nullptr);  // Absent unless requested.

  outcome.report_json = R"({"schema_version":2})";
  obs::JsonValue with_report =
      ParseResponse(SerializeQueryOutcome(true, 11, outcome));
  const obs::JsonValue* report =
      with_report.Find("result")->Find("report");
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(report->UintOr("schema_version", 0), 2u);
}

// ---------------------------------------------------------------------------
// Status <-> wire code mapping

TEST(ProtocolStatusCodeTest, WireNamesRoundTripForRealStatusCodes) {
  for (const StatusCode code :
       {StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
        StatusCode::kInternal, StatusCode::kIoError,
        StatusCode::kUnimplemented, StatusCode::kUnavailable}) {
    EXPECT_EQ(StatusCodeFromWireName(StatusCodeWireName(code)), code);
  }
}

TEST(ProtocolStatusCodeTest, TransportTrioFoldsToUnavailable) {
  EXPECT_EQ(StatusCodeFromWireName("oversized"), StatusCode::kUnavailable);
  EXPECT_EQ(StatusCodeFromWireName("overloaded"), StatusCode::kUnavailable);
  EXPECT_EQ(StatusCodeFromWireName("draining"), StatusCode::kUnavailable);
  EXPECT_EQ(StatusCodeFromWireName("gibberish"), StatusCode::kInternal);
}

TEST(ProtocolStatusCodeTest, StatusFromWireNeverReturnsOk) {
  const Status draining = StatusFromWire("draining", "shutting down");
  EXPECT_EQ(draining.code(), StatusCode::kUnavailable);
  EXPECT_EQ(draining.message(), "shutting down");
  // An "ok" error code is a protocol violation; fold it to internal
  // rather than minting a success.
  EXPECT_EQ(StatusFromWire("ok", "x").code(), StatusCode::kInternal);
  EXPECT_EQ(StatusFromWire("not_found", "x").code(), StatusCode::kNotFound);
}

TEST(ProtocolControlOpTest, ClassifiesOps) {
  EXPECT_TRUE(IsControlOp(RequestOp::kPing));
  EXPECT_TRUE(IsControlOp(RequestOp::kListScenarios));
  EXPECT_TRUE(IsControlOp(RequestOp::kMetrics));
  EXPECT_FALSE(IsControlOp(RequestOp::kQuery));
  EXPECT_FALSE(IsControlOp(RequestOp::kLoadScenario));
}

}  // namespace
}  // namespace freshsel::serve
