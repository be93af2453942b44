#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "common/result.h"
#include "selection/gain.h"
#include "selection/selector.h"

namespace freshsel::serve {

/// Wire protocol of the selection daemon (DESIGN.md §15): newline-delimited
/// JSON, one request object per line in, one response object per line out.
/// This header is the *codec* layer - pure parse/serialize with no sockets,
/// no engine, no globals - so it is exhaustively testable (including the
/// seeded fuzz suite) without a running server.
///
/// Request shape:
///
///   {"op": "query", "id": 7, "scenario": "default",
///    "algorithm": "greedy", "budget": 0.4, "roster": ["s1", "s2"], ...}
///
/// `op` selects the verb; every other field is op-specific. Unknown fields
/// and type-confused fields are rejected with `invalid_argument` rather
/// than ignored - determinism starts at input (the MarkQL rule), and a
/// silently dropped misspelled knob would return a *valid-looking but
/// wrong* selection. `id` is optional and echoed verbatim in the response
/// so pipelined clients can match answers to questions.
///
/// Response shape:
///
///   {"id": 7, "ok": true, "result": {...}}
///   {"id": 7, "ok": false, "error": {"code": "invalid_argument",
///                                    "message": "..."}}
///
/// Error codes are the Status code names in snake_case (malformed lines
/// and bad fields are both `invalid_argument`; newline framing survives a
/// bad line, so the connection stays usable) plus the transport-level trio
/// `oversized` (request line over kMaxRequestBytes; the reader cannot
/// resync inside it, so the connection closes), `overloaded` (admission
/// control rejected the request) and `draining` (the daemon is shutting
/// down and refuses new work).
inline constexpr int kProtocolVersion = 1;

/// Hard cap on one request line. Longer lines are answered with an
/// `oversized` error and the connection is closed (the reader cannot
/// resync inside an oversized line).
inline constexpr std::size_t kMaxRequestBytes = 1 << 20;

/// Caps on the numeric kQuery knobs, enforced by ValidateQuery. Every one
/// of these sizes an allocation or is narrowed downstream: a query must
/// never be able to reserve gigabytes, overflow `t0 + i * stride`, or turn
/// into a negative int inside a selector.
///
/// `kMaxEvalSpanSteps` bounds `points`, `stride` and their product (the
/// farthest eval time is `t0 + points * stride`); it mirrors
/// estimation::kMaxEvalHorizonSteps, which the estimator enforces only
/// after the eval-time vector is materialized (engine.cc static_asserts
/// the two stay equal).
inline constexpr std::int64_t kMaxEvalSpanSteps = 1 << 20;
inline constexpr std::int64_t kMaxQueryDivisor = 64;
inline constexpr std::int64_t kMaxQueryKappa = 1 << 16;
inline constexpr std::int64_t kMaxQueryRestarts = 1 << 16;
inline constexpr std::int64_t kMaxQueryThreads = 64;

/// Request verbs. kPing/kListScenarios/kMetrics are *control* ops - cheap,
/// never queued, answered even when the query lanes are saturated, so a
/// health check stays meaningful under overload. kQuery/kLoadScenario are
/// *work* ops subject to admission control.
enum class RequestOp {
  kPing,           ///< Liveness + daemon state probe.
  kListScenarios,  ///< Resident scenario inventory.
  kMetrics,        ///< OpenMetrics exposition of the metrics registry.
  kLoadScenario,   ///< Ingest (or re-ingest) a scenario directory.
  kQuery,          ///< One selection query.
};

/// True for ops that bypass the admission queue (see RequestOp).
bool IsControlOp(RequestOp op);

/// Selection-query parameters; field-for-field the knobs of batch
/// `freshsel select`, so every servable query has a batch twin to compare
/// against (the byte-identity contract the stress suite enforces). Which
/// values are valid is decided by ValidateQuery alone.
struct QueryParams {
  std::string scenario = "default";
  std::string metric = "coverage";    ///< coverage|accuracy|freshness|mix
  std::string gain = "linear";        ///< linear|quad|step|data
  std::string algorithm = "maxsub";   ///< greedy|maxsub|grasp|budgeted
  std::int64_t t0 = 0;                ///< 0 -> the scenario's manifest t0.
  std::int64_t points = 10;
  std::int64_t stride = 7;
  double budget = std::numeric_limits<double>::infinity();
  std::int64_t max_divisor = 1;
  std::int64_t kappa = 5;
  std::int64_t restarts = 20;
  std::int64_t seed = 42;
  std::int64_t threads = 1;
  bool stochastic = false;  ///< Sampled greedy rounds.
  double stochastic_epsilon = 0.1;
  /// Source-name roster filter; empty means every source in the scenario.
  std::vector<std::string> roster;
  /// When true the response carries the per-request RunReport (schema v2)
  /// under result.report.
  bool include_report = false;
};

/// A wire name of an enum-valued query field and the selection enum it
/// names.
template <typename Enum>
struct WireName {
  std::string_view name;
  Enum value;
};

/// The names ValidateQuery accepts for `metric`, `gain` and `algorithm`, in
/// the order its errors list them. The engine maps a valid query's names
/// through these same tables (FromWireName).
inline constexpr WireName<selection::QualityMetric> kMetricNames[] = {
    {"coverage", selection::QualityMetric::kCoverage},
    {"accuracy", selection::QualityMetric::kAccuracy},
    {"freshness", selection::QualityMetric::kGlobalFreshness},
    {"mix", selection::QualityMetric::kCoverageFreshnessMix},
};
inline constexpr WireName<selection::GainFamily> kGainNames[] = {
    {"linear", selection::GainFamily::kLinear},
    {"quad", selection::GainFamily::kQuadratic},
    {"step", selection::GainFamily::kStep},
    {"data", selection::GainFamily::kData},
};
inline constexpr WireName<selection::Algorithm> kAlgorithmNames[] = {
    {"greedy", selection::Algorithm::kGreedy},
    {"maxsub", selection::Algorithm::kMaxSub},
    {"grasp", selection::Algorithm::kGrasp},
    {"budgeted", selection::Algorithm::kBudgeted},
};

/// The value `name` has in `table`. `name` must be one of the table's names,
/// as every name of a query that ValidateQuery accepted is.
template <typename Enum, std::size_t N>
Enum FromWireName(const WireName<Enum> (&table)[N], std::string_view name) {
  const WireName<Enum>* entry =
      std::find_if(std::begin(table), std::end(table),
                   [&](const WireName<Enum>& e) { return e.name == name; });
  FRESHSEL_CHECK(entry != std::end(table)) << "not a wire name: " << name;
  return entry->value;
}

/// The one definition of a valid query: a tame scenario name, known
/// metric/gain/algorithm names, the kMaxQuery* caps and the points x stride
/// horizon, budget > 0, stochastic_epsilon in (0, 1), t0 >= 0 (0 means the
/// scenario's manifest t0) and a roster of distinct non-empty names.
/// Returns InvalidArgument naming the first offending field. The codec, the
/// engine's entry points and the CLI's flag reader all call it, so a query
/// is refused with the same message whichever way it arrives.
Status ValidateQuery(const QueryParams& params);

struct LoadParams {
  std::string scenario = "default";
  std::string dir;
};

/// One parsed request. `has_id` distinguishes "no id" from "id 0".
struct Request {
  RequestOp op = RequestOp::kPing;
  bool has_id = false;
  std::uint64_t id = 0;
  QueryParams query;  ///< Valid when op == kQuery.
  LoadParams load;    ///< Valid when op == kLoadScenario.
};

/// Parses one request line. Strict by design: not-JSON, a non-object root,
/// unknown `op`, unknown fields, wrong field types and oversized lines all
/// return InvalidArgument with a message naming the offender, and a query
/// whose fields parse must then pass ValidateQuery. Never crashes on
/// malformed input (fuzzed, ASan/UBSan clean).
Result<Request> ParseRequest(std::string_view line);

/// Canonical kQuery request line (no trailing newline). Every field is
/// emitted except an infinite budget (JSON has no inf; absence means
/// unbounded) and an empty roster, so for any valid `params`,
/// ParseRequest(SerializeQueryRequest(...)) reproduces it exactly - the
/// round-trip property the fuzz suite leans on. `freshsel query` and the
/// stress harness build their requests through this, never by hand.
std::string SerializeQueryRequest(bool has_id, std::uint64_t id,
                                  const QueryParams& params);

/// Canonical kLoadScenario request line.
std::string SerializeLoadRequest(bool has_id, std::uint64_t id,
                                 const LoadParams& params);

/// Canonical control-op request line ("ping", "list" or "metrics").
std::string SerializeControlRequest(bool has_id, std::uint64_t id,
                                    RequestOp op);

/// One selected element of a query response.
struct SelectedSource {
  std::string name;
  std::int64_t divisor = 1;
  double cost = 0.0;
};

/// Result payload of a kQuery response. `text` is byte-for-byte the table +
/// summary that batch `freshsel select` prints for the same request (the
/// equivalence contract); the structured fields carry the same facts for
/// programmatic clients.
struct QueryOutcome {
  std::vector<SelectedSource> selected;
  double profit = 0.0;
  double cost = 0.0;
  double coverage = 0.0;
  double freshness = 0.0;
  double accuracy = 0.0;
  std::uint64_t oracle_calls = 0;
  std::string text;
  /// Serialized RunReport JSON document; empty unless requested.
  std::string report_json;
};

struct ScenarioInfo {
  std::string name;
  std::uint64_t sources = 0;
  std::uint64_t entities = 0;
  std::int64_t t0 = 0;
  std::uint64_t epoch = 0;  ///< Bumped on every (re-)load.
};

struct PingInfo {
  std::string state;  ///< "serving" or "draining".
  std::uint64_t inflight = 0;
  std::uint64_t queued = 0;
  std::uint64_t scenarios = 0;
};

/// Response serializers. Each returns one complete line *without* the
/// trailing '\n' (the transport owns framing). Every emitted line parses
/// back as valid JSON; the fuzz suite round-trips them.
std::string SerializeError(bool has_id, std::uint64_t id,
                           std::string_view code, std::string_view message);
/// Maps a Status to an error response (`code` is the snake_case status
/// code name, e.g. NotFound -> "not_found").
std::string SerializeStatusError(bool has_id, std::uint64_t id,
                                 const Status& status);
std::string SerializePing(bool has_id, std::uint64_t id,
                          const PingInfo& info);
std::string SerializeScenarioList(bool has_id, std::uint64_t id,
                                  const std::vector<ScenarioInfo>& scenarios);
std::string SerializeMetrics(bool has_id, std::uint64_t id,
                             std::string_view openmetrics_text);
std::string SerializeLoaded(bool has_id, std::uint64_t id,
                            const ScenarioInfo& info);
std::string SerializeQueryOutcome(bool has_id, std::uint64_t id,
                                  const QueryOutcome& outcome);

/// snake_case protocol code for a Status code ("invalid_argument", ...).
std::string_view StatusCodeWireName(StatusCode code);

/// Inverse of StatusCodeWireName. Unknown codes - including the
/// transport-level `oversized`/`overloaded`/`draining` trio, which have no
/// Status equivalent - map to kUnavailable for `oversized`/`overloaded`/
/// `draining` and kInternal otherwise, so clients can fold any error
/// response back into a Status.
StatusCode StatusCodeFromWireName(std::string_view name);

/// A non-ok Status carrying `message` under the Status code
/// StatusCodeFromWireName maps `code` to (an `ok` code is treated as
/// internal: error responses are never ok).
Status StatusFromWire(std::string_view code, const std::string& message);

}  // namespace freshsel::serve
