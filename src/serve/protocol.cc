#include "serve/protocol.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <utility>

#include "common/check.h"
#include "obs/json.h"
#include "obs/json_reader.h"

namespace freshsel::serve {

namespace {

/// Scenario names travel through list output, prepared-query cache keys
/// and log lines; keep them to a tame charset.
bool IsValidScenarioName(std::string_view name) {
  if (name.empty() || name.size() > 128) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                    c == '.';
    if (!ok) return false;
  }
  return true;
}

/// Strict typed field readers. Each rejects wrong-kind values with a
/// message naming the field, so type-confused fuzz inputs surface as clean
/// `invalid_argument` responses.
Result<std::string> ReadString(const obs::JsonValue& value,
                               std::string_view field) {
  if (!value.is_string()) {
    return Status::InvalidArgument("field '" + std::string(field) +
                                   "' must be a string");
  }
  return value.AsString();
}

Result<bool> ReadBool(const obs::JsonValue& value, std::string_view field) {
  if (!value.is_bool()) {
    return Status::InvalidArgument("field '" + std::string(field) +
                                   "' must be a boolean");
  }
  return value.AsBool();
}

Result<double> ReadDouble(const obs::JsonValue& value,
                          std::string_view field) {
  if (!value.is_number()) {
    return Status::InvalidArgument("field '" + std::string(field) +
                                   "' must be a number");
  }
  return value.AsDouble();
}

Result<std::int64_t> ReadInt(const obs::JsonValue& value,
                             std::string_view field) {
  if (!value.is_number()) {
    return Status::InvalidArgument("field '" + std::string(field) +
                                   "' must be an integer");
  }
  const double d = value.AsDouble();
  if (!std::isfinite(d) || std::floor(d) != d || d < -9.0e18 || d > 9.0e18) {
    return Status::InvalidArgument("field '" + std::string(field) +
                                   "' must be an integer in int64 range");
  }
  return static_cast<std::int64_t>(d);
}

constexpr char kRosterEntryError[] =
    "field 'roster' must contain non-empty strings";

Result<std::vector<std::string>> ReadRoster(const obs::JsonValue& value) {
  if (!value.is_array()) {
    return Status::InvalidArgument("field 'roster' must be an array");
  }
  std::vector<std::string> roster;
  roster.reserve(value.items().size());
  for (const obs::JsonValue& item : value.items()) {
    if (!item.is_string()) return Status::InvalidArgument(kRosterEntryError);
    roster.push_back(item.AsString());
  }
  return roster;
}

template <typename Enum, std::size_t N>
Status CheckName(std::string_view field, const std::string& value,
                 const WireName<Enum> (&table)[N]) {
  for (const WireName<Enum>& entry : table) {
    if (value == entry.name) return Status::OK();
  }
  std::string message = "field '" + std::string(field) + "' must be one of {";
  for (std::size_t i = 0; i < N; ++i) {
    if (i > 0) message += ", ";
    message += table[i].name;
  }
  message += "}, got '" + value + "'";
  return Status::InvalidArgument(std::move(message));
}

Status CheckRange(std::string_view field, std::int64_t value,
                  std::int64_t min,
                  std::int64_t max = std::numeric_limits<std::int64_t>::max()) {
  if (value < min) {
    return Status::InvalidArgument("field '" + std::string(field) +
                                   "' must be >= " + std::to_string(min));
  }
  if (value > max) {
    return Status::InvalidArgument("field '" + std::string(field) +
                                   "' must be <= " + std::to_string(max));
  }
  return Status::OK();
}

/// Reads one field of a kQuery request into `params`, checking only its
/// JSON type (ValidateQuery judges the values once every field is read).
/// `member` is one root-object member (the shared op/id fields are consumed
/// by the caller); returns false for keys this op does not know, which the
/// caller converts into the unknown-field error.
Result<bool> ApplyQueryField(const obs::JsonValue::Member& member,
                             QueryParams* params) {
  const std::string& key = member.first;
  const obs::JsonValue& value = member.second;
  if (key == "scenario") {
    FRESHSEL_ASSIGN_OR_RETURN(params->scenario, ReadString(value, key));
  } else if (key == "metric") {
    FRESHSEL_ASSIGN_OR_RETURN(params->metric, ReadString(value, key));
  } else if (key == "gain") {
    FRESHSEL_ASSIGN_OR_RETURN(params->gain, ReadString(value, key));
  } else if (key == "algorithm") {
    FRESHSEL_ASSIGN_OR_RETURN(params->algorithm, ReadString(value, key));
  } else if (key == "t0") {
    FRESHSEL_ASSIGN_OR_RETURN(params->t0, ReadInt(value, key));
  } else if (key == "points") {
    FRESHSEL_ASSIGN_OR_RETURN(params->points, ReadInt(value, key));
  } else if (key == "stride") {
    FRESHSEL_ASSIGN_OR_RETURN(params->stride, ReadInt(value, key));
  } else if (key == "budget") {
    FRESHSEL_ASSIGN_OR_RETURN(params->budget, ReadDouble(value, key));
  } else if (key == "max_divisor") {
    FRESHSEL_ASSIGN_OR_RETURN(params->max_divisor, ReadInt(value, key));
  } else if (key == "kappa") {
    FRESHSEL_ASSIGN_OR_RETURN(params->kappa, ReadInt(value, key));
  } else if (key == "restarts") {
    FRESHSEL_ASSIGN_OR_RETURN(params->restarts, ReadInt(value, key));
  } else if (key == "seed") {
    FRESHSEL_ASSIGN_OR_RETURN(params->seed, ReadInt(value, key));
  } else if (key == "threads") {
    FRESHSEL_ASSIGN_OR_RETURN(params->threads, ReadInt(value, key));
  } else if (key == "stochastic") {
    FRESHSEL_ASSIGN_OR_RETURN(params->stochastic, ReadBool(value, key));
  } else if (key == "stochastic_epsilon") {
    FRESHSEL_ASSIGN_OR_RETURN(params->stochastic_epsilon,
                              ReadDouble(value, key));
  } else if (key == "roster") {
    FRESHSEL_ASSIGN_OR_RETURN(params->roster, ReadRoster(value));
  } else if (key == "report") {
    FRESHSEL_ASSIGN_OR_RETURN(params->include_report, ReadBool(value, key));
  } else {
    return false;  // Not a query field.
  }
  return true;
}

Result<bool> ApplyLoadField(const obs::JsonValue::Member& member,
                            LoadParams* params) {
  const std::string& key = member.first;
  const obs::JsonValue& value = member.second;
  if (key == "scenario") {
    FRESHSEL_ASSIGN_OR_RETURN(params->scenario, ReadString(value, key));
    if (!IsValidScenarioName(params->scenario)) {
      return Status::InvalidArgument("invalid scenario name");
    }
  } else if (key == "dir") {
    FRESHSEL_ASSIGN_OR_RETURN(params->dir, ReadString(value, key));
    if (params->dir.empty()) {
      return Status::InvalidArgument("field 'dir' must be non-empty");
    }
  } else {
    return false;
  }
  return true;
}

/// Writes the shared response envelope prefix ({"id":N,"ok":B) and leaves
/// the writer positioned for the payload member.
void BeginResponse(obs::JsonWriter* writer, bool has_id, std::uint64_t id,
                   bool ok) {
  writer->BeginObject();
  if (has_id) {
    writer->Key("id");
    writer->Uint(id);
  }
  writer->Key("ok");
  writer->Bool(ok);
}

void WriteScenarioInfo(obs::JsonWriter* writer, const ScenarioInfo& info) {
  writer->BeginObject();
  writer->Field("name", info.name);
  writer->Field("sources", info.sources);
  writer->Field("entities", info.entities);
  writer->Key("t0");
  writer->Int(info.t0);
  writer->Field("epoch", info.epoch);
  writer->EndObject();
}

}  // namespace

Status ValidateQuery(const QueryParams& params) {
  if (!IsValidScenarioName(params.scenario)) {
    return Status::InvalidArgument("invalid scenario name");
  }
  FRESHSEL_RETURN_IF_ERROR(CheckName("metric", params.metric, kMetricNames));
  FRESHSEL_RETURN_IF_ERROR(CheckName("gain", params.gain, kGainNames));
  FRESHSEL_RETURN_IF_ERROR(
      CheckName("algorithm", params.algorithm, kAlgorithmNames));
  FRESHSEL_RETURN_IF_ERROR(CheckRange("t0", params.t0, 0));
  FRESHSEL_RETURN_IF_ERROR(
      CheckRange("points", params.points, 1, kMaxEvalSpanSteps));
  FRESHSEL_RETURN_IF_ERROR(
      CheckRange("stride", params.stride, 1, kMaxEvalSpanSteps));
  // The farthest eval time sits points * stride past t0; the divide form
  // is exact for positive int64 and cannot overflow, unlike the product.
  if (params.stride > kMaxEvalSpanSteps / params.points) {
    return Status::InvalidArgument(
        "'points' * 'stride' must be <= " +
        std::to_string(kMaxEvalSpanSteps) +
        " (the supported eval horizon)");
  }
  if (!(params.budget > 0.0)) {
    return Status::InvalidArgument("field 'budget' must be > 0");
  }
  FRESHSEL_RETURN_IF_ERROR(
      CheckRange("max_divisor", params.max_divisor, 1, kMaxQueryDivisor));
  FRESHSEL_RETURN_IF_ERROR(
      CheckRange("kappa", params.kappa, 1, kMaxQueryKappa));
  FRESHSEL_RETURN_IF_ERROR(
      CheckRange("restarts", params.restarts, 1, kMaxQueryRestarts));
  FRESHSEL_RETURN_IF_ERROR(
      CheckRange("threads", params.threads, 1, kMaxQueryThreads));
  if (!(params.stochastic_epsilon > 0.0) ||
      !(params.stochastic_epsilon < 1.0)) {
    return Status::InvalidArgument(
        "field 'stochastic_epsilon' must be in (0, 1)");
  }
  std::set<std::string_view> seen;
  for (const std::string& name : params.roster) {
    if (name.empty()) return Status::InvalidArgument(kRosterEntryError);
    if (!seen.insert(name).second) {
      return Status::InvalidArgument("duplicate roster entry: " + name);
    }
  }
  return Status::OK();
}

bool IsControlOp(RequestOp op) {
  return op == RequestOp::kPing || op == RequestOp::kListScenarios ||
         op == RequestOp::kMetrics;
}

std::string_view StatusCodeWireName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidArgument:
      return "invalid_argument";
    case StatusCode::kNotFound:
      return "not_found";
    case StatusCode::kOutOfRange:
      return "out_of_range";
    case StatusCode::kFailedPrecondition:
      return "failed_precondition";
    case StatusCode::kInternal:
      return "internal";
    case StatusCode::kIoError:
      return "io_error";
    case StatusCode::kUnimplemented:
      return "unimplemented";
    case StatusCode::kUnavailable:
      return "unavailable";
  }
  return "internal";
}

StatusCode StatusCodeFromWireName(std::string_view name) {
  if (name == "ok") return StatusCode::kOk;
  if (name == "invalid_argument") return StatusCode::kInvalidArgument;
  if (name == "not_found") return StatusCode::kNotFound;
  if (name == "out_of_range") return StatusCode::kOutOfRange;
  if (name == "failed_precondition") return StatusCode::kFailedPrecondition;
  if (name == "io_error") return StatusCode::kIoError;
  if (name == "unimplemented") return StatusCode::kUnimplemented;
  if (name == "unavailable" || name == "oversized" || name == "overloaded" ||
      name == "draining") {
    return StatusCode::kUnavailable;
  }
  return StatusCode::kInternal;
}

Status StatusFromWire(std::string_view code, const std::string& message) {
  switch (StatusCodeFromWireName(code)) {
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(message);
    case StatusCode::kNotFound:
      return Status::NotFound(message);
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(message);
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(message);
    case StatusCode::kIoError:
      return Status::IoError(message);
    case StatusCode::kUnimplemented:
      return Status::Unimplemented(message);
    case StatusCode::kUnavailable:
      return Status::Unavailable(message);
    case StatusCode::kOk:
    case StatusCode::kInternal:
      break;
  }
  return Status::Internal(message);
}

Result<Request> ParseRequest(std::string_view line) {
  if (line.size() > kMaxRequestBytes) {
    return Status::InvalidArgument(
        "request line exceeds " + std::to_string(kMaxRequestBytes) +
        " bytes");
  }
  Result<obs::JsonValue> doc = obs::ParseJson(line);
  if (!doc.ok()) {
    return Status::InvalidArgument("request is not valid JSON: " +
                                   doc.status().message());
  }
  if (!doc->is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }

  // Pass 1: duplicate keys (a classic confusion vector: which copy wins
  // depends on the parser) are rejected outright.
  std::set<std::string> seen;
  for (const obs::JsonValue::Member& member : doc->members()) {
    if (!seen.insert(member.first).second) {
      return Status::InvalidArgument("duplicate field '" + member.first +
                                     "'");
    }
  }

  const obs::JsonValue* op_value = doc->Find("op");
  if (op_value == nullptr) {
    return Status::InvalidArgument("request missing 'op'");
  }
  FRESHSEL_ASSIGN_OR_RETURN(const std::string op_name,
                            ReadString(*op_value, "op"));

  Request request;
  if (op_name == "ping") {
    request.op = RequestOp::kPing;
  } else if (op_name == "list") {
    request.op = RequestOp::kListScenarios;
  } else if (op_name == "metrics") {
    request.op = RequestOp::kMetrics;
  } else if (op_name == "load") {
    request.op = RequestOp::kLoadScenario;
  } else if (op_name == "query") {
    request.op = RequestOp::kQuery;
  } else {
    return Status::InvalidArgument("unknown op '" + op_name + "'");
  }

  for (const obs::JsonValue::Member& member : doc->members()) {
    const std::string& key = member.first;
    if (key == "op") continue;
    if (key == "id") {
      const obs::JsonValue& value = member.second;
      if (!value.is_number() || value.AsDouble() < 0.0 ||
          std::floor(value.AsDouble()) != value.AsDouble()) {
        return Status::InvalidArgument(
            "field 'id' must be a non-negative integer");
      }
      request.has_id = true;
      request.id = value.AsUint64();
      continue;
    }
    bool consumed = false;
    if (request.op == RequestOp::kQuery) {
      FRESHSEL_ASSIGN_OR_RETURN(consumed,
                                ApplyQueryField(member, &request.query));
    } else if (request.op == RequestOp::kLoadScenario) {
      FRESHSEL_ASSIGN_OR_RETURN(consumed,
                                ApplyLoadField(member, &request.load));
    }
    if (!consumed) {
      return Status::InvalidArgument("unknown field '" + key + "' for op '" +
                                     op_name + "'");
    }
  }
  if (request.op == RequestOp::kLoadScenario && request.load.dir.empty()) {
    return Status::InvalidArgument("op 'load' requires 'dir'");
  }
  if (request.op == RequestOp::kQuery) {
    FRESHSEL_RETURN_IF_ERROR(ValidateQuery(request.query));
  }
  return request;
}

std::string SerializeQueryRequest(bool has_id, std::uint64_t id,
                                  const QueryParams& params) {
  obs::JsonWriter writer;
  writer.BeginObject();
  writer.Field("op", "query");
  if (has_id) {
    writer.Key("id");
    writer.Uint(id);
  }
  writer.Field("scenario", params.scenario);
  writer.Field("metric", params.metric);
  writer.Field("gain", params.gain);
  writer.Field("algorithm", params.algorithm);
  writer.Key("t0");
  writer.Int(params.t0);
  writer.Key("points");
  writer.Int(params.points);
  writer.Key("stride");
  writer.Int(params.stride);
  if (std::isfinite(params.budget)) {
    writer.Field("budget", params.budget);
  }
  writer.Key("max_divisor");
  writer.Int(params.max_divisor);
  writer.Key("kappa");
  writer.Int(params.kappa);
  writer.Key("restarts");
  writer.Int(params.restarts);
  writer.Key("seed");
  writer.Int(params.seed);
  writer.Key("threads");
  writer.Int(params.threads);
  writer.Key("stochastic");
  writer.Bool(params.stochastic);
  writer.Field("stochastic_epsilon", params.stochastic_epsilon);
  if (!params.roster.empty()) {
    writer.Key("roster");
    writer.BeginArray();
    for (const std::string& name : params.roster) {
      writer.String(name);
    }
    writer.EndArray();
  }
  writer.Key("report");
  writer.Bool(params.include_report);
  writer.EndObject();
  return writer.TakeString();
}

std::string SerializeLoadRequest(bool has_id, std::uint64_t id,
                                 const LoadParams& params) {
  obs::JsonWriter writer;
  writer.BeginObject();
  writer.Field("op", "load");
  if (has_id) {
    writer.Key("id");
    writer.Uint(id);
  }
  writer.Field("scenario", params.scenario);
  writer.Field("dir", params.dir);
  writer.EndObject();
  return writer.TakeString();
}

std::string SerializeControlRequest(bool has_id, std::uint64_t id,
                                    RequestOp op) {
  // Work ops carry parameters and belong to SerializeQueryRequest /
  // SerializeLoadRequest; silently emitting some control op here would
  // hand the caller a valid-looking but wrong request line.
  FRESHSEL_CHECK(IsControlOp(op))
      << "SerializeControlRequest needs a control op (ping/list/metrics)";
  obs::JsonWriter writer;
  writer.BeginObject();
  switch (op) {
    case RequestOp::kPing:
      writer.Field("op", "ping");
      break;
    case RequestOp::kListScenarios:
      writer.Field("op", "list");
      break;
    case RequestOp::kMetrics:
    case RequestOp::kLoadScenario:
    case RequestOp::kQuery:
      writer.Field("op", "metrics");
      break;
  }
  if (has_id) {
    writer.Key("id");
    writer.Uint(id);
  }
  writer.EndObject();
  return writer.TakeString();
}

std::string SerializeError(bool has_id, std::uint64_t id,
                           std::string_view code, std::string_view message) {
  obs::JsonWriter writer;
  BeginResponse(&writer, has_id, id, false);
  writer.Key("error");
  writer.BeginObject();
  writer.Field("code", code);
  writer.Field("message", message);
  writer.EndObject();
  writer.EndObject();
  return writer.TakeString();
}

std::string SerializeStatusError(bool has_id, std::uint64_t id,
                                 const Status& status) {
  return SerializeError(has_id, id, StatusCodeWireName(status.code()),
                        status.message());
}

std::string SerializePing(bool has_id, std::uint64_t id,
                          const PingInfo& info) {
  obs::JsonWriter writer;
  BeginResponse(&writer, has_id, id, true);
  writer.Key("result");
  writer.BeginObject();
  writer.Field("state", info.state);
  writer.Field("protocol_version",
               static_cast<std::uint64_t>(kProtocolVersion));
  writer.Field("inflight", info.inflight);
  writer.Field("queued", info.queued);
  writer.Field("scenarios", info.scenarios);
  writer.EndObject();
  writer.EndObject();
  return writer.TakeString();
}

std::string SerializeScenarioList(
    bool has_id, std::uint64_t id,
    const std::vector<ScenarioInfo>& scenarios) {
  obs::JsonWriter writer;
  BeginResponse(&writer, has_id, id, true);
  writer.Key("result");
  writer.BeginObject();
  writer.Key("scenarios");
  writer.BeginArray();
  for (const ScenarioInfo& info : scenarios) {
    WriteScenarioInfo(&writer, info);
  }
  writer.EndArray();
  writer.EndObject();
  writer.EndObject();
  return writer.TakeString();
}

std::string SerializeMetrics(bool has_id, std::uint64_t id,
                             std::string_view openmetrics_text) {
  obs::JsonWriter writer;
  BeginResponse(&writer, has_id, id, true);
  writer.Key("result");
  writer.BeginObject();
  writer.Field("openmetrics", openmetrics_text);
  writer.EndObject();
  writer.EndObject();
  return writer.TakeString();
}

std::string SerializeLoaded(bool has_id, std::uint64_t id,
                            const ScenarioInfo& info) {
  obs::JsonWriter writer;
  BeginResponse(&writer, has_id, id, true);
  writer.Key("result");
  WriteScenarioInfo(&writer, info);
  writer.EndObject();
  return writer.TakeString();
}

std::string SerializeQueryOutcome(bool has_id, std::uint64_t id,
                                  const QueryOutcome& outcome) {
  obs::JsonWriter writer;
  BeginResponse(&writer, has_id, id, true);
  writer.Key("result");
  writer.BeginObject();
  writer.Key("selected");
  writer.BeginArray();
  for (const SelectedSource& source : outcome.selected) {
    writer.BeginObject();
    writer.Field("name", source.name);
    writer.Key("divisor");
    writer.Int(source.divisor);
    writer.Field("cost", source.cost);
    writer.EndObject();
  }
  writer.EndArray();
  writer.Field("profit", outcome.profit);
  writer.Field("cost", outcome.cost);
  writer.Field("coverage", outcome.coverage);
  writer.Field("freshness", outcome.freshness);
  writer.Field("accuracy", outcome.accuracy);
  writer.Field("oracle_calls", outcome.oracle_calls);
  writer.Field("text", outcome.text);
  if (!outcome.report_json.empty()) {
    writer.Key("report");
    writer.RawValue(outcome.report_json);
  }
  writer.EndObject();
  writer.EndObject();
  return writer.TakeString();
}

}  // namespace freshsel::serve
