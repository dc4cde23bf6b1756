#include "serve/protocol.h"

#include <cmath>
#include <sstream>

#include "obs/metrics_json.h"

namespace hematch::serve {

namespace {

using obs::JsonEscape;
using obs::JsonNumber;
using obs::JsonValue;

std::string Quoted(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out += '"';
  out += JsonEscape(text);
  out += '"';
  return out;
}

/// Envelope opener shared by every request builder.
void OpenRequest(std::ostringstream& os, std::uint64_t id, std::string_view op,
                 std::string_view correlation_id = {}) {
  os << "{\"schema\":" << Quoted(kServeSchema) << ",\"op\":" << Quoted(op)
     << ",\"id\":" << id;
  if (!correlation_id.empty()) {
    os << ",\"correlation_id\":" << Quoted(correlation_id);
  }
}

/// Envelope opener shared by every response builder.
void OpenResponse(std::ostringstream& os, std::uint64_t id,
                  std::string_view op, bool ok,
                  const RequestContext& ctx = {}) {
  os << "{\"schema\":" << Quoted(kServeSchema) << ",\"id\":" << id
     << ",\"op\":" << Quoted(op) << ",\"ok\":" << (ok ? "true" : "false");
  if (ctx.request_id != 0) {
    os << ",\"request_id\":" << ctx.request_id;
  }
  if (!ctx.correlation_id.empty()) {
    os << ",\"correlation_id\":" << Quoted(ctx.correlation_id);
  }
}

Result<std::string> RequireString(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kString) {
    return Status::InvalidArgument("missing or non-string field '" +
                                   std::string(key) + "'");
  }
  return v->text;
}

}  // namespace

const char* RequestOpToString(RequestOp op) {
  switch (op) {
    case RequestOp::kPing:
      return "ping";
    case RequestOp::kRegisterLog:
      return "register_log";
    case RequestOp::kMatch:
      return "match";
    case RequestOp::kStats:
      return "stats";
    case RequestOp::kDrain:
      return "drain";
    case RequestOp::kMetrics:
      return "metrics";
  }
  return "unknown";
}

const char* ErrorCodeToString(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadRequest:
      return "BAD_REQUEST";
    case ErrorCode::kNotFound:
      return "NOT_FOUND";
    case ErrorCode::kRejectedOverload:
      return "REJECTED_OVERLOAD";
    case ErrorCode::kRejectedDraining:
      return "REJECTED_DRAINING";
    case ErrorCode::kInternal:
      return "INTERNAL";
  }
  return "INTERNAL";
}

Result<ServeRequest> ParseRequest(std::string_view line) {
  HEMATCH_ASSIGN_OR_RETURN(JsonValue doc, obs::ParseJson(line));
  if (doc.kind != JsonValue::Kind::kObject) {
    return Status::ParseError("request is not a JSON object");
  }
  const JsonValue* schema = doc.Find("schema");
  if (schema == nullptr || schema->TextOr("") != kServeSchema) {
    return Status::ParseError(std::string("request schema must be ") +
                              std::string(kServeSchema));
  }

  ServeRequest req;
  if (!obs::ReadUintField(doc, "id", &req.id)) {
    return Status::InvalidArgument("id must be a non-negative integer");
  }
  if (const JsonValue* corr = doc.Find("correlation_id"); corr != nullptr) {
    if (corr->kind != JsonValue::Kind::kString) {
      return Status::InvalidArgument("correlation_id must be a string");
    }
    req.correlation_id = corr->text;
  }

  HEMATCH_ASSIGN_OR_RETURN(std::string op, RequireString(doc, "op"));
  if (op == "ping") {
    req.op = RequestOp::kPing;
    return req;
  }
  if (op == "stats") {
    req.op = RequestOp::kStats;
    return req;
  }
  if (op == "drain") {
    req.op = RequestOp::kDrain;
    return req;
  }
  if (op == "metrics") {
    req.op = RequestOp::kMetrics;
    return req;
  }
  if (op == "register_log") {
    req.op = RequestOp::kRegisterLog;
    HEMATCH_ASSIGN_OR_RETURN(req.register_log.name,
                             RequireString(doc, "name"));
    if (req.register_log.name.empty()) {
      return Status::InvalidArgument("register_log requires a non-empty name");
    }
    HEMATCH_ASSIGN_OR_RETURN(req.register_log.content,
                             RequireString(doc, "content"));
    if (const JsonValue* fmt = doc.Find("format"); fmt != nullptr) {
      if (fmt->kind != JsonValue::Kind::kString ||
          (fmt->text != "tr" && fmt->text != "csv")) {
        return Status::InvalidArgument(
            "register_log format must be \"tr\" or \"csv\"");
      }
      req.register_log.format = fmt->text;
    }
    return req;
  }
  if (op == "match") {
    req.op = RequestOp::kMatch;
    HEMATCH_ASSIGN_OR_RETURN(req.match.log1, RequireString(doc, "log1"));
    HEMATCH_ASSIGN_OR_RETURN(req.match.log2, RequireString(doc, "log2"));
    if (const JsonValue* pats = doc.Find("patterns"); pats != nullptr) {
      if (pats->kind != JsonValue::Kind::kArray) {
        return Status::InvalidArgument("patterns must be an array of strings");
      }
      for (const JsonValue& p : pats->items) {
        if (p.kind != JsonValue::Kind::kString) {
          return Status::InvalidArgument(
              "patterns must be an array of strings");
        }
        req.match.patterns.push_back(p.text);
      }
    }
    if (const JsonValue* tenant = doc.Find("tenant");
        tenant != nullptr && tenant->kind == JsonValue::Kind::kString &&
        !tenant->text.empty()) {
      req.match.tenant = tenant->text;
    }
    if (const JsonValue* dl = doc.Find("deadline_ms"); dl != nullptr) {
      if (dl->kind != JsonValue::Kind::kNumber || dl->number < 0 ||
          !std::isfinite(dl->number)) {
        return Status::InvalidArgument(
            "deadline_ms must be a non-negative number");
      }
      req.match.deadline_ms = dl->number;
    }
    if (!obs::ReadUintField(doc, "max_expansions",
                            &req.match.max_expansions)) {
      return Status::InvalidArgument(
          "max_expansions must be a non-negative integer");
    }
    if (const JsonValue* pen = doc.Find("partial_penalty"); pen != nullptr) {
      if (pen->kind != JsonValue::Kind::kNumber || pen->number < 0) {
        return Status::InvalidArgument(
            "partial_penalty must be a non-negative number");
      }
      req.match.partial_penalty = pen->number;
    }
    if (const JsonValue* method = doc.Find("method"); method != nullptr) {
      if (method->kind != JsonValue::Kind::kString ||
          (method->text != "auto" && method->text != "exact" &&
           method->text != "heuristic" && method->text != "parallel")) {
        return Status::InvalidArgument(
            "method must be \"auto\", \"exact\", \"heuristic\", or "
            "\"parallel\"");
      }
      req.match.method = method->text;
    }
    if (!obs::ReadUintField(doc, "search_threads", &req.match.search_threads,
                            1024)) {
      return Status::InvalidArgument(
          "search_threads must be an integer in [0, 1024]");
    }
    return req;
  }
  return Status::InvalidArgument("unknown op '" + op + "'");
}

std::uint64_t RequestIdOf(std::string_view line) {
  const Result<JsonValue> doc = obs::ParseJson(line);
  std::uint64_t id = 0;
  if (!doc.ok() || doc->kind != JsonValue::Kind::kObject ||
      !obs::ReadUintField(*doc, "id", &id)) {
    return 0;
  }
  return id;
}

std::string BuildPingRequest(std::uint64_t id,
                             std::string_view correlation_id) {
  std::ostringstream os;
  OpenRequest(os, id, "ping", correlation_id);
  os << "}";
  return os.str();
}

std::string BuildRegisterLogRequest(std::uint64_t id,
                                    const RegisterLogSpec& spec,
                                    std::string_view correlation_id) {
  std::ostringstream os;
  OpenRequest(os, id, "register_log", correlation_id);
  os << ",\"name\":" << Quoted(spec.name)
     << ",\"format\":" << Quoted(spec.format)
     << ",\"content\":" << Quoted(spec.content) << "}";
  return os.str();
}

std::string BuildMatchRequest(std::uint64_t id, const MatchRequestSpec& spec,
                              std::string_view correlation_id) {
  std::ostringstream os;
  OpenRequest(os, id, "match", correlation_id);
  os << ",\"log1\":" << Quoted(spec.log1)
     << ",\"log2\":" << Quoted(spec.log2) << ",\"patterns\":[";
  for (std::size_t i = 0; i < spec.patterns.size(); ++i) {
    if (i > 0) {
      os << ",";
    }
    os << Quoted(spec.patterns[i]);
  }
  os << "],\"tenant\":" << Quoted(spec.tenant);
  if (spec.deadline_ms > 0.0) {
    os << ",\"deadline_ms\":" << JsonNumber(spec.deadline_ms);
  }
  if (spec.max_expansions > 0) {
    os << ",\"max_expansions\":" << spec.max_expansions;
  }
  if (std::isfinite(spec.partial_penalty)) {
    os << ",\"partial_penalty\":" << JsonNumber(spec.partial_penalty);
  }
  if (spec.search_threads > 0) {
    os << ",\"search_threads\":" << spec.search_threads;
  }
  os << ",\"method\":" << Quoted(spec.method) << "}";
  return os.str();
}

std::string BuildStatsRequest(std::uint64_t id,
                              std::string_view correlation_id) {
  std::ostringstream os;
  OpenRequest(os, id, "stats", correlation_id);
  os << "}";
  return os.str();
}

std::string BuildDrainRequest(std::uint64_t id,
                              std::string_view correlation_id) {
  std::ostringstream os;
  OpenRequest(os, id, "drain", correlation_id);
  os << "}";
  return os.str();
}

std::string BuildMetricsRequest(std::uint64_t id,
                                std::string_view correlation_id) {
  std::ostringstream os;
  OpenRequest(os, id, "metrics", correlation_id);
  os << "}";
  return os.str();
}

std::string BuildPingResponse(std::uint64_t id, const RequestContext& ctx) {
  std::ostringstream os;
  OpenResponse(os, id, "ping", /*ok=*/true, ctx);
  os << "}";
  return os.str();
}

std::string BuildRegisterLogResponse(std::uint64_t id, std::string_view name,
                                     std::string_view fingerprint,
                                     std::size_t num_traces,
                                     std::size_t num_events,
                                     const RequestContext& ctx) {
  std::ostringstream os;
  OpenResponse(os, id, "register_log", /*ok=*/true, ctx);
  os << ",\"name\":" << Quoted(name)
     << ",\"fingerprint\":" << Quoted(fingerprint)
     << ",\"num_traces\":" << num_traces << ",\"num_events\":" << num_events
     << "}";
  return os.str();
}

std::string BuildMatchResponse(std::uint64_t id, const MatchReplyData& data,
                               const RequestContext& ctx) {
  std::ostringstream os;
  OpenResponse(os, id, "match", /*ok=*/true, ctx);
  os << ",\"termination\":" << Quoted(data.termination)
     << ",\"degraded\":" << (data.degraded ? "true" : "false")
     << ",\"shed_level\":" << data.shed_level
     << ",\"swapped\":" << (data.swapped ? "true" : "false")
     << ",\"context_warm\":" << (data.context_warm ? "true" : "false")
     << ",\"objective\":" << JsonNumber(data.objective)
     << ",\"lower_bound\":" << JsonNumber(data.lower_bound)
     << ",\"upper_bound\":" << JsonNumber(data.upper_bound)
     << ",\"bounds_certified\":" << (data.bounds_certified ? "true" : "false")
     << ",\"elapsed_ms\":" << JsonNumber(data.elapsed_ms)
     << ",\"queue_ms\":" << JsonNumber(data.queue_ms)
     << ",\"mappings_processed\":" << data.mappings_processed;
  os << ",\"mapping\":[";
  for (std::size_t i = 0; i < data.mapping.size(); ++i) {
    if (i > 0) {
      os << ",";
    }
    os << "[" << Quoted(data.mapping[i].first) << ","
       << Quoted(data.mapping[i].second) << "]";
  }
  os << "],\"unmapped\":[";
  for (std::size_t i = 0; i < data.unmapped.size(); ++i) {
    if (i > 0) {
      os << ",";
    }
    os << Quoted(data.unmapped[i]);
  }
  os << "],\"stages\":[";
  for (std::size_t i = 0; i < data.stages.size(); ++i) {
    if (i > 0) {
      os << ",";
    }
    os << "{\"method\":" << Quoted(data.stages[i].first)
       << ",\"termination\":" << Quoted(data.stages[i].second) << "}";
  }
  os << "]}";
  return os.str();
}

std::string BuildStatsResponse(std::uint64_t id,
                               const obs::TelemetrySnapshot& snapshot,
                               double uptime_ms, const RequestContext& ctx,
                               const obs::TelemetrySnapshot* windowed) {
  std::ostringstream os;
  OpenResponse(os, id, "stats", /*ok=*/true, ctx);
  // TelemetryToHeartbeatLine is the single-line reduction of a snapshot
  // (histograms become percentiles), which is exactly what a line
  // protocol needs — the final full snapshot still goes to disk.
  os << ",\"telemetry\":"
     << obs::TelemetryToHeartbeatLine(snapshot, /*seq=*/0, uptime_ms, windowed)
     << "}";
  return os.str();
}

std::string BuildDrainResponse(std::uint64_t id, std::size_t in_flight,
                               std::size_t queued, const RequestContext& ctx) {
  std::ostringstream os;
  OpenResponse(os, id, "drain", /*ok=*/true, ctx);
  os << ",\"in_flight\":" << in_flight << ",\"queued\":" << queued << "}";
  return os.str();
}

std::string BuildMetricsResponse(std::uint64_t id, std::string_view exposition,
                                 const RequestContext& ctx) {
  std::ostringstream os;
  OpenResponse(os, id, "metrics", /*ok=*/true, ctx);
  os << ",\"content_type\":" << Quoted("text/plain; version=0.0.4")
     << ",\"exposition\":" << Quoted(exposition) << "}";
  return os.str();
}

std::string BuildErrorResponse(std::uint64_t id, RequestOp op, ErrorCode code,
                               std::string_view message, double retry_after_ms,
                               const RequestContext& ctx) {
  std::ostringstream os;
  OpenResponse(os, id, RequestOpToString(op), /*ok=*/false, ctx);
  os << ",\"error\":{\"code\":" << Quoted(ErrorCodeToString(code))
     << ",\"message\":" << Quoted(message);
  if (retry_after_ms > 0.0) {
    os << ",\"retry_after_ms\":" << JsonNumber(retry_after_ms);
  }
  os << "}}";
  return os.str();
}

Result<ServeResponse> ParseResponse(std::string_view line) {
  HEMATCH_ASSIGN_OR_RETURN(JsonValue doc, obs::ParseJson(line));
  if (doc.kind != JsonValue::Kind::kObject) {
    return Status::ParseError("response is not a JSON object");
  }
  const JsonValue* schema = doc.Find("schema");
  if (schema == nullptr || schema->TextOr("") != kServeSchema) {
    return Status::ParseError("response missing schema " +
                              std::string(kServeSchema));
  }
  ServeResponse resp;
  resp.raw = std::string(line);
  if (const JsonValue* id = doc.Find("id"); id != nullptr) {
    resp.id = id->AsUint64().value_or(0);
  }
  if (const JsonValue* op = doc.Find("op"); op != nullptr) {
    resp.op = op->TextOr("");
  }
  if (const JsonValue* ok = doc.Find("ok");
      ok != nullptr && ok->kind == JsonValue::Kind::kBool) {
    resp.ok = ok->boolean;
  }
  if (const JsonValue* rid = doc.Find("request_id"); rid != nullptr) {
    resp.request_id = rid->AsUint64().value_or(0);
  }
  if (const JsonValue* corr = doc.Find("correlation_id"); corr != nullptr) {
    resp.correlation_id = corr->TextOr("");
  }
  if (const JsonValue* err = doc.Find("error");
      err != nullptr && err->kind == JsonValue::Kind::kObject) {
    if (const JsonValue* code = err->Find("code"); code != nullptr) {
      resp.error_code = code->TextOr("");
    }
    if (const JsonValue* msg = err->Find("message"); msg != nullptr) {
      resp.error_message = msg->TextOr("");
    }
    if (const JsonValue* retry = err->Find("retry_after_ms");
        retry != nullptr) {
      resp.retry_after_ms = retry->NumberOr(0.0);
    }
  }
  resp.body = std::move(doc);
  return resp;
}

}  // namespace hematch::serve
