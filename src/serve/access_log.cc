#include "serve/access_log.h"

#include "obs/json.h"

namespace hematch::serve {

namespace {

using obs::JsonEscape;
using obs::JsonNumber;
using obs::JsonValue;

void AppendString(std::string& out, const char* key, std::string_view value) {
  out += ",\"";
  out += key;
  out += "\":\"";
  out += JsonEscape(value);
  out += '"';
}

void AppendNumber(std::string& out, const char* key, double value) {
  out += ",\"";
  out += key;
  out += "\":";
  out += JsonNumber(value);
}

void AppendUint(std::string& out, const char* key, std::uint64_t value) {
  out += ",\"";
  out += key;
  out += "\":";
  out += std::to_string(value);
}

void AppendBool(std::string& out, const char* key, bool value) {
  out += ",\"";
  out += key;
  out += "\":";
  out += value ? "true" : "false";
}

}  // namespace

std::string FormatAccessLogEntry(const AccessLogEntry& entry) {
  std::string out = "{\"schema\":\"";
  out += kAccessLogSchema;
  out += '"';
  AppendNumber(out, "ts_ms", entry.ts_ms);
  AppendUint(out, "request_id", entry.request_id);
  AppendString(out, "correlation_id", entry.correlation_id);
  AppendString(out, "op", entry.op);
  AppendString(out, "tenant", entry.tenant);
  AppendString(out, "method", entry.method);
  AppendString(out, "admission", entry.admission);
  AppendUint(out, "shed_level", static_cast<std::uint64_t>(
                                    entry.shed_level < 0 ? 0
                                                         : entry.shed_level));
  AppendNumber(out, "queue_ms", entry.queue_ms);
  AppendNumber(out, "run_ms", entry.run_ms);
  AppendNumber(out, "total_ms", entry.total_ms);
  AppendString(out, "termination", entry.termination);
  AppendBool(out, "ok", entry.ok);
  AppendString(out, "error_code", entry.error_code);
  AppendNumber(out, "objective", entry.objective);
  AppendNumber(out, "lower_bound", entry.lower_bound);
  AppendNumber(out, "upper_bound", entry.upper_bound);
  AppendUint(out, "bytes_in", entry.bytes_in);
  AppendUint(out, "bytes_out", entry.bytes_out);
  AppendBool(out, "sampled", entry.sampled);
  AppendString(out, "trace_file", entry.trace_file);
  out += '}';
  return out;
}

Result<AccessLogEntry> ParseAccessLogLine(std::string_view line) {
  HEMATCH_ASSIGN_OR_RETURN(JsonValue doc, obs::ParseJson(line));
  if (doc.kind != JsonValue::Kind::kObject) {
    return Status::ParseError("access-log line is not a JSON object");
  }
  const JsonValue* schema = doc.Find("schema");
  if (schema == nullptr || schema->TextOr("") != kAccessLogSchema) {
    return Status::ParseError(std::string("access-log schema must be ") +
                              std::string(kAccessLogSchema));
  }
  AccessLogEntry entry;
  auto text = [&](const char* key) -> std::string {
    const JsonValue* v = doc.Find(key);
    return v != nullptr ? v->TextOr("") : "";
  };
  auto number = [&](const char* key) -> double {
    const JsonValue* v = doc.Find(key);
    return v != nullptr ? v->NumberOr(0.0) : 0.0;
  };
  auto boolean = [&](const char* key) -> bool {
    const JsonValue* v = doc.Find(key);
    return v != nullptr && v->kind == JsonValue::Kind::kBool && v->boolean;
  };
  // Integer fields are read exactly: absent is 0, anything but plain
  // digits within the field's range is a ParseError.
  auto uint_error = [](const char* key) {
    return Status::ParseError(std::string("access-log field '") + key +
                              "' must be a non-negative integer");
  };
  entry.ts_ms = number("ts_ms");
  if (!obs::ReadUintField(doc, "request_id", &entry.request_id)) {
    return uint_error("request_id");
  }
  entry.correlation_id = text("correlation_id");
  entry.op = text("op");
  entry.tenant = text("tenant");
  entry.method = text("method");
  entry.admission = text("admission");
  if (!obs::ReadUintField(doc, "shed_level", &entry.shed_level)) {
    return uint_error("shed_level");
  }
  entry.queue_ms = number("queue_ms");
  entry.run_ms = number("run_ms");
  entry.total_ms = number("total_ms");
  entry.termination = text("termination");
  entry.ok = boolean("ok");
  entry.error_code = text("error_code");
  entry.objective = number("objective");
  entry.lower_bound = number("lower_bound");
  entry.upper_bound = number("upper_bound");
  if (!obs::ReadUintField(doc, "bytes_in", &entry.bytes_in)) {
    return uint_error("bytes_in");
  }
  if (!obs::ReadUintField(doc, "bytes_out", &entry.bytes_out)) {
    return uint_error("bytes_out");
  }
  entry.sampled = boolean("sampled");
  entry.trace_file = text("trace_file");
  return entry;
}

AccessLog::AccessLog(std::string path, std::int64_t max_bytes)
    : file_(std::move(path), max_bytes) {}

Status AccessLog::Write(const AccessLogEntry& entry) {
  return file_.WriteLine(FormatAccessLogEntry(entry));
}

}  // namespace hematch::serve
