#ifndef HEMATCH_SERVE_PROTOCOL_H_
#define HEMATCH_SERVE_PROTOCOL_H_

/// \file
/// The `hematch.serve.v1` wire protocol: newline-delimited JSON over a
/// plain TCP stream. One request per line, one response line per
/// request, correlated by a caller-chosen numeric `id`. The codec is
/// shared by the server, the bundled client, and the protocol tests, so
/// "parse what we emit" is enforced in CI.
///
/// Requests (`op` selects the verb):
///
///   {"op":"ping","id":1}
///   {"op":"register_log","id":2,"name":"dept_a","format":"tr",
///    "content":"a b c\na c\n"}
///   {"op":"match","id":3,"log1":"dept_a","log2":"dept_b",
///    "patterns":["SEQ(a,b)"],"tenant":"team-x","deadline_ms":250,
///    "method":"auto"}
///   {"op":"stats","id":4}
///   {"op":"drain","id":5}
///   {"op":"metrics","id":6}
///
/// Any request may carry an opaque `"correlation_id"` string; the
/// server echoes it (plus its own numeric `"request_id"`) in the
/// response, its access log, and the request's sampled trace.
///
/// Responses always carry `schema`, `id`, `op`, and `ok`. Failures put
/// a machine-readable code in `error.code` — overload rejections are
/// explicit (`REJECTED_OVERLOAD` with a `retry_after_ms` hint), never
/// silent drops; see docs/ROBUSTNESS.md.

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "obs/json.h"
#include "obs/telemetry.h"

namespace hematch::serve {

inline constexpr std::string_view kServeSchema = "hematch.serve.v1";

/// The protocol verbs.
enum class RequestOp : std::uint8_t {
  kPing = 0,
  kRegisterLog,
  kMatch,
  kStats,
  kDrain,
  kMetrics,
};

const char* RequestOpToString(RequestOp op);

/// Request-scoped identity, echoed in every response so a client (or an
/// operator grepping the access log) can line responses up with server
/// records. `request_id` is server-assigned and unique per accepted
/// line; `correlation_id` is whatever opaque string the client sent
/// (empty when the client sent none). The same `request_id` tags the
/// request's spans, its access-log entry, and its sampled trace file.
struct RequestContext {
  std::uint64_t request_id = 0;
  std::string correlation_id;
};

/// Machine-readable failure classes. The first two are client errors;
/// the REJECTED_* pair is the server protecting itself (resend later,
/// or elsewhere); INTERNAL means the request died inside the matcher
/// isolation boundary.
enum class ErrorCode : std::uint8_t {
  kBadRequest = 0,
  kNotFound,
  kRejectedOverload,
  kRejectedDraining,
  kInternal,
};

const char* ErrorCodeToString(ErrorCode code);

/// Payload of `op:"register_log"`: the log travels inline in the
/// request (trace-per-line or CSV text), is interned once, and is
/// addressable afterwards by `name` or by content fingerprint.
struct RegisterLogSpec {
  std::string name;
  std::string format = "tr";  ///< "tr" or "csv".
  std::string content;
};

/// Payload of `op:"match"`. `log1`/`log2` name previously registered
/// logs (by registration name or fingerprint hex). Zero deadline means
/// "server default"; the server clamps to its configured maximum.
struct MatchRequestSpec {
  std::string log1;
  std::string log2;
  std::vector<std::string> patterns;  ///< Complex patterns over log1.
  std::string tenant = "default";     ///< Fair-share scheduling key.
  double deadline_ms = 0.0;
  std::uint64_t max_expansions = 0;   ///< 0 = server default.
  /// Per-⊥ penalty; infinity = classic total mappings.
  double partial_penalty = std::numeric_limits<double>::infinity();
  /// "auto" | "exact" | "heuristic" | "parallel". "parallel" runs the
  /// multi-threaded exact matcher (exec/parallel_astar.h) as the
  /// primary ladder rung; load shedding degrades it exactly like
  /// "exact"/"auto".
  std::string method = "auto";
  /// Worker threads for method "parallel" (0 = hardware concurrency).
  int search_threads = 0;
};

/// One parsed request line.
struct ServeRequest {
  RequestOp op = RequestOp::kPing;
  std::uint64_t id = 0;
  std::string correlation_id;    ///< Optional, any op; echoed back.
  RegisterLogSpec register_log;  ///< Valid when op == kRegisterLog.
  MatchRequestSpec match;        ///< Valid when op == kMatch.
};

/// Parses one request line. Unknown ops, missing required fields, and
/// malformed JSON yield ParseError/InvalidArgument — the server turns
/// those into BAD_REQUEST responses rather than dropping the line. The
/// integer fields (`id`, `max_expansions`, `search_threads`) must be
/// written as plain digits and fit their range; `1.5`, `1e3`, `-1` or an
/// overflowing value is InvalidArgument, never a truncating cast.
Result<ServeRequest> ParseRequest(std::string_view line);

/// The `id` of a line that `ParseRequest` rejected, so its BAD_REQUEST
/// answer can still name the request: the line's `id` when the line is
/// a JSON object whose `id` is an exact non-negative integer, else 0.
std::uint64_t RequestIdOf(std::string_view line);

/// --- Request builders (client side; each returns one line, no '\n').
/// `correlation_id` is optional; when non-empty it rides along and the
/// server echoes it in the response and its access log.

std::string BuildPingRequest(std::uint64_t id,
                             std::string_view correlation_id = {});
std::string BuildRegisterLogRequest(std::uint64_t id,
                                    const RegisterLogSpec& spec,
                                    std::string_view correlation_id = {});
std::string BuildMatchRequest(std::uint64_t id, const MatchRequestSpec& spec,
                              std::string_view correlation_id = {});
std::string BuildStatsRequest(std::uint64_t id,
                              std::string_view correlation_id = {});
std::string BuildDrainRequest(std::uint64_t id,
                              std::string_view correlation_id = {});
std::string BuildMetricsRequest(std::uint64_t id,
                                std::string_view correlation_id = {});

/// --- Response builders (server side; each returns one line, no '\n').

/// Everything a completed (possibly degraded) match reports back.
struct MatchReplyData {
  std::string termination;   ///< TerminationReasonToString of the run.
  bool degraded = false;     ///< The fallback ladder ran > 1 stage.
  int shed_level = 0;        ///< 0 = exact ladder, 1 = heuristic, 2 = simple.
  bool swapped = false;      ///< Logs were swapped for |V1| <= |V2|.
  bool context_warm = false; ///< Served from a warm MatchingContext.
  double objective = 0.0;
  double lower_bound = 0.0;
  double upper_bound = 0.0;
  bool bounds_certified = false;
  double elapsed_ms = 0.0;   ///< Matcher wall-clock.
  double queue_ms = 0.0;     ///< Admission-queue wait.
  std::uint64_t mappings_processed = 0;
  /// Event-name pairs in the *request's* orientation (source event of
  /// `log1` first, even when the server swapped internally).
  std::vector<std::pair<std::string, std::string>> mapping;
  std::vector<std::string> unmapped;  ///< Sources mapped to ⊥.
  /// Fallback-ladder trace: method name + termination per stage.
  std::vector<std::pair<std::string, std::string>> stages;
};

/// Every response builder takes the request's `RequestContext`; a
/// non-zero `request_id` and a non-empty `correlation_id` are echoed in
/// the envelope. The default (zero / empty) context emits neither, so
/// existing callers and golden lines are unchanged.

std::string BuildPingResponse(std::uint64_t id,
                              const RequestContext& ctx = {});
std::string BuildRegisterLogResponse(std::uint64_t id, std::string_view name,
                                     std::string_view fingerprint,
                                     std::size_t num_traces,
                                     std::size_t num_events,
                                     const RequestContext& ctx = {});
std::string BuildMatchResponse(std::uint64_t id, const MatchReplyData& data,
                               const RequestContext& ctx = {});
/// Telemetry rides as a heartbeat-style single-line object under
/// `"telemetry"` (histograms reduced to percentiles, so the response
/// stays one line). When `windowed` is non-null its series are folded
/// in with a `_w60` suffix — see TelemetryToHeartbeatLine.
std::string BuildStatsResponse(std::uint64_t id,
                               const obs::TelemetrySnapshot& snapshot,
                               double uptime_ms,
                               const RequestContext& ctx = {},
                               const obs::TelemetrySnapshot* windowed =
                                   nullptr);
std::string BuildDrainResponse(std::uint64_t id, std::size_t in_flight,
                               std::size_t queued,
                               const RequestContext& ctx = {});
/// The Prometheus exposition text travels JSON-escaped under
/// `"exposition"` (it is multi-line; the response line stays one line).
std::string BuildMetricsResponse(std::uint64_t id, std::string_view exposition,
                                 const RequestContext& ctx = {});
std::string BuildErrorResponse(std::uint64_t id, RequestOp op, ErrorCode code,
                               std::string_view message,
                               double retry_after_ms = 0.0,
                               const RequestContext& ctx = {});

/// Client-side view of one response line (`ParseResponse` of whatever
/// builder produced it). Fields beyond the envelope stay in `body` for
/// typed accessors at the call site.
struct ServeResponse {
  std::uint64_t id = 0;
  std::string op;
  std::uint64_t request_id = 0;  ///< Server-assigned; 0 when absent.
  std::string correlation_id;    ///< Echo of the client's, if any.
  bool ok = false;
  std::string error_code;     ///< Empty when ok.
  std::string error_message;  ///< Empty when ok.
  double retry_after_ms = 0.0;
  obs::JsonValue body;        ///< The whole response object.
  std::string raw;            ///< The response line as received.
};

Result<ServeResponse> ParseResponse(std::string_view line);

}  // namespace hematch::serve

#endif  // HEMATCH_SERVE_PROTOCOL_H_
