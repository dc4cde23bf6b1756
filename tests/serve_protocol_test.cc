// Round-trips and strict validation of the hematch.serve.v1 wire
// protocol: every builder's output must parse back, and malformed
// requests must be rejected with a reason, never half-parsed.

#include "serve/protocol.h"

#include <limits>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/telemetry.h"

namespace hematch::serve {
namespace {

TEST(ServeProtocolTest, PingRoundTrip) {
  const Result<ServeRequest> req = ParseRequest(BuildPingRequest(7));
  ASSERT_TRUE(req.ok()) << req.status();
  EXPECT_EQ(req->op, RequestOp::kPing);
  EXPECT_EQ(req->id, 7u);
}

TEST(ServeProtocolTest, RegisterLogRoundTrip) {
  RegisterLogSpec spec;
  spec.name = "ward \"A\"";  // Quotes must survive escaping.
  spec.format = "csv";
  spec.content = "case,event\n1,admit\n1,treat\n";
  const Result<ServeRequest> req =
      ParseRequest(BuildRegisterLogRequest(3, spec));
  ASSERT_TRUE(req.ok()) << req.status();
  EXPECT_EQ(req->op, RequestOp::kRegisterLog);
  EXPECT_EQ(req->register_log.name, spec.name);
  EXPECT_EQ(req->register_log.format, "csv");
  EXPECT_EQ(req->register_log.content, spec.content);
}

TEST(ServeProtocolTest, MatchRoundTrip) {
  MatchRequestSpec spec;
  spec.log1 = "a";
  spec.log2 = "b";
  spec.patterns = {"SEQ(x,y)", "AND(p,q)"};
  spec.tenant = "team-1";
  spec.deadline_ms = 250.0;
  spec.max_expansions = 1000;
  spec.partial_penalty = 2.5;
  spec.method = "heuristic";
  const Result<ServeRequest> req = ParseRequest(BuildMatchRequest(9, spec));
  ASSERT_TRUE(req.ok()) << req.status();
  EXPECT_EQ(req->op, RequestOp::kMatch);
  EXPECT_EQ(req->match.log1, "a");
  EXPECT_EQ(req->match.log2, "b");
  EXPECT_EQ(req->match.patterns, spec.patterns);
  EXPECT_EQ(req->match.tenant, "team-1");
  EXPECT_DOUBLE_EQ(req->match.deadline_ms, 250.0);
  EXPECT_EQ(req->match.max_expansions, 1000u);
  EXPECT_DOUBLE_EQ(req->match.partial_penalty, 2.5);
  EXPECT_EQ(req->match.method, "heuristic");
}

TEST(ServeProtocolTest, MatchDefaultsOmitted) {
  MatchRequestSpec spec;
  spec.log1 = "a";
  spec.log2 = "b";
  const Result<ServeRequest> req = ParseRequest(BuildMatchRequest(1, spec));
  ASSERT_TRUE(req.ok()) << req.status();
  EXPECT_EQ(req->match.tenant, "default");
  EXPECT_DOUBLE_EQ(req->match.deadline_ms, 0.0);
  EXPECT_FALSE(req->match.partial_penalty <
               std::numeric_limits<double>::infinity());
  EXPECT_EQ(req->match.method, "auto");
}

TEST(ServeProtocolTest, RejectsGarbage) {
  EXPECT_FALSE(ParseRequest("not json").ok());
  EXPECT_FALSE(ParseRequest("42").ok());
  EXPECT_FALSE(ParseRequest("{}").ok());
  EXPECT_FALSE(ParseRequest(R"({"op":"match"})").ok());  // No schema.
  EXPECT_FALSE(
      ParseRequest(R"({"schema":"hematch.serve.v0","op":"ping","id":1})")
          .ok());
}

TEST(ServeProtocolTest, RejectsBadFields) {
  // Unknown op.
  EXPECT_FALSE(
      ParseRequest(R"({"schema":"hematch.serve.v1","op":"evict","id":1})")
          .ok());
  // Negative deadline.
  EXPECT_FALSE(ParseRequest(
                   R"({"schema":"hematch.serve.v1","op":"match","id":1,)"
                   R"("log1":"a","log2":"b","deadline_ms":-5})")
                   .ok());
  // Bad method.
  EXPECT_FALSE(ParseRequest(
                   R"({"schema":"hematch.serve.v1","op":"match","id":1,)"
                   R"("log1":"a","log2":"b","method":"psychic"})")
                   .ok());
  // Patterns must be an array of strings.
  EXPECT_FALSE(ParseRequest(
                   R"js({"schema":"hematch.serve.v1","op":"match","id":1,)js"
                   R"js("log1":"a","log2":"b","patterns":"SEQ(x,y)"})js")
                   .ok());
  // Missing log names.
  EXPECT_FALSE(ParseRequest(
                   R"({"schema":"hematch.serve.v1","op":"match","id":1})")
                   .ok());
  // register_log needs a known format.
  EXPECT_FALSE(ParseRequest(
                   R"({"schema":"hematch.serve.v1","op":"register_log",)"
                   R"("id":1,"name":"a","format":"xml","content":"x"})")
                   .ok());
}

TEST(ServeProtocolTest, RejectsIntegerFieldsThatAreNotExactIntegers) {
  // Integer fields take plain digits in range only; anything else is a
  // client error, so no wire value reaches a float-to-int cast.
  const char* const kBadLines[] = {
      R"({"schema":"hematch.serve.v1","op":"ping","id":1e300})",
      R"({"schema":"hematch.serve.v1","op":"ping","id":-1})",
      R"({"schema":"hematch.serve.v1","op":"ping","id":2.5})",
      R"({"schema":"hematch.serve.v1","op":"ping","id":"7"})",
      R"({"schema":"hematch.serve.v1","op":"ping","id":18446744073709551616})",
      R"({"schema":"hematch.serve.v1","op":"match","id":1,)"
      R"("log1":"a","log2":"b","max_expansions":inf})",
      R"({"schema":"hematch.serve.v1","op":"match","id":1,)"
      R"("log1":"a","log2":"b","max_expansions":1e3})",
      R"({"schema":"hematch.serve.v1","op":"match","id":1,)"
      R"("log1":"a","log2":"b","search_threads":nan})",
      R"({"schema":"hematch.serve.v1","op":"match","id":1,)"
      R"("log1":"a","log2":"b","search_threads":1e10})",
      R"({"schema":"hematch.serve.v1","op":"match","id":1,)"
      R"("log1":"a","log2":"b","search_threads":1025})",
      R"({"schema":"hematch.serve.v1","op":"match","id":1,)"
      R"("log1":"a","log2":"b","deadline_ms":-inf})",
  };
  for (const char* line : kBadLines) {
    const Result<ServeRequest> req = ParseRequest(line);
    EXPECT_FALSE(req.ok()) << line;
  }
  // The server answers every rejected line BAD_REQUEST; these are the
  // field-level failures among them.
  EXPECT_EQ(ParseRequest(kBadLines[0]).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequest(kBadLines[8]).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ServeProtocolTest, RequestIdOfReadsOnlyExactIds) {
  EXPECT_EQ(RequestIdOf(R"({"op":"match","id":7,"search_threads":2000})"),
            7u);
  EXPECT_EQ(RequestIdOf(R"({"id":18446744073709551615})"),
            18446744073709551615u);
  EXPECT_EQ(RequestIdOf(R"({"id":7.5})"), 0u);
  EXPECT_EQ(RequestIdOf(R"({"id":-7})"), 0u);
  EXPECT_EQ(RequestIdOf(R"({"id":"7"})"), 0u);
  EXPECT_EQ(RequestIdOf(R"([7])"), 0u);
  EXPECT_EQ(RequestIdOf("not json"), 0u);
}

TEST(ServeProtocolTest, EscapedUnicodeNamesRoundTrip) {
  // Python's json.dumps escapes non-ASCII by default.
  const Result<ServeRequest> req = ParseRequest(
      R"({"schema":"hematch.serve.v1","op":"register_log","id":4,)"
      R"("name":"caf\u00e9 \ud83d\ude00","content":"case,event\n1,a\n"})");
  ASSERT_TRUE(req.ok()) << req.status();
  EXPECT_EQ(req->register_log.name, "caf\xc3\xa9 \xf0\x9f\x98\x80");
  const Result<ServeRequest> again =
      ParseRequest(BuildRegisterLogRequest(req->id, req->register_log));
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->register_log.name, req->register_log.name);
}

TEST(ServeProtocolTest, IntegerFieldsRoundTripExactly) {
  // 2^53 + 1: the first integer a double cannot hold.
  const Result<ServeRequest> big = ParseRequest(
      R"({"schema":"hematch.serve.v1","op":"ping","id":9007199254740993})");
  ASSERT_TRUE(big.ok()) << big.status();
  EXPECT_EQ(big->id, 9007199254740993u);

  MatchRequestSpec spec;
  spec.log1 = "a";
  spec.log2 = "b";
  spec.max_expansions = std::numeric_limits<std::uint64_t>::max();
  spec.search_threads = 1024;
  const std::uint64_t id = std::numeric_limits<std::uint64_t>::max() - 1;
  const Result<ServeRequest> req = ParseRequest(BuildMatchRequest(id, spec));
  ASSERT_TRUE(req.ok()) << req.status();
  EXPECT_EQ(req->id, id);
  EXPECT_EQ(req->match.max_expansions, spec.max_expansions);
  EXPECT_EQ(req->match.search_threads, 1024);

  RequestContext ctx;
  ctx.request_id = 9007199254740993u;
  const Result<ServeResponse> resp = ParseResponse(BuildPingResponse(id, ctx));
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->id, id);
  EXPECT_EQ(resp->request_id, ctx.request_id);
}

TEST(ServeProtocolTest, MatchResponseRoundTrip) {
  MatchReplyData reply;
  reply.termination = "deadline";
  reply.degraded = true;
  reply.shed_level = 1;
  reply.swapped = true;
  reply.context_warm = true;
  reply.objective = 12.5;
  reply.lower_bound = 12.5;
  reply.upper_bound = 14.0;
  reply.bounds_certified = true;
  reply.elapsed_ms = 99.0;
  reply.queue_ms = 3.0;
  reply.mappings_processed = 777;
  reply.mapping = {{"a", "x"}, {"b", "y"}};
  reply.unmapped = {"c"};
  reply.stages = {{"Pattern-Tight", "deadline"},
                  {"Heuristic-Advanced", "completed"}};
  const std::string line = BuildMatchResponse(4, reply);
  EXPECT_EQ(line.find('\n'), std::string::npos) << "response must be 1 line";

  const Result<ServeResponse> resp = ParseResponse(line);
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_TRUE(resp->ok);
  EXPECT_EQ(resp->id, 4u);
  EXPECT_EQ(resp->op, "match");
  EXPECT_EQ(resp->body.Find("termination")->TextOr(""), "deadline");
  EXPECT_EQ(resp->body.Find("mapping")->items.size(), 2u);
  EXPECT_EQ(resp->body.Find("stages")->items.size(), 2u);
  EXPECT_DOUBLE_EQ(resp->body.Find("objective")->NumberOr(0.0), 12.5);
}

TEST(ServeProtocolTest, ErrorResponseRoundTrip) {
  const std::string line =
      BuildErrorResponse(11, RequestOp::kMatch, ErrorCode::kRejectedOverload,
                         "queue full (depth 64)", 250.0);
  const Result<ServeResponse> resp = ParseResponse(line);
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_FALSE(resp->ok);
  EXPECT_EQ(resp->error_code, "REJECTED_OVERLOAD");
  EXPECT_EQ(resp->error_message, "queue full (depth 64)");
  EXPECT_DOUBLE_EQ(resp->retry_after_ms, 250.0);
}

TEST(ServeProtocolTest, StatsResponseIsSingleLineWithTelemetry) {
  obs::MetricsRegistry metrics(true);
  metrics.GetCounter("serve.accepted")->Increment(3);
  const std::string line =
      BuildStatsResponse(2, obs::CaptureSnapshot(metrics), 1234.0);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const Result<ServeResponse> resp = ParseResponse(line);
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_TRUE(resp->ok);
  const obs::JsonValue* telemetry = resp->body.Find("telemetry");
  ASSERT_NE(telemetry, nullptr);
  const obs::JsonValue* counters = telemetry->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->Find("serve.accepted")->NumberOr(0.0), 3.0);
}

TEST(ServeProtocolTest, CorrelationIdRidesRequestsAndEchoesInResponses) {
  const std::string line = BuildPingRequest(7, "run-42/a");
  const Result<ServeRequest> req = ParseRequest(line);
  ASSERT_TRUE(req.ok()) << req.status();
  EXPECT_EQ(req->correlation_id, "run-42/a");

  // Requests without one parse to an empty id, and the field must be a
  // string when present.
  EXPECT_EQ(ParseRequest(BuildPingRequest(7))->correlation_id, "");
  EXPECT_FALSE(ParseRequest("{\"schema\":\"hematch.serve.v1\",\"id\":1,"
                            "\"op\":\"ping\",\"correlation_id\":5}")
                   .ok());

  RequestContext ctx;
  ctx.request_id = 31;
  ctx.correlation_id = "run-42/a";
  const Result<ServeResponse> resp = ParseResponse(BuildPingResponse(7, ctx));
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->request_id, 31u);
  EXPECT_EQ(resp->correlation_id, "run-42/a");

  // A default context emits neither field — pre-observability golden
  // lines stay byte-stable.
  const std::string bare = BuildPingResponse(7);
  EXPECT_EQ(bare.find("request_id"), std::string::npos);
  EXPECT_EQ(bare.find("correlation_id"), std::string::npos);
  EXPECT_EQ(ParseResponse(bare)->request_id, 0u);
}

TEST(ServeProtocolTest, ErrorResponsesCarryTheRequestContextToo) {
  RequestContext ctx;
  ctx.request_id = 9;
  ctx.correlation_id = "cid";
  const Result<ServeResponse> resp = ParseResponse(
      BuildErrorResponse(11, RequestOp::kMatch, ErrorCode::kRejectedOverload,
                         "queue full", 250.0, ctx));
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_FALSE(resp->ok);
  EXPECT_EQ(resp->request_id, 9u);
  EXPECT_EQ(resp->correlation_id, "cid");
}

TEST(ServeProtocolTest, MetricsRoundTrip) {
  const Result<ServeRequest> req = ParseRequest(BuildMetricsRequest(3));
  ASSERT_TRUE(req.ok()) << req.status();
  EXPECT_EQ(req->op, RequestOp::kMetrics);

  RequestContext ctx;
  ctx.request_id = 12;
  const std::string exposition =
      "# TYPE hematch_serve_completed_total counter\n"
      "hematch_serve_completed_total 42\n";
  const std::string line = BuildMetricsResponse(3, exposition, ctx);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const Result<ServeResponse> resp = ParseResponse(line);
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_TRUE(resp->ok);
  EXPECT_EQ(resp->request_id, 12u);
  const obs::JsonValue* body = resp->body.Find("exposition");
  ASSERT_NE(body, nullptr);
  EXPECT_EQ(body->TextOr(""), exposition);
  EXPECT_EQ(resp->body.Find("content_type")->TextOr(""),
            "text/plain; version=0.0.4");
}

TEST(ServeProtocolTest, StatsResponseFoldsInWindowedTelemetry) {
  obs::MetricsRegistry metrics(true);
  metrics.GetCounter("serve.accepted")->Increment(3);
  obs::TelemetrySnapshot windowed;
  windowed.counters["serve.completed"] = 2;
  const std::string line =
      BuildStatsResponse(2, obs::CaptureSnapshot(metrics), 1234.0,
                         RequestContext{}, &windowed);
  const Result<ServeResponse> resp = ParseResponse(line);
  ASSERT_TRUE(resp.ok()) << resp.status();
  const obs::JsonValue* telemetry = resp->body.Find("telemetry");
  ASSERT_NE(telemetry, nullptr);
  const obs::JsonValue* counters = telemetry->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->Find("serve.completed_w60")->NumberOr(0.0), 2.0);
}

}  // namespace
}  // namespace hematch::serve
