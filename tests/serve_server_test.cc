// End-to-end tests of the match server over real loopback sockets:
// register/match round trips, concurrent clients, explicit overload
// rejection, graceful drain with in-flight work, and fault-injected
// worker crashes that must not take down the process or its peers.

#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "log/log_io.h"
#include "obs/trace_analysis.h"
#include "serve/access_log.h"
#include "serve/client.h"

namespace hematch::serve {
namespace {

EventLog MakeLog(const std::vector<std::vector<std::string>>& traces) {
  EventLog log;
  for (const auto& t : traces) {
    log.AddTraceByNames(t);
  }
  return log;
}

EventLog SourceLog() {
  return MakeLog({{"a", "b", "c", "d"},
                  {"a", "c", "b", "d"},
                  {"b", "a", "d", "c"},
                  {"a", "b", "d", "c"}});
}

EventLog TargetLog() {
  return MakeLog({{"w", "x", "y", "z"},
                  {"w", "y", "x", "z"},
                  {"x", "w", "z", "y"},
                  {"w", "x", "z", "y"}});
}

class ServerFixture {
 public:
  explicit ServerFixture(ServerOptions options) : server_(options) {
    const Status started = server_.Start();
    EXPECT_TRUE(started.ok()) << started;
  }

  ~ServerFixture() {
    server_.RequestDrain();
    server_.Wait();
  }

  MatchServer& server() { return server_; }

  ServeClient NewClient() {
    ClientOptions copts;
    copts.port = server_.port();
    return ServeClient(std::move(copts));
  }

  void RegisterDefaultLogs() {
    ServeClient client = NewClient();
    Result<ServeResponse> a = client.RegisterLog("src", SourceLog());
    ASSERT_TRUE(a.ok() && a->ok) << a.status();
    Result<ServeResponse> b = client.RegisterLog("dst", TargetLog());
    ASSERT_TRUE(b.ok() && b->ok) << b.status();
  }

 private:
  MatchServer server_;
};

MatchRequestSpec DefaultSpec() {
  MatchRequestSpec spec;
  spec.log1 = "src";
  spec.log2 = "dst";
  spec.deadline_ms = 2000.0;
  return spec;
}

TEST(ServeServerTest, PingRegisterMatchRoundTrip) {
  ServerFixture fixture(ServerOptions{});
  ServeClient client = fixture.NewClient();

  Result<ServeResponse> pong = client.Ping();
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_TRUE(pong->ok);

  fixture.RegisterDefaultLogs();

  Result<ServeResponse> match = client.Match(DefaultSpec());
  ASSERT_TRUE(match.ok()) << match.status();
  ASSERT_TRUE(match->ok) << match->error_message;
  EXPECT_EQ(match->body.Find("termination")->TextOr(""), "completed");
  EXPECT_EQ(match->body.Find("mapping")->items.size(), 4u);
  EXPECT_DOUBLE_EQ(match->body.Find("shed_level")->NumberOr(-1.0), 0.0);

  // Second identical match hits the warm context.
  Result<ServeResponse> again = client.Match(DefaultSpec());
  ASSERT_TRUE(again.ok() && again->ok);
  EXPECT_TRUE(again->body.Find("context_warm")->boolean);
}

TEST(ServeServerTest, MatchUnknownLogIsNotFound) {
  ServerFixture fixture(ServerOptions{});
  ServeClient client = fixture.NewClient();
  MatchRequestSpec spec = DefaultSpec();
  spec.log1 = "missing";
  Result<ServeResponse> resp = client.Match(spec);
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_FALSE(resp->ok);
  EXPECT_EQ(resp->error_code, "NOT_FOUND");
}

TEST(ServeServerTest, MalformedLineIsBadRequestNotDisconnect) {
  ServerFixture fixture(ServerOptions{});
  ServeClient client = fixture.NewClient();
  Result<ServeResponse> resp = client.Call("this is not json");
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_FALSE(resp->ok);
  EXPECT_EQ(resp->error_code, "BAD_REQUEST");
  // The connection survives a bad line.
  Result<ServeResponse> pong = client.Ping();
  ASSERT_TRUE(pong.ok() && pong->ok);
}

TEST(ServeServerTest, BadRequestEchoesTheRequestId) {
  ServerFixture fixture(ServerOptions{});
  ServeClient client = fixture.NewClient();
  // The id parsed; only search_threads is out of range. A client that
  // pipelines requests must learn which one was rejected.
  Result<ServeResponse> resp = client.Call(
      R"({"schema":"hematch.serve.v1","op":"match","id":7,)"
      R"("log1":"src","log2":"dst","search_threads":2000})");
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_FALSE(resp->ok);
  EXPECT_EQ(resp->error_code, "BAD_REQUEST");
  EXPECT_EQ(resp->id, 7u);
  // An id that is not an exact integer cannot be echoed.
  Result<ServeResponse> inexact = client.Call(
      R"({"schema":"hematch.serve.v1","op":"ping","id":7.5})");
  ASSERT_TRUE(inexact.ok()) << inexact.status();
  EXPECT_EQ(inexact->error_code, "BAD_REQUEST");
  EXPECT_EQ(inexact->id, 0u);
}

TEST(ServeServerTest, OversizedLineIsRejectedAndBounded) {
  // A client streaming bytes without a newline must not grow the
  // session buffer without bound: past max_request_bytes the server
  // answers BAD_REQUEST and hangs up (framing is unrecoverable).
  ServerOptions options;
  options.max_request_bytes = 1024;
  ServerFixture fixture(options);
  ServeClient client = fixture.NewClient();
  // 8 KiB with no interior newline: exceeds the cap mid-line.
  Result<ServeResponse> resp = client.Call(std::string(8192, 'x'));
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_FALSE(resp->ok);
  EXPECT_EQ(resp->error_code, "BAD_REQUEST");
  // The server is still healthy for well-behaved clients.
  ServeClient fresh = fixture.NewClient();
  Result<ServeResponse> pong = fresh.Ping();
  ASSERT_TRUE(pong.ok() && pong->ok) << pong.status();
}

TEST(ServeServerTest, ConcurrentClientsAllComplete) {
  ServerOptions options;
  options.workers = 4;
  ServerFixture fixture(options);
  fixture.RegisterDefaultLogs();

  constexpr int kClients = 8;
  constexpr int kPerClient = 4;
  std::vector<int> completed(kClients, 0);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&fixture, &completed, c] {
      ServeClient client = fixture.NewClient();
      MatchRequestSpec spec = DefaultSpec();
      spec.tenant = "tenant-" + std::to_string(c % 3);
      for (int r = 0; r < kPerClient; ++r) {
        Result<ServeResponse> resp = client.Match(spec);
        if (resp.ok() && resp->ok) {
          ++completed[static_cast<std::size_t>(c)];
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  int total = 0;
  for (int c : completed) {
    total += c;
  }
  EXPECT_EQ(total, kClients * kPerClient);

  const obs::TelemetrySnapshot snap = fixture.server().SnapshotTelemetry();
  EXPECT_EQ(snap.counter("serve.completed"),
            static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(snap.counter("serve.failed"), 0u);
}

TEST(ServeServerTest, TinyQueueRejectsWithExplicitOverload) {
  ServerOptions options;
  options.workers = 1;
  options.max_queue_depth = 1;
  ServerFixture fixture(options);
  fixture.RegisterDefaultLogs();

  // Flood from many threads; with 1 worker and queue depth 1, most must
  // be rejected — explicitly, never by hanging or dropping.
  constexpr int kClients = 6;
  constexpr int kPerClient = 5;
  std::atomic<int> ok{0};
  std::atomic<int> overload{0};
  std::atomic<int> other{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      ServeClient client = fixture.NewClient();
      for (int r = 0; r < kPerClient; ++r) {
        Result<ServeResponse> resp = client.Match(DefaultSpec());
        if (!resp.ok()) {
          ++other;
        } else if (resp->ok) {
          ++ok;
        } else if (resp->error_code == "REJECTED_OVERLOAD") {
          EXPECT_GT(resp->retry_after_ms, 0.0);
          ++overload;
        } else {
          ++other;
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(ok.load() + overload.load(), kClients * kPerClient)
      << "every request must get a definite answer (" << other.load()
      << " got neither success nor overload)";
  EXPECT_GT(ok.load(), 0);
  const obs::TelemetrySnapshot snap = fixture.server().SnapshotTelemetry();
  EXPECT_EQ(snap.counter("serve.rejected_overload"),
            static_cast<std::uint64_t>(overload.load()));
}

TEST(ServeServerTest, DrainFinishesInFlightAndRejectsNew) {
  ServerOptions options;
  options.workers = 2;
  ServerFixture fixture(options);
  fixture.RegisterDefaultLogs();

  // Start a batch, then drain mid-stream from another connection.
  std::atomic<int> definite{0};
  std::atomic<int> draining_rejects{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < 4; ++c) {
    threads.emplace_back([&] {
      ServeClient client = fixture.NewClient();
      for (int r = 0; r < 6; ++r) {
        Result<ServeResponse> resp = client.Match(DefaultSpec());
        if (resp.ok() && resp->ok) {
          ++definite;
        } else if (resp.ok() && resp->error_code == "REJECTED_DRAINING") {
          ++draining_rejects;
          ++definite;
        } else if (resp.ok()) {
          ++definite;  // Overload etc. — still an explicit answer.
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ServeClient drainer = fixture.NewClient();
  Result<ServeResponse> drained = drainer.Drain();
  ASSERT_TRUE(drained.ok()) << drained.status();
  EXPECT_TRUE(drained->ok);
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(definite.load(), 4 * 6)
      << "drain must answer every request, acceptance or rejection";
  fixture.server().Wait();
  EXPECT_EQ(fixture.server().in_flight(), 0u);
}

TEST(ServeServerTest, ShedLevelDowngradesUnderSaturation) {
  ServerOptions options;
  options.workers = 1;
  options.max_queue_depth = 32;
  options.shed_depth = 2;
  options.shed_hard_depth = 8;
  ServerFixture fixture(options);
  fixture.RegisterDefaultLogs();

  std::atomic<int> shed_requests{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < 6; ++c) {
    threads.emplace_back([&] {
      ServeClient client = fixture.NewClient();
      for (int r = 0; r < 4; ++r) {
        Result<ServeResponse> resp = client.Match(DefaultSpec());
        if (resp.ok() && resp->ok &&
            resp->body.Find("shed_level")->NumberOr(0.0) > 0.0) {
          ++shed_requests;
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  // With one worker and six greedy clients the queue must have exceeded
  // depth 2 at some point, shedding at least one request to the
  // heuristic ladder.
  EXPECT_GT(shed_requests.load(), 0);
}

// Fault injection via environment: the governor picks HEMATCH_FAULT_*
// up per request, the crash unwinds through the ladder's isolation
// boundary, and the server answers the request (degraded or failed)
// while peers keep completing.  setenv happens before Start so no
// worker thread races the environment.
TEST(ServeServerTest, InjectedCrashIsIsolatedPerRequest) {
  ::setenv("HEMATCH_FAULT_EXHAUST_AFTER", "3", 1);
  ::setenv("HEMATCH_FAULT_CRASH", "1", 1);
  {
    ServerOptions options;
    options.workers = 2;
    ServerFixture fixture(options);
    fixture.RegisterDefaultLogs();

    ServeClient client = fixture.NewClient();
    Result<ServeResponse> resp = client.Match(DefaultSpec());
    ASSERT_TRUE(resp.ok()) << resp.status();
    // The crash fires in the exact rung; the fallback ladder records the
    // failed stage and continues on a heuristic, so the request succeeds
    // degraded.  (A crash in the *last* rung would surface as INTERNAL —
    // also acceptable; what is not acceptable is a dead server.)
    if (resp->ok) {
      EXPECT_TRUE(resp->body.Find("degraded")->boolean);
      const obs::JsonValue* stages = resp->body.Find("stages");
      ASSERT_NE(stages, nullptr);
      bool saw_failed = false;
      for (const auto& stage : stages->items) {
        saw_failed |= stage.Find("termination")->TextOr("") == "failed";
      }
      EXPECT_TRUE(saw_failed) << "crash must be recorded as a failed stage";
    } else {
      EXPECT_EQ(resp->error_code, "INTERNAL");
    }

    // The server survived; the next request (fresh fault re-armed) also
    // gets a definite answer, and a ping round-trips.
    Result<ServeResponse> second = client.Match(DefaultSpec());
    ASSERT_TRUE(second.ok()) << second.status();
    Result<ServeResponse> pong = client.Ping();
    ASSERT_TRUE(pong.ok() && pong->ok);
  }
  ::unsetenv("HEMATCH_FAULT_EXHAUST_AFTER");
  ::unsetenv("HEMATCH_FAULT_CRASH");
}

TEST(ServeServerTest, SwappedOrientationReportsRequestOrder) {
  // log1 bigger than log2 and no partial penalty: the server swaps
  // internally but must report mapping pairs in the request's
  // orientation and set swapped=true.
  ServerFixture fixture(ServerOptions{});
  ServeClient client = fixture.NewClient();
  EventLog big = MakeLog({{"a", "b", "c", "d", "e"}, {"e", "d", "c", "b", "a"}});
  EventLog small = MakeLog({{"x", "y", "z"}, {"z", "y", "x"}});
  ASSERT_TRUE(client.RegisterLog("big", big).ok());
  ASSERT_TRUE(client.RegisterLog("small", small).ok());

  MatchRequestSpec spec;
  spec.log1 = "big";
  spec.log2 = "small";
  spec.deadline_ms = 2000.0;
  Result<ServeResponse> resp = client.Match(spec);
  ASSERT_TRUE(resp.ok()) << resp.status();
  ASSERT_TRUE(resp->ok) << resp->error_message;
  EXPECT_TRUE(resp->body.Find("swapped")->boolean);
  const obs::JsonValue* mapping = resp->body.Find("mapping");
  ASSERT_NE(mapping, nullptr);
  ASSERT_FALSE(mapping->items.empty());
  // Pairs are [big_event, small_event]: the first element must come
  // from big's vocabulary.
  const std::string first = mapping->items[0].items[0].TextOr("");
  EXPECT_TRUE(first == "a" || first == "b" || first == "c" ||
              first == "d" || first == "e")
      << "got '" << first << "' — mapping not in request orientation";
}

TEST(ServeServerTest, StatsExposesServeCounters) {
  ServerFixture fixture(ServerOptions{});
  fixture.RegisterDefaultLogs();
  ServeClient client = fixture.NewClient();
  ASSERT_TRUE(client.Match(DefaultSpec()).ok());
  Result<ServeResponse> stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  ASSERT_TRUE(stats->ok);
  const obs::JsonValue* telemetry = stats->body.Find("telemetry");
  ASSERT_NE(telemetry, nullptr);
  const obs::JsonValue* counters = telemetry->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->Find("serve.completed")->NumberOr(0.0), 1.0);
}

TEST(ServeServerTest, RequestAndCorrelationIdsEchoEndToEnd) {
  ServerFixture fixture(ServerOptions{});
  fixture.RegisterDefaultLogs();

  ClientOptions copts;
  copts.port = fixture.server().port();
  copts.correlation_id = "e2e-echo-1";
  ServeClient client(std::move(copts));

  Result<ServeResponse> pong = client.Ping();
  ASSERT_TRUE(pong.ok() && pong->ok) << pong.status();
  EXPECT_GT(pong->request_id, 0u);
  EXPECT_EQ(pong->correlation_id, "e2e-echo-1");

  Result<ServeResponse> match = client.Match(DefaultSpec());
  ASSERT_TRUE(match.ok() && match->ok) << match.status();
  EXPECT_EQ(match->correlation_id, "e2e-echo-1");
  // Server-assigned ids are unique and increase across requests, even
  // on one connection.
  EXPECT_GT(match->request_id, pong->request_id);

  // A client without a correlation id gets none back.
  ServeClient plain = fixture.NewClient();
  Result<ServeResponse> bare = plain.Ping();
  ASSERT_TRUE(bare.ok() && bare->ok);
  EXPECT_EQ(bare->correlation_id, "");
  EXPECT_GT(bare->request_id, match->request_id);
}

TEST(ServeServerTest, ObservabilityPipelineEndToEnd) {
  const std::string dir =
      ::testing::TempDir() + "serve_obs_e2e_" +
      std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  ServerOptions options;
  options.trace_dir = dir + "/traces";
  options.trace_sample_rate = 1.0;  // Keep every trace.
  options.access_log_path = dir + "/access.jsonl";
  options.metrics_port = 0;

  std::uint64_t match_request_id = 0;
  {
    ServerFixture fixture(options);
    ASSERT_GT(fixture.server().metrics_port(), 0);
    fixture.RegisterDefaultLogs();

    ClientOptions copts;
    copts.port = fixture.server().port();
    copts.correlation_id = "obs-e2e";
    ServeClient client(std::move(copts));
    Result<ServeResponse> match = client.Match(DefaultSpec());
    ASSERT_TRUE(match.ok() && match->ok) << match.status();
    match_request_id = match->request_id;
  }
  // Fixture drained; the access log and trace ring are complete.

  std::ifstream access(dir + "/access.jsonl");
  ASSERT_TRUE(access.good());
  std::string line;
  bool saw_match = false;
  while (std::getline(access, line)) {
    Result<AccessLogEntry> entry = ParseAccessLogLine(line);
    ASSERT_TRUE(entry.ok()) << entry.status() << ": " << line;
    if (entry->op == "match" && entry->request_id == match_request_id) {
      saw_match = true;
      EXPECT_EQ(entry->correlation_id, "obs-e2e");
      EXPECT_EQ(entry->admission, "admitted");
      EXPECT_EQ(entry->termination, "completed");
      EXPECT_TRUE(entry->ok);
      EXPECT_TRUE(entry->sampled);  // Rate 1.0 keeps everything.
      ASSERT_FALSE(entry->trace_file.empty());
      EXPECT_TRUE(std::filesystem::exists(entry->trace_file));

      // The trace file contains this request's spans, recoverable by
      // request id.
      std::ifstream trace_in(entry->trace_file);
      std::stringstream buffer;
      buffer << trace_in.rdbuf();
      Result<obs::ParsedTrace> trace = obs::ParseChromeTrace(buffer.str());
      ASSERT_TRUE(trace.ok()) << trace.status();
      const obs::ParsedTrace filtered =
          obs::FilterTraceByRequest(*trace, match_request_id);
      ASSERT_FALSE(filtered.events.empty());
      const std::string tree = obs::FormatSpanTree(filtered);
      EXPECT_NE(tree.find("serve.request"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_match);
  std::filesystem::remove_all(dir);
}

TEST(ServeServerTest, MetricsOpAndEndpointServeTheSameExposition) {
  ServerOptions options;
  options.metrics_port = 0;
  ServerFixture fixture(options);
  fixture.RegisterDefaultLogs();
  ServeClient client = fixture.NewClient();
  ASSERT_TRUE(client.Match(DefaultSpec()).ok());

  Result<ServeResponse> metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok() && metrics->ok) << metrics.status();
  const obs::JsonValue* exposition = metrics->body.Find("exposition");
  ASSERT_NE(exposition, nullptr);
  const std::string via_op = exposition->TextOr("");
  EXPECT_NE(via_op.find("hematch_serve_completed_total"), std::string::npos);
  EXPECT_NE(via_op.find("hematch_serve_latency_ms_w60_p99"),
            std::string::npos);
  EXPECT_NE(via_op.find("hematch_serve_shed_rate_w60"), std::string::npos);

  // The HTTP endpoint answers a plain GET with the same body shape.
  const int port = fixture.server().metrics_port();
  ASSERT_GT(port, 0);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string get = "GET /metrics HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::send(fd, get.data(), get.size(), 0),
            static_cast<ssize_t>(get.size()));
  std::string response;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
  EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(response.find("hematch_serve_completed_total"),
            std::string::npos);
  EXPECT_NE(response.find("hematch_serve_latency_ms_w60_p99"),
            std::string::npos);
}

TEST(ServeServerTest, WindowedSnapshotTracksRecentRequests) {
  ServerFixture fixture(ServerOptions{});
  fixture.RegisterDefaultLogs();
  ServeClient client = fixture.NewClient();
  for (int i = 0; i < 3; ++i) {
    Result<ServeResponse> match = client.Match(DefaultSpec());
    ASSERT_TRUE(match.ok() && match->ok);
  }
  const obs::TelemetrySnapshot windowed = fixture.server().WindowedSnapshot();
  EXPECT_EQ(windowed.counter("serve.completed", 0), 3u);
  EXPECT_EQ(windowed.counter("serve.matches", 0), 3u);
  const auto latency = windowed.histograms.find("serve.latency_ms");
  ASSERT_NE(latency, windowed.histograms.end());
  EXPECT_EQ(latency->second.total_count(), 3u);
  EXPECT_GT(windowed.gauges.at("serve.goodput_rps"), 0.0);
  EXPECT_DOUBLE_EQ(windowed.gauges.at("serve.shed_rate"), 0.0);
}

}  // namespace
}  // namespace hematch::serve
