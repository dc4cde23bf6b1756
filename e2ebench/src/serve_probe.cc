// The serve probe of batch_exact's traced run: an in-process MatchServer
// on loopback with two workers, its logs registered and contexts warmed
// during set-up, the context cache holding the whole working set. A
// seeded Poisson schedule at one fixed rate is sent from at most four
// connections, once untraced and once traced; each request is timed from
// when it was due, so a stall also charges the requests queued behind it.
//
// Request classes (shares per block of 100, so every seed sends the same
// mix): cheap exact and heuristic requests on bus pairs, where the serve
// plumbing is a large share of latency, and heavy requests: exact on a
// bus pair with decoy targets, and the advanced heuristic (Algorithms 3
// and 4 plus the assignment step) on a 20-event synthetic pair.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/match_pipeline.h"
#include "log/log_io.h"
#include "obs/trace.h"
#include "pools.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "stats.h"
#include "traced.h"
#include "workloads.h"

namespace e2ebench {
namespace {

using hematch::MatchMethod;
namespace serve = hematch::serve;

constexpr int kWorkers = 2;
constexpr int kOpenLoopConnections = 4;
constexpr std::size_t kTraces = 3000;
constexpr std::size_t kBusPairs = 12;
constexpr std::size_t kDecoyPairs = 6;
constexpr std::size_t kSyntheticPairs = 8;

enum RequestClass { kBusExact, kBusHeuristic, kDecoyExact, kSynthetic };
constexpr int kNumClasses = 4;
const char* const kClassNames[kNumClasses] = {
    "bus_exact", "bus_heuristic", "decoy_exact", "synthetic_heuristic"};
const std::vector<int> kClassShares = {80, 10, 3, 7};

// Fixed, so a slower program shows as queueing, not as a lower rate. On
// a shared 4-vCPU machine a closed loop of one client per worker served
// 240-700 requests/s from one run to the next (thread wake-ups slow down
// most when the host is busy); 100/s is under half of the lowest, where
// queueing stays mild.
constexpr double kOpenLoopRps = 100.0;
// A generator that sent its p99 request this late did not offer the
// scheduled load: the run is marked invalid.
constexpr double kMaxScheduleLagMs = 20.0;
// Requests carry an expansion budget and a deadline no run comes near.
constexpr double kDeadlineMs = 30000.0;

// One (instance, method) the server is asked about, with the answer the
// same call through MatchLogs gave in-process.
struct Target {
  int cls = 0;
  const Instance* instance = nullptr;
  MatchMethod method = MatchMethod::kPatternTight;
  Answer answer;
  std::string request_line;
};

struct ServeState {
  std::vector<std::unique_ptr<Instance>> instances;
  std::vector<std::string> log_texts;  ///< Per instance: log1, log2.
  std::vector<Target> targets;
  std::vector<std::vector<std::size_t>> by_class;
  /// Drains and joins its threads when destroyed.
  std::unique_ptr<serve::MatchServer> server;
  std::vector<double> register_ms;
};

std::string LogText(const hematch::EventLog& log) {
  std::ostringstream text;
  (void)hematch::WriteTraceLog(log, text);
  return text.str();
}

// The instance as the server will see it: both logs round-tripped
// through the trace-per-line text it is registered with, so in-process
// and served runs work on identical event ids.
std::unique_ptr<Instance> AsRegistered(Instance generated,
                                       std::vector<std::string>& texts,
                                       WorkloadResult& out) {
  auto instance = std::make_unique<Instance>(std::move(generated));
  hematch::EventLog registered[2];
  const hematch::EventLog* sides[2] = {&instance->task.log1,
                                       &instance->task.log2};
  for (int side = 0; side < 2; ++side) {
    texts.push_back(LogText(*sides[side]));
    std::istringstream in(texts.back());
    auto parsed = hematch::ReadTraceLog(in);
    if (!parsed.ok() || parsed->num_traces() != sides[side]->num_traces() ||
        parsed->num_events() != sides[side]->num_events()) {
      out.Fail(instance->name + ": trace-log round trip changed the log");
      return nullptr;
    }
    registered[side] = std::move(*parsed);
  }
  instance->truth =
      TranslateTruth(instance->truth, instance->task.log1,
                     instance->task.log2, registered[0], registered[1]);
  instance->task.log1 = std::move(registered[0]);
  instance->task.log2 = std::move(registered[1]);
  return instance;
}

std::string LogName(std::size_t instance, int side) {
  return "i" + std::to_string(instance) + "-log" + std::to_string(side);
}

// The correctness gate for one reply: answered, not shed, and the same
// mapping (and, for exact requests, the same certified objective) as
// MatchLogs in-process.
bool CheckReply(const serve::ServeResponse& resp, const Target& target,
                std::string* why) {
  if (!resp.ok) {
    *why = "error " + resp.error_code + ": " + resp.error_message;
    return false;
  }
  const auto* shed = resp.body.Find("shed_level");
  if (shed == nullptr || shed->NumberOr(-1) != 0) {
    *why = "request was shed";
    return false;
  }
  std::vector<std::pair<std::string, std::string>> pairs;
  if (const auto* mapping = resp.body.Find("mapping"); mapping != nullptr) {
    for (const auto& pair : mapping->items) {
      if (pair.items.size() == 2) {
        pairs.emplace_back(pair.items[0].text, pair.items[1].text);
      }
    }
  }
  std::vector<std::pair<std::string, std::string>> want = target.answer.pairs;
  std::sort(pairs.begin(), pairs.end());
  std::sort(want.begin(), want.end());
  if (pairs != want) {
    *why = "mapping differs from in-process MatchLogs";
    return false;
  }
  if (target.method == MatchMethod::kPatternTight) {
    const auto* objective = resp.body.Find("objective");
    if (objective == nullptr ||
        !SameObjective(objective->NumberOr(NAN), target.answer.objective)) {
      *why = "objective differs from the certified one";
      return false;
    }
  }
  return true;
}

serve::ClientOptions ClientFor(const serve::MatchServer& server) {
  serve::ClientOptions options;
  options.port = server.port();
  options.max_retries = 0;
  options.read_timeout_ms = kDeadlineMs * 2.0;
  return options;
}

// Set-up: pools, in-process reference answers, server start, log
// registration, and one warm request per target.
std::unique_ptr<ServeState> SetUp(const RunConfig& config,
                                  WorkloadResult& out) {
  auto state = std::make_unique<ServeState>();
  SeedStream stream(config.seed);
  std::vector<int> instance_kind;  // 0 bus, 1 decoy, 2 synthetic
  const auto add = [&](Instance generated, int kind) {
    auto instance = AsRegistered(std::move(generated), state->log_texts, out);
    if (instance == nullptr) {
      return false;
    }
    state->instances.push_back(std::move(instance));
    instance_kind.push_back(kind);
    return true;
  };
  // Both exact pools come from frozen catalogues chosen by certified
  // work, so every seed's cheap and heavy exact classes cost about the
  // same.
  const std::pair<const Catalogue*, std::size_t> pools[] = {
      {&ServeBusCatalogue(), kBusPairs}, {&ServeDecoyCatalogue(), kDecoyPairs}};
  for (int kind = 0; kind < 2; ++kind) {
    const auto& [catalogue, size] = pools[kind];
    std::string error;
    const std::uint64_t pool_seed = stream.Next();
    std::vector<Instance> pool =
        MakeCataloguePool(pool_seed, *catalogue, size, &error);
    if (pool.empty()) {
      out.Fail(std::move(error));
      return nullptr;
    }
    JsonObject record;
    record.Add("generator_seeds", PickSeeds(pool_seed, *catalogue, size))
        .Add("members_outside_band",
             static_cast<std::uint64_t>(OutsideBand(pool, *catalogue)));
    out.properties.Add(catalogue->name, record);
    for (Instance& instance : pool) {
      if (!add(std::move(instance), kind)) {
        return nullptr;
      }
    }
  }
  for (std::size_t i = 0; i < kSyntheticPairs; ++i) {
    if (!add(MakeSyntheticInstance(stream.Next(), kTraces), 2)) {
      return nullptr;
    }
  }

  state->by_class.resize(kNumClasses);
  for (std::size_t i = 0; i < state->instances.size(); ++i) {
    std::vector<std::pair<int, MatchMethod>> asks;
    if (instance_kind[i] == 0) {
      asks = {{kBusExact, MatchMethod::kPatternTight},
              {kBusHeuristic, MatchMethod::kHeuristicAdvanced}};
    } else if (instance_kind[i] == 1) {
      asks = {{kDecoyExact, MatchMethod::kPatternTight}};
    } else {
      asks = {{kSynthetic, MatchMethod::kHeuristicAdvanced}};
    }
    for (const auto& [cls, method] : asks) {
      Target target;
      target.cls = cls;
      target.instance = state->instances[i].get();
      target.method = method;
      std::optional<Answer> answer = Certify(*target.instance, method);
      if (!answer) {
        out.Fail(target.instance->name + ": in-process reference failed");
        return nullptr;
      }
      target.answer = std::move(*answer);
      serve::MatchRequestSpec spec;
      spec.log1 = LogName(i, 1);
      spec.log2 = LogName(i, 2);
      spec.patterns = target.instance->patterns;
      spec.deadline_ms = kDeadlineMs;
      spec.max_expansions = kMaxExpansions;
      spec.method =
          method == MatchMethod::kPatternTight ? "exact" : "heuristic";
      target.request_line =
          serve::BuildMatchRequest(state->targets.size() + 1, spec);
      state->by_class[cls].push_back(state->targets.size());
      state->targets.push_back(std::move(target));
    }
  }

  serve::ServerOptions options;
  options.workers = kWorkers;
  // Nothing here may be shed or refused: every reply is checked against
  // the exact ladder's answer.
  options.max_queue_depth = 4096;
  options.shed_depth = 1u << 20;
  options.shed_hard_depth = 1u << 20;
  options.max_contexts = state->instances.size() + 4;
  options.max_logs = 2 * state->instances.size() + 4;
  options.service.default_deadline_ms = kDeadlineMs;
  options.service.max_deadline_ms = kDeadlineMs;
  state->server = std::make_unique<serve::MatchServer>(options);
  if (const auto status = state->server->Start(); !status.ok()) {
    out.Fail("server start: " + status.ToString());
    return nullptr;
  }
  serve::ServeClient client(ClientFor(*state->server));
  for (std::size_t i = 0; i < state->instances.size(); ++i) {
    for (int side = 1; side <= 2; ++side) {
      const auto start = Clock::now();
      const auto resp = client.RegisterLogText(
          LogName(i, side), "tr", state->log_texts[2 * i + side - 1]);
      state->register_ms.push_back(MsSince(start));
      if (!resp.ok() || !resp->ok) {
        out.Fail("register " + LogName(i, side) + " failed");
        return nullptr;
      }
    }
  }
  for (const Target& target : state->targets) {
    const auto resp = client.Call(target.request_line);
    std::string why;
    if (!resp.ok() || !CheckReply(*resp, target, &why)) {
      out.Fail(target.instance->name + " warm " + kClassNames[target.cls] +
               ": " + (resp.ok() ? why : resp.status().ToString()));
      return nullptr;
    }
  }
  return state;
}

// One scheduled request and what became of it.
struct Sent {
  std::size_t target = 0;
  double due_ms = 0.0;
  /// Generator lateness: sent this long after the later of its due
  /// time and the moment a connection was free to send it.
  double lag_ms = 0.0;
  /// Waited this long past its due time for a free connection (client
  /// queueing, part of its latency).
  double wait_ms = 0.0;
  double latency_ms = 0.0;  ///< From due time to the reply.
  double service_ms = 0.0;  ///< From send to the reply.
  bool transport_ok = false;
  serve::ServeResponse resp;
};

std::vector<Sent> PlanOpenLoop(const ServeState& state, double duration_s,
                               std::uint64_t seed) {
  SeedStream stream(seed ^ 0x6F70656E6C6F6F70ULL);
  const std::vector<double> due = PoissonSchedule(kOpenLoopRps, duration_s,
                                                  stream);
  const std::vector<int> classes =
      ClassSequence(kClassShares, due.size(), stream);
  std::vector<Sent> plan(due.size());
  for (std::size_t k = 0; k < due.size(); ++k) {
    const auto& members = state.by_class[classes[k]];
    plan[k].target = members[stream.NextBelow(members.size())];
    plan[k].due_ms = due[k];
  }
  return plan;
}

// Sends `plan` on schedule from kOpenLoopConnections connections; with
// a recorder, each call gets a span. Returns the phase's wall time (ms).
double RunOpenLoop(const ServeState& state, std::vector<Sent>& plan,
                   hematch::obs::TraceRecorder* recorder) {
  std::vector<std::unique_ptr<serve::ServeClient>> clients;
  for (int c = 0; c < kOpenLoopConnections; ++c) {
    clients.push_back(
        std::make_unique<serve::ServeClient>(ClientFor(*state.server)));
    (void)clients.back()->Connect();
  }
  std::atomic<std::size_t> next{0};
  const auto start = Clock::now();
  std::vector<std::thread> senders;
  for (int c = 0; c < kOpenLoopConnections; ++c) {
    senders.emplace_back([&, c] {
      serve::ServeClient& client = *clients[c];
      for (std::size_t k = next.fetch_add(1); k < plan.size();
           k = next.fetch_add(1)) {
        const auto claimed = Clock::now();
        Sent& sent = plan[k];
        const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double, std::milli>(
                                         sent.due_ms));
        std::this_thread::sleep_until(due);
        const auto sent_at = Clock::now();
        hematch::obs::ScopedSpan span(recorder, "client.call", "serve");
        span.AddArg("request", static_cast<double>(k));
        auto resp = client.Call(state.targets[sent.target].request_line);
        const auto done = Clock::now();
        using Ms = std::chrono::duration<double, std::milli>;
        sent.lag_ms = Ms(sent_at - std::max(due, claimed)).count();
        sent.wait_ms = std::max(0.0, Ms(claimed - due).count());
        sent.latency_ms = Ms(done - due).count();
        sent.service_ms = Ms(done - sent_at).count();
        sent.transport_ok = resp.ok();
        if (resp.ok()) {
          sent.resp = std::move(*resp);
        }
      }
    });
  }
  for (std::thread& sender : senders) {
    sender.join();
  }
  return MsSince(start);
}

// The property record of the open-loop plan: class mix, how many
// requests repeat an earlier one exactly, the offered and effective rate.
void RecordPlan(const ServeState& state, const std::vector<Sent>& plan,
                double wall_ms, WorkloadResult& out) {
  std::vector<std::uint64_t> per_class(kNumClasses, 0);
  std::set<std::size_t> seen;
  std::uint64_t repeats = 0;
  for (const Sent& sent : plan) {
    ++per_class[state.targets[sent.target].cls];
    repeats += seen.insert(sent.target).second ? 0 : 1;
  }
  const double n = static_cast<double>(plan.size());
  std::vector<std::vector<double>> latencies(kNumClasses);
  for (const Sent& sent : plan) {
    latencies[state.targets[sent.target].cls].push_back(sent.latency_ms);
  }
  JsonObject mix;
  JsonObject p50;
  for (int c = 0; c < kNumClasses; ++c) {
    mix.Add(kClassNames[c], static_cast<double>(per_class[c]) / n);
    p50.Add(kClassNames[c], Percentile(latencies[c], 0.5));
  }
  JsonObject pools;
  pools.Add("bus_pairs", static_cast<std::uint64_t>(kBusPairs))
      .Add("decoy_pairs", static_cast<std::uint64_t>(kDecoyPairs))
      .Add("synthetic_pairs", static_cast<std::uint64_t>(kSyntheticPairs))
      .Add("traces_per_log", static_cast<std::uint64_t>(kTraces))
      .Add("decoys_per_pair",
           static_cast<std::uint64_t>(ServeDecoyCatalogue().num_decoys));
  std::size_t max_complex = 0;
  for (const auto& instance : state.instances) {
    max_complex = std::max(max_complex, instance->patterns.size());
  }
  out.properties.Add("pools", pools)
      .Add("targets", static_cast<std::uint64_t>(state.targets.size()))
      .Add("max_complex_patterns", static_cast<std::uint64_t>(max_complex))
      .Add("class_mix", mix)
      .Add("class_latency_p50_ms", p50)
      .Add("repeat_request_share", static_cast<double>(repeats) / n)
      .Add("offered_rps", kOpenLoopRps)
      .Add("effective_open_loop_rps", n / (wall_ms / 1000.0))
      .Add("open_loop_requests", static_cast<std::uint64_t>(plan.size()))
      .Add("workers", kWorkers)
      .Add("open_loop_connections", kOpenLoopConnections);
}

// Gate and tally of a finished open-loop phase.
struct OpenLoopTally {
  std::vector<double> lags;
  std::uint64_t waited = 0;  ///< Requests that waited for a connection.
  std::uint64_t warm = 0;
};

OpenLoopTally CheckOpenLoop(const ServeState& state,
                            const std::vector<Sent>& plan,
                            WorkloadResult& out) {
  OpenLoopTally t;
  for (const Sent& sent : plan) {
    const Target& target = state.targets[sent.target];
    ++out.attempted;
    t.lags.push_back(sent.lag_ms);
    t.waited += sent.wait_ms > 0.0 ? 1 : 0;
    std::string why = "transport failed";
    const bool ok = sent.transport_ok && CheckReply(sent.resp, target, &why);
    if (!ok) {
      out.Fail(target.instance->name + " " + kClassNames[target.cls] + ": " +
               why);
      continue;
    }
    const auto* warm = sent.resp.body.Find("context_warm");
    t.warm += warm != nullptr && warm->boolean ? 1 : 0;
  }
  return t;
}

void CheckLag(const OpenLoopTally& t, WorkloadResult& out) {
  const double lag_p99 = Percentile(t.lags, 0.99);
  out.properties.Add("schedule_lag_p50_ms", Percentile(t.lags, 0.5))
      .Add("schedule_lag_p99_ms", lag_p99)
      .Add("schedule_lag_limit_ms", kMaxScheduleLagMs)
      .Add("connection_wait_share",
           static_cast<double>(t.waited) /
               static_cast<double>(std::max<std::size_t>(1, t.lags.size())));
  if (lag_p99 > kMaxScheduleLagMs) {
    out.valid = false;
    out.invalid_reason = "open-loop generator ran late (p99 lag " +
                         std::to_string(lag_p99) + " ms)";
  }
}

// The serve layers: the open-loop schedule sent with a span around each
// call, the layer numbers read from the replies, the protocol codec timed
// on the run's own lines, and the registration time from set-up.
void MeasureServeLayers(const ServeState& state, double open_s,
                        std::uint64_t seed,
                        hematch::obs::TraceRecorder& recorder,
                        WorkloadResult& out) {
  std::vector<Sent> traced = PlanOpenLoop(state, open_s, seed);
  const double wall_ms = RunOpenLoop(state, traced, &recorder);
  RecordPlan(state, traced, wall_ms, out);
  const OpenLoopTally tally = CheckOpenLoop(state, traced, out);
  CheckLag(tally, out);

  double queue = 0.0;
  double match = 0.0;
  double overhead = 0.0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t answered = 0;
  for (std::size_t k = 0; k < traced.size(); ++k) {
    const serve::ServeResponse& resp = traced[k].resp;
    if (resp.error_code.rfind("REJECTED", 0) == 0) {
      ++rejected;
    }
    if (!traced[k].transport_ok || !resp.ok) {
      continue;
    }
    ++answered;
    const auto number = [&resp](const char* key) {
      const auto* field = resp.body.Find(key);
      return field == nullptr ? 0.0 : field->NumberOr(0.0);
    };
    const double q = number("queue_ms");
    const double m = number("elapsed_ms");
    queue += q;
    match += m;
    overhead += traced[k].service_ms - q - m;
    shed += number("shed_level") > 0 ? 1 : 0;
  }
  const double n = static_cast<double>(std::max<std::uint64_t>(1, answered));
  const double scheduled = static_cast<double>(traced.size());

  const auto parse_start = Clock::now();
  std::size_t parsed = 0;
  for (const Sent& sent : traced) {
    parsed += serve::ParseRequest(state.targets[sent.target].request_line).ok()
                  ? 1
                  : 0;
    parsed += serve::ParseResponse(sent.resp.raw).ok() ? 1 : 0;
  }
  const double parse_ms = MsSince(parse_start);
  if (parsed != 2 * traced.size()) {
    out.Fail("a recorded request or response line did not parse");
  }

  MetricValues& metrics = out.metrics;
  metrics["log.register_ms"] = Mean(state.register_ms);
  metrics["serve.queue_ms"] = queue / n;
  metrics["serve.match_ms"] = match / n;
  metrics["serve.overhead_ms"] = overhead / n;
  metrics["serve.context_hit_ratio"] = static_cast<double>(tally.warm) / n;
  metrics["serve.shed_ratio"] = static_cast<double>(shed) / n;
  metrics["serve.rejected_ratio"] = static_cast<double>(rejected) / scheduled;
  metrics["protocol.parse_us"] = parse_ms * 1000.0 / (2.0 * scheduled);
  metrics["client.schedule_lag_ms"] = Percentile(tally.lags, 0.99);
  out.properties.Add("context_warm_share", metrics["serve.context_hit_ratio"]);
}

// The in-process MatchLogs phases of the synthetic targets, traced.
// Returns how many answered as the reference did.
std::size_t TraceSynthetic(const ServeState& state,
                           hematch::obs::TraceRecorder& recorder,
                           WorkloadResult& out) {
  std::size_t jobs = 0;
  std::size_t job_id = 0;
  for (const Target& target : state.targets) {
    if (target.cls != kSynthetic) {
      continue;
    }
    const hematch::EventLog& log1 = target.instance->task.log1;
    const hematch::EventLog& log2 = target.instance->task.log2;
    const auto options = PipelineOptions(*target.instance, target.method);
    hematch::Result<hematch::MatchResult> result =
        hematch::Status::Internal("not run");
    {
      hematch::obs::ScopedSpan job(&recorder, kSpanJob, "bench");
      job.AddArg("job", static_cast<double>(job_id++));
      result = TracedMatch(&recorder, log1, log2, options, nullptr);
    }
    ++out.attempted;
    if (!result.ok() ||
        MappingPairs(result->mapping, log1, log2) != target.answer.pairs) {
      out.Fail(target.instance->name + ": traced in-process answer differs");
      continue;
    }
    ++jobs;
  }
  return jobs;
}

}  // namespace

void ProbeServeLayers(const RunConfig& config, double seconds,
                      hematch::obs::TraceRecorder& recorder,
                      WorkloadResult& out) {
  WorkloadResult probe;
  const auto state = SetUp(config, probe);
  if (state != nullptr) {
    MeasureServeLayers(*state, seconds, config.seed, recorder, probe);
    const std::size_t jobs = TraceSynthetic(*state, recorder, probe);
    const auto spans = SpanTotalsByName(recorder);
    const auto heuristic = spans.find(kSpanHeuristic);
    if (heuristic != spans.end() && jobs > 0) {
      probe.metrics["heuristic.ms"] =
          heuristic->second.total_ms / static_cast<double>(jobs);
    }
  }
  out.metrics.insert(probe.metrics.begin(), probe.metrics.end());
  out.attempted += probe.attempted;
  out.failed += probe.failed;
  for (std::string& error : probe.errors) {
    if (out.errors.size() < 20) {
      out.errors.push_back(std::move(error));
    }
  }
  if (!probe.valid) {
    out.valid = false;
    out.invalid_reason = probe.invalid_reason;
  }
  out.properties.Add("serve_probe", probe.properties);
}

}  // namespace e2ebench
