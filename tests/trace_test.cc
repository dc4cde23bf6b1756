// Tests for the span-tracing subsystem (obs/trace.h) and its analysis
// side (obs/trace_analysis.h): recorder basics, auto/explicit
// parenting, ring-buffer drop accounting, the Chrome JSON round trip
// ("parse what we emit"), cross-thread parenting under a real portfolio
// race (run under TSAN in CI), the watchdog heartbeat clock, histogram
// percentile interpolation, the heartbeat JSONL line, and the
// multi-writer histogram hammer (atomic fetch_add must lose nothing).

#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/match_pipeline.h"
#include "core/astar_matcher.h"
#include "core/pattern_set.h"
#include "exec/budget.h"
#include "exec/portfolio.h"
#include "exec/watchdog.h"
#include "graph/dependency_graph.h"
#include "log/event_log.h"
#include "obs/metrics.h"
#include "obs/metrics_json.h"
#include "obs/telemetry.h"
#include "obs/trace_analysis.h"

namespace hematch {
namespace {

using obs::ParseChromeTrace;
using obs::ParsedTrace;
using obs::ScopedSpan;
using obs::TraceEvent;
using obs::TraceEventKind;
using obs::TraceRecorder;

const TraceEvent* FindEvent(const std::vector<TraceEvent>& events,
                            const std::string& name) {
  for (const TraceEvent& e : events) {
    if (e.name == name) {
      return &e;
    }
  }
  return nullptr;
}

TEST(TraceRecorderTest, RecordsSpansInstantsAndCounters) {
  TraceRecorder recorder;
  {
    ScopedSpan outer(&recorder, "outer", "test");
    EXPECT_TRUE(outer.active());
    outer.AddArg("items", 3.0);
    {
      ScopedSpan inner(&recorder, "inner", "test");
      recorder.RecordInstant("tick", "test", {{"n", 1.0}});
    }
    recorder.RecordCounter("open_list", 42.0);
  }
  const std::vector<TraceEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 4u);

  const TraceEvent* outer = FindEvent(events, "outer");
  const TraceEvent* inner = FindEvent(events, "inner");
  const TraceEvent* tick = FindEvent(events, "tick");
  const TraceEvent* counter = FindEvent(events, "open_list");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(tick, nullptr);
  ASSERT_NE(counter, nullptr);

  EXPECT_EQ(outer->kind, TraceEventKind::kSpan);
  EXPECT_EQ(outer->parent, 0u);  // Root.
  EXPECT_EQ(inner->parent, outer->id);
  EXPECT_EQ(tick->kind, TraceEventKind::kInstant);
  EXPECT_EQ(tick->parent, inner->id);  // Auto-parent: innermost open.
  EXPECT_EQ(counter->kind, TraceEventKind::kCounter);
  EXPECT_DOUBLE_EQ(counter->value, 42.0);
  ASSERT_EQ(outer->args.size(), 1u);
  EXPECT_EQ(outer->args[0].key, "items");
  EXPECT_GE(outer->dur_us, inner->dur_us);
}

TEST(TraceRecorderTest, NullRecorderIsInert) {
  ScopedSpan span(nullptr, "nothing", "test");
  EXPECT_FALSE(span.active());
  EXPECT_EQ(span.id(), 0u);
  span.AddArg("ignored", 1.0);  // Must not crash.
  obs::TraceInstant(nullptr, "nothing");
  obs::TraceCounter(nullptr, "nothing", 0.0);
}

TEST(TraceRecorderTest, ExplicitParentOverridesThreadStack) {
  TraceRecorder recorder;
  obs::SpanId root_id = 0;
  {
    ScopedSpan root(&recorder, "root", "test");
    root_id = root.id();
    ScopedSpan unrelated(&recorder, "unrelated", "test");
    // Explicit parent: attaches to root even though "unrelated" is the
    // innermost open span on this thread.
    ScopedSpan child(&recorder, "child", "test", root_id);
  }
  const std::vector<TraceEvent> events = recorder.Snapshot();
  const TraceEvent* child = FindEvent(events, "child");
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->parent, root_id);
}

TEST(TraceRecorderTest, RingOverwriteCountsDroppedEvents) {
  obs::TraceRecorderOptions options;
  options.per_thread_capacity = 8;
  TraceRecorder recorder(options);
  for (int i = 0; i < 20; ++i) {
    recorder.RecordInstant(std::string("i").append(std::to_string(i)), "test");
  }
  EXPECT_EQ(recorder.Snapshot().size(), 8u);
  EXPECT_EQ(recorder.dropped_events(), 12u);
  // The ring keeps the newest events.
  const std::vector<TraceEvent> events = recorder.Snapshot();
  EXPECT_NE(FindEvent(events, "i19"), nullptr);
  EXPECT_EQ(FindEvent(events, "i0"), nullptr);
}

TEST(TraceRecorderTest, ChromeJsonRoundTrip) {
  TraceRecorder recorder;
  recorder.SetThreadName("main");
  {
    ScopedSpan outer(&recorder, "outer", "cat");
    outer.AddArg("x", 1.5);
    ScopedSpan inner(&recorder, "inner", "cat");
    recorder.RecordInstant("blip", "cat", {{"k", 2.0}});
    recorder.RecordCounter("gauge", 7.0);
  }
  const std::string json = recorder.ToChromeJson();

  Result<ParsedTrace> parsed = ParseChromeTrace(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->dropped_events, 0u);
  ASSERT_EQ(parsed->events.size(), 4u);

  const TraceEvent* outer = FindEvent(parsed->events, "outer");
  const TraceEvent* inner = FindEvent(parsed->events, "inner");
  const TraceEvent* blip = FindEvent(parsed->events, "blip");
  const TraceEvent* gauge = FindEvent(parsed->events, "gauge");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(blip, nullptr);
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(outer->kind, TraceEventKind::kSpan);
  EXPECT_EQ(inner->parent, outer->id);
  EXPECT_EQ(blip->kind, TraceEventKind::kInstant);
  EXPECT_EQ(gauge->kind, TraceEventKind::kCounter);
  EXPECT_DOUBLE_EQ(gauge->value, 7.0);
  ASSERT_EQ(outer->args.size(), 1u);
  EXPECT_EQ(outer->args[0].key, "x");
  EXPECT_DOUBLE_EQ(outer->args[0].value, 1.5);
  // Thread-name metadata survives the trip.
  bool named_main = false;
  for (const auto& [tid, name] : parsed->thread_names) {
    named_main = named_main || name == "main";
  }
  EXPECT_TRUE(named_main);
}

TEST(TraceRecorderTest, ParsedIdsAreExactAndNeverCastFromDoubles) {
  // A hand-edited trace: ids past 2^53 survive exactly; ids and tids that
  // are not plain non-negative integers read as 0 instead of overflowing
  // a float-to-int conversion.
  const std::string json = R"({"traceEvents":[
    {"ph":"X","name":"a","tid":1,"ts":0,"dur":5,
     "args":{"span_id":9007199254740993,"parent_id":0}},
    {"ph":"X","name":"b","tid":1e300,"ts":1,"dur":1,
     "args":{"span_id":-4,"parent_id":1e300}},
    {"ph":"X","name":"c","tid":4294967296,"ts":1,"dur":1,
     "args":{"span_id":2.5}}],
    "otherData":{"dropped_events":1e300}})";
  Result<ParsedTrace> parsed = ParseChromeTrace(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->dropped_events, 0u);
  const TraceEvent* a = FindEvent(parsed->events, "a");
  const TraceEvent* b = FindEvent(parsed->events, "b");
  const TraceEvent* c = FindEvent(parsed->events, "c");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(a->id, 9007199254740993u);
  EXPECT_EQ(b->id, 0u);
  EXPECT_EQ(b->parent, 0u);
  EXPECT_EQ(b->tid, 0u);
  EXPECT_EQ(c->id, 0u);
  EXPECT_EQ(c->tid, 0u);
}

TEST(TraceRecorderTest, SnapshotSafeWhileOtherThreadsRecord) {
  obs::TraceRecorderOptions options;
  options.per_thread_capacity = 1024;  // Keep the copied snapshots small.
  TraceRecorder recorder(options);
  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&recorder] {
      for (int i = 0; i < 2'000; ++i) {
        ScopedSpan span(&recorder, "work", "test");
        recorder.RecordCounter("beat", 1.0);
      }
    });
  }
  std::thread reader([&recorder, &done] {
    while (!done.load(std::memory_order_relaxed)) {
      (void)recorder.Snapshot();  // Must be data-race free under TSAN.
    }
  });
  for (std::thread& w : writers) {
    w.join();
  }
  done.store(true, std::memory_order_relaxed);
  reader.join();
  // Rings are bounded (1024 per thread), so the final snapshot holds
  // exactly the newest capacity-many events per writer.
  EXPECT_EQ(recorder.Snapshot().size(), 4u * 1024u);
  EXPECT_EQ(recorder.dropped_events(), 4u * (2 * 2'000 - 1024));
}

EventLog MakeLog(std::initializer_list<std::vector<std::string>> traces) {
  EventLog log;
  for (const auto& trace : traces) {
    log.AddTraceByNames(trace);
  }
  return log;
}

// The acceptance-shaped test: a real portfolio race must leave >= 3
// strategy spans, on >= 3 distinct threads, all explicitly parented
// under one `portfolio.run` root. Run under TSAN in CI.
TEST(TracePortfolioTest, StrategySpansParentUnderOneRunRoot) {
  const EventLog log1 = MakeLog({{"a", "b", "c", "d"},
                                 {"a", "c", "b", "d"},
                                 {"b", "a", "c", "d"}});
  const EventLog log2 = MakeLog({{"w", "x", "y", "z"},
                                 {"w", "y", "x", "z"},
                                 {"x", "w", "y", "z"}});
  exec::PortfolioOptions options;
  options.trace_recorder = std::make_shared<TraceRecorder>();
  const std::shared_ptr<TraceRecorder> recorder = options.trace_recorder;
  exec::PortfolioRunner runner(RaceCard(MatchPipelineOptions{}), options);
  Result<exec::PortfolioOutcome> outcome = runner.Run(
      log1, log2, BuildPatternSet(DependencyGraph::Build(log1), {}));
  ASSERT_TRUE(outcome.ok()) << outcome.status();

  // Early accept can return before losing strategies close their spans
  // (workers are detached; the shared recorder outlives them), so poll
  // until all three strategy spans landed.
  const auto CountStrategySpans = [](const std::vector<TraceEvent>& events) {
    std::size_t n = 0;
    for (const TraceEvent& e : events) {
      if (e.kind == TraceEventKind::kSpan &&
          e.name.rfind("portfolio.strategy.", 0) == 0) {
        ++n;
      }
    }
    return n;
  };
  std::vector<TraceEvent> events = recorder->Snapshot();
  for (int i = 0; i < 5'000 && CountStrategySpans(events) < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    events = recorder->Snapshot();
  }

  const TraceEvent* root = FindEvent(events, "portfolio.run");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent, 0u);

  std::set<std::uint32_t> strategy_tids;
  std::size_t strategy_spans = 0;
  for (const TraceEvent& e : events) {
    if (e.kind != TraceEventKind::kSpan ||
        e.name.rfind("portfolio.strategy.", 0) != 0) {
      continue;
    }
    ++strategy_spans;
    strategy_tids.insert(e.tid);
    EXPECT_EQ(e.parent, root->id) << e.name;
    EXPECT_NE(e.tid, root->tid) << e.name << " ran on the coordinator";
  }
  EXPECT_GE(strategy_spans, 3u);
  EXPECT_GE(strategy_tids.size(), 3u);

  // The matchers' own spans rode along on the worker threads.
  bool match_span = false;
  for (const TraceEvent& e : events) {
    match_span = match_span || e.name.rfind("match.", 0) == 0;
  }
  EXPECT_TRUE(match_span);

  // And the exported JSON analyzes into a profile rooted at the race.
  Result<ParsedTrace> parsed = ParseChromeTrace(recorder->ToChromeJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const obs::TraceReport report = obs::AnalyzeTrace(*parsed);
  EXPECT_GE(report.span_count, 4u);
  ASSERT_FALSE(report.critical_path.empty());
  EXPECT_EQ(report.critical_path.front().name, "portfolio.run");
  EXPECT_FALSE(
      obs::FormatTraceReport(report).empty());
}

TEST(WatchdogHeartbeatTest, BeatsPeriodicallyUntilDisarm) {
  std::atomic<std::uint64_t> beats{0};
  std::atomic<std::uint64_t> last_seq{0};
  exec::WatchdogOptions options;
  options.heartbeat_ms = 5.0;
  options.heartbeat = [&beats, &last_seq](std::uint64_t seq) {
    last_seq.store(seq, std::memory_order_relaxed);
    beats.fetch_add(1, std::memory_order_relaxed);
  };
  {
    exec::Watchdog watchdog(std::move(options));
    while (watchdog.heartbeats() < 3) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_FALSE(watchdog.fired());  // No deadline: beats only.
  }
  // Destructor disarmed and joined; sequence numbers were 0-based.
  EXPECT_GE(beats.load(), 3u);
  EXPECT_EQ(last_seq.load(), beats.load() - 1);
}

TEST(WatchdogHeartbeatTest, DeadlineStillFiresWhileBeating) {
  exec::CancelToken token;
  std::atomic<std::uint64_t> beats_after_fire{0};
  exec::WatchdogOptions options;
  options.deadline_ms = 10.0;
  options.token = &token;
  options.heartbeat_ms = 5.0;
  // Published to the watchdog's own thread after construction, hence
  // atomic.
  std::atomic<exec::Watchdog*> self{nullptr};
  options.heartbeat = [&](std::uint64_t) {
    const exec::Watchdog* watchdog = self.load();
    if (watchdog != nullptr && watchdog->fired()) {
      beats_after_fire.fetch_add(1, std::memory_order_relaxed);
    }
  };
  exec::Watchdog watchdog(std::move(options));
  self.store(&watchdog);
  while (!watchdog.fired()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(token.cancelled());
  // Beats keep flowing after the deadline (evidence from hung runs).
  while (beats_after_fire.load(std::memory_order_relaxed) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  watchdog.Disarm();
}

TEST(HistogramPercentileTest, InterpolatesWithinBuckets) {
  obs::HistogramSnapshot hist;
  hist.bounds = {10.0, 20.0, 40.0};
  hist.counts = {10, 10, 10, 0};  // Uniform over (0,10], (10,20], (20,40].
  hist.sum = 450.0;
  // Median: 15 observations in; the second bucket's midpoint.
  EXPECT_DOUBLE_EQ(hist.Percentile(0.5), 15.0);
  EXPECT_DOUBLE_EQ(hist.Percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(hist.Percentile(1.0), 40.0);
  // p90: target 27 of 30 -> 7/10 into the (20,40] bucket.
  EXPECT_DOUBLE_EQ(hist.Percentile(0.9), 34.0);
}

TEST(HistogramPercentileTest, OverflowClampsToLastBound) {
  obs::HistogramSnapshot hist;
  hist.bounds = {10.0};
  hist.counts = {0, 5};  // Everything beyond the last edge.
  hist.sum = 100.0;
  EXPECT_DOUBLE_EQ(hist.Percentile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(hist.Percentile(0.99), 10.0);
}

TEST(HistogramPercentileTest, EmptyAndUnbucketedFallBackToMean) {
  obs::HistogramSnapshot empty;
  EXPECT_DOUBLE_EQ(empty.Percentile(0.5), 0.0);
  obs::HistogramSnapshot unbucketed;
  unbucketed.counts = {4};  // A single catch-all bucket.
  unbucketed.sum = 12.0;
  EXPECT_DOUBLE_EQ(unbucketed.Percentile(0.5), 3.0);
}

TEST(HeartbeatLineTest, EmitsParseableSingleLineJson) {
  obs::TelemetrySnapshot snapshot;
  snapshot.counters["work.items"] = 17;
  snapshot.gauges["queue.depth"] = 3.5;
  obs::HistogramSnapshot hist;
  hist.bounds = {1.0, 10.0};
  hist.counts = {5, 5, 0};
  hist.sum = 30.0;
  snapshot.histograms["latency_ms"] = hist;

  const std::string line = obs::TelemetryToHeartbeatLine(snapshot, 4, 123.5);
  EXPECT_EQ(line.find('\n'), std::string::npos);

  Result<obs::JsonValue> doc = obs::ParseJson(line);
  ASSERT_TRUE(doc.ok()) << doc.status();
  const obs::JsonValue* schema = doc->Find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->TextOr(""), "hematch.heartbeat.v1");
  EXPECT_DOUBLE_EQ(doc->Find("seq")->NumberOr(-1), 4.0);
  EXPECT_DOUBLE_EQ(doc->Find("elapsed_ms")->NumberOr(-1), 123.5);
  const obs::JsonValue* counters = doc->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->Find("work.items")->NumberOr(-1), 17.0);
  const obs::JsonValue* percentiles = doc->Find("percentiles");
  ASSERT_NE(percentiles, nullptr);
  const obs::JsonValue* latency = percentiles->Find("latency_ms");
  ASSERT_NE(latency, nullptr);
  EXPECT_DOUBLE_EQ(latency->Find("count")->NumberOr(-1), 10.0);
  EXPECT_GT(latency->Find("p95")->NumberOr(-1), 0.0);
}

TEST(HeartbeatLineTest, WindowedSnapshotFoldsInWithW60Suffix) {
  obs::TelemetrySnapshot snapshot;
  snapshot.counters["serve.completed"] = 100;
  obs::HistogramSnapshot hist;
  hist.bounds = {1.0, 10.0};
  hist.counts = {5, 5, 0};
  hist.sum = 30.0;
  snapshot.histograms["serve.latency_ms"] = hist;

  obs::TelemetrySnapshot windowed;
  windowed.counters["serve.completed"] = 9;
  windowed.gauges["serve.goodput_rps"] = 0.15;
  obs::HistogramSnapshot recent;
  recent.bounds = {1.0, 10.0};
  recent.counts = {1, 1, 0};
  recent.sum = 8.0;
  windowed.histograms["serve.latency_ms"] = recent;

  const std::string line =
      obs::TelemetryToHeartbeatLine(snapshot, 1, 500.0, &windowed);
  Result<obs::JsonValue> doc = obs::ParseJson(line);
  ASSERT_TRUE(doc.ok()) << doc.status();

  const obs::JsonValue* counters = doc->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->Find("serve.completed")->NumberOr(-1), 100.0);
  EXPECT_DOUBLE_EQ(counters->Find("serve.completed_w60")->NumberOr(-1), 9.0);

  const obs::JsonValue* gauges = doc->Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->Find("serve.goodput_rps_w60")->NumberOr(-1), 0.15);

  // Windowed percentiles ride alongside the cumulative ones, so a
  // long-lived server's heartbeat p99 cannot freeze.
  const obs::JsonValue* percentiles = doc->Find("percentiles");
  ASSERT_NE(percentiles, nullptr);
  const obs::JsonValue* recent_latency =
      percentiles->Find("serve.latency_ms_w60");
  ASSERT_NE(recent_latency, nullptr);
  EXPECT_DOUBLE_EQ(recent_latency->Find("count")->NumberOr(-1), 2.0);
  ASSERT_NE(percentiles->Find("serve.latency_ms"), nullptr);
}

// --- FilterTraceByRequest / FormatSpanTree (the --request drill-down).

obs::TraceEvent Span(obs::SpanId id, obs::SpanId parent, std::uint32_t tid,
                     double ts_us, double dur_us, const std::string& name,
                     std::vector<obs::TraceArg> args = {}) {
  obs::TraceEvent event;
  event.kind = obs::TraceEventKind::kSpan;
  event.id = id;
  event.parent = parent;
  event.tid = tid;
  event.ts_us = ts_us;
  event.dur_us = dur_us;
  event.name = name;
  event.args = std::move(args);
  return event;
}

obs::TraceEvent Instant(std::uint32_t tid, double ts_us,
                        const std::string& name) {
  obs::TraceEvent event;
  event.kind = obs::TraceEventKind::kInstant;
  event.tid = tid;
  event.ts_us = ts_us;
  event.name = name;
  return event;
}

// Two interleaved requests plus an untagged background span: request 7
// has a root on tid 1 with a child span on tid 2 (cross-thread link)
// and a grandchild; request 8 runs concurrently on tid 3.
obs::ParsedTrace TwoRequestTrace() {
  obs::ParsedTrace trace;
  trace.events.push_back(
      Span(1, 0, 1, 0.0, 1000.0, "serve.request", {{"request_id", 7.0}}));
  trace.events.push_back(Span(2, 1, 2, 100.0, 700.0, "pipeline.ladder"));
  trace.events.push_back(Span(3, 2, 2, 150.0, 500.0, "match.exact"));
  trace.events.push_back(
      Span(4, 0, 3, 50.0, 400.0, "serve.request", {{"request_id", 8.0}}));
  trace.events.push_back(Span(5, 4, 3, 60.0, 200.0, "match.simple"));
  trace.events.push_back(Span(6, 0, 1, 2000.0, 50.0, "background.flush"));
  trace.events.push_back(Instant(2, 200.0, "freq.scan"));   // Inside id 3.
  trace.events.push_back(Instant(2, 5000.0, "late.marker")); // Outside.
  trace.events.push_back(Instant(1, 300.0, "inside.root"));  // Inside id 1.
  trace.thread_names[1] = "session-0";
  trace.thread_names[2] = "worker-1";
  trace.dropped_events = 3;
  return trace;
}

TEST(FilterTraceByRequestTest, KeepsTaggedSpansAndDescendants) {
  const obs::ParsedTrace filtered =
      obs::FilterTraceByRequest(TwoRequestTrace(), 7);
  std::vector<obs::SpanId> span_ids;
  std::vector<std::string> instants;
  for (const obs::TraceEvent& event : filtered.events) {
    if (event.kind == obs::TraceEventKind::kSpan) {
      span_ids.push_back(event.id);
    } else {
      instants.push_back(event.name);
    }
  }
  EXPECT_EQ(span_ids, (std::vector<obs::SpanId>{1, 2, 3}));
  // Instants inside a kept span's interval on the same thread come
  // along; the one outside every kept interval does not.
  EXPECT_EQ(instants,
            (std::vector<std::string>{"freq.scan", "inside.root"}));
  EXPECT_EQ(filtered.dropped_events, 3u);
  EXPECT_EQ(filtered.thread_names.count(1), 1u);
}

TEST(FilterTraceByRequestTest, UnknownIdYieldsEmptyTrace) {
  EXPECT_TRUE(obs::FilterTraceByRequest(TwoRequestTrace(), 999).events.empty());
}

TEST(FilterTraceByRequestTest, ConcurrentRequestsDoNotBleed) {
  const obs::ParsedTrace filtered =
      obs::FilterTraceByRequest(TwoRequestTrace(), 8);
  ASSERT_EQ(filtered.events.size(), 2u);
  for (const obs::TraceEvent& event : filtered.events) {
    EXPECT_EQ(event.tid, 3u) << event.name;
  }
}

TEST(FormatSpanTreeTest, IndentsChildrenUnderParentsInStartOrder) {
  const std::string tree =
      obs::FormatSpanTree(obs::FilterTraceByRequest(TwoRequestTrace(), 7));
  const std::size_t root = tree.find("serve.request");
  const std::size_t ladder = tree.find("pipeline.ladder");
  const std::size_t exact = tree.find("match.exact");
  ASSERT_NE(root, std::string::npos);
  ASSERT_NE(ladder, std::string::npos);
  ASSERT_NE(exact, std::string::npos);
  EXPECT_LT(root, ladder);
  EXPECT_LT(ladder, exact);
  EXPECT_NE(tree.find("request_id=7"), std::string::npos);
  EXPECT_NE(tree.find("[session-0]"), std::string::npos);
  // Child lines are indented deeper than the root line.
  const std::size_t root_line_start = tree.rfind('\n', root);
  const std::size_t ladder_line_start = tree.rfind('\n', ladder);
  const auto indent = [&](std::size_t name_pos, std::size_t line_start) {
    return name_pos - (line_start == std::string::npos ? 0 : line_start);
  };
  EXPECT_GT(indent(ladder, ladder_line_start), indent(root, root_line_start));
}

TEST(FormatSpanTreeTest, OrphanedSpansRootTheTree) {
  obs::ParsedTrace trace;
  // Parent id 42 is not in the trace (filtered away or dropped).
  trace.events.push_back(Span(2, 42, 1, 10.0, 100.0, "orphan.child"));
  const std::string tree = obs::FormatSpanTree(trace);
  EXPECT_NE(tree.find("orphan.child"), std::string::npos);
  EXPECT_EQ(obs::FormatSpanTree(obs::ParsedTrace{}), "(no spans)\n");
}

// The S3 regression test: Histogram::Observe uses atomic fetch_add for
// both the bucket cell and the running sum, so a multi-writer hammer
// must account for every observation exactly. Integer-valued
// observations keep the expected sum exact in floating point.
TEST(HistogramHammerTest, ConcurrentObserversLoseNothing) {
  obs::Histogram hist({4.0, 8.0, 16.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50'000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.Observe(static_cast<double>((t + i) % 20));
      }
    });
  }
  for (std::thread& w : writers) {
    w.join();
  }
  EXPECT_EQ(hist.total_count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  double expected_sum = 0.0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      expected_sum += (t + i) % 20;
    }
  }
  EXPECT_DOUBLE_EQ(hist.sum(), expected_sum);
}

// Zero-cost guard: building a context and matching without a recorder
// must behave identically to before tracing existed (same result, no
// events anywhere). The timing claim lives in BM_AStarMatch.
TEST(TraceZeroCostTest, NoRecorderMeansNoTracing) {
  const EventLog log1 = MakeLog({{"a", "b"}, {"b", "a"}});
  const EventLog log2 = MakeLog({{"x", "y"}, {"y", "x"}});
  MatchingContext context(
      log1, log2, BuildPatternSet(DependencyGraph::Build(log1), {}));
  EXPECT_EQ(context.trace_recorder(), nullptr);
  AStarMatcher matcher;
  Result<MatchResult> result = matcher.Match(context);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->completed());
}

}  // namespace
}  // namespace hematch
