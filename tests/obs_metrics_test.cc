// Tests for the obs/ telemetry subsystem: metric primitives, registry
// semantics, thread-safety under concurrent writers, snapshots, the
// JSON round trip, and the tracer helpers.

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/metrics_json.h"
#include "obs/search_tracer.h"
#include "obs/stopwatch.h"
#include "obs/telemetry.h"

namespace hematch::obs {
namespace {

TEST(CounterTest, IncrementAndSet) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
  c.Set(7);
  EXPECT_EQ(c.value(), 7u);
}

TEST(GaugeTest, SetAndSetMax) {
  Gauge g;
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.SetMax(1.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.SetMax(9.0);
  EXPECT_DOUBLE_EQ(g.value(), 9.0);
  g.Set(0.5);  // Set always overwrites, even downward.
  EXPECT_DOUBLE_EQ(g.value(), 0.5);
}

TEST(HistogramTest, BoundsAreInclusiveUpperEdges) {
  Histogram h({1.0, 4.0, 16.0});
  h.Observe(0.0);   // bucket 0 (v <= 1)
  h.Observe(1.0);   // bucket 0 (edge is inclusive)
  h.Observe(1.5);   // bucket 1
  h.Observe(4.0);   // bucket 1
  h.Observe(16.0);  // bucket 2
  h.Observe(99.0);  // overflow bucket
  EXPECT_EQ(h.counts(), (std::vector<std::uint64_t>{2, 2, 1, 1}));
  EXPECT_EQ(h.total_count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0 + 1.0 + 1.5 + 4.0 + 16.0 + 99.0);
}

TEST(HistogramTest, DefaultHistogramIsASingleCatchAllBucket) {
  Histogram h;
  h.Observe(-5.0);
  h.Observe(1e12);
  EXPECT_EQ(h.counts(), (std::vector<std::uint64_t>{2}));
}

TEST(MetricsRegistryTest, SameNameYieldsSameCell) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x.count");
  Counter* b = registry.GetCounter("x.count");
  EXPECT_EQ(a, b);
  a->Increment(3);
  EXPECT_EQ(b->value(), 3u);
  EXPECT_EQ(registry.num_metrics(), 1u);
  registry.GetGauge("x.gauge");
  registry.GetHistogram("x.hist", {1.0, 2.0});
  EXPECT_EQ(registry.num_metrics(), 3u);
}

TEST(MetricsRegistryTest, ResetZeroesValuesButKeepsHandles) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("c");
  Gauge* g = registry.GetGauge("g");
  Histogram* h = registry.GetHistogram("h", {10.0});
  c->Increment(5);
  g->Set(1.5);
  h->Observe(3.0);
  registry.Reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_DOUBLE_EQ(g->value(), 0.0);
  EXPECT_EQ(registry.GetHistogram("h")->total_count(), 0u);
  EXPECT_EQ(registry.GetHistogram("h")->bounds(),
            (std::vector<double>{10.0}));
  c->Increment();  // The old pointer still targets live storage.
  EXPECT_EQ(registry.GetCounter("c")->value(), 1u);
}

TEST(MetricsRegistryTest, DisabledRegistryRegistersNothing) {
  MetricsRegistry registry(/*enabled=*/false);
  Counter* c = registry.GetCounter("a.count");
  Gauge* g = registry.GetGauge("a.gauge");
  Histogram* h = registry.GetHistogram("a.hist", {1.0});
  // Writes go to shared sinks and must not crash or allocate metrics.
  c->Increment(100);
  g->Set(9.0);
  h->Observe(5.0);
  EXPECT_EQ(registry.num_metrics(), 0u);
  EXPECT_EQ(registry.GetCounter("other"), c);  // One shared sink cell.
  EXPECT_TRUE(CaptureSnapshot(registry).empty());
}

// Hammer test: many threads registering and writing the same metrics
// concurrently. The registry hands out stable cells under a lock and
// the cells themselves are atomic, so every increment must survive and
// a concurrent snapshot must never crash or tear. (The TSan CI job
// runs this test to prove the claim, not just exercise it.)
TEST(MetricsRegistryTest, ConcurrentWritersLoseNoUpdates) {
  constexpr int kThreads = 8;
  constexpr int kIterations = 5'000;
  MetricsRegistry registry;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry, t] {
      // Same names from every thread: the registration path itself is
      // part of what is being hammered.
      Counter* shared = registry.GetCounter("hammer.shared");
      Counter* mine =
          registry.GetCounter("hammer.worker" + std::to_string(t));
      Gauge* gauge = registry.GetGauge("hammer.high_water");
      Histogram* hist = registry.GetHistogram("hammer.values", {8.0, 64.0});
      for (int i = 0; i < kIterations; ++i) {
        shared->Increment();
        mine->Increment(2);
        gauge->SetMax(static_cast<double>(i));
        hist->Observe(static_cast<double>(i % 100));
        if (i % 1'000 == 0) {
          // Concurrent snapshot while writers are live.
          CaptureSnapshot(registry);
        }
      }
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }
  EXPECT_EQ(registry.GetCounter("hammer.shared")->value(),
            static_cast<std::uint64_t>(kThreads) * kIterations);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(registry.GetCounter("hammer.worker" + std::to_string(t))
                  ->value(),
              2u * kIterations);
  }
  EXPECT_DOUBLE_EQ(registry.GetGauge("hammer.high_water")->value(),
                   kIterations - 1.0);
  Histogram* hist = registry.GetHistogram("hammer.values");
  EXPECT_EQ(hist->total_count(),
            static_cast<std::uint64_t>(kThreads) * kIterations);
}

TEST(MetricSlugTest, CanonicalizesMethodNames) {
  EXPECT_EQ(MetricSlug("Pattern-Tight"), "pattern_tight");
  EXPECT_EQ(MetricSlug("Vertex+Edge"), "vertex_edge");
  EXPECT_EQ(MetricSlug("Entropy-only"), "entropy_only");
  EXPECT_EQ(MetricSlug("  weird--Name! "), "weird_name");
}

TelemetrySnapshot SampleSnapshot() {
  MetricsRegistry registry;
  registry.GetCounter("m.runs")->Increment(2);
  registry.GetCounter("m.mappings_processed")->Increment(104);
  registry.GetGauge("m.elapsed_ms")->Set(12.5);
  registry.GetGauge("m.objective")->Set(-3.25);
  Histogram* h = registry.GetHistogram("m.depth", {1.0, 2.0, 4.0});
  h->Observe(1.0);
  h->Observe(3.0);
  h->Observe(100.0);
  return CaptureSnapshot(registry);
}

TEST(TelemetrySnapshotTest, CaptureAndAccessors) {
  const TelemetrySnapshot snapshot = SampleSnapshot();
  EXPECT_EQ(snapshot.counter("m.runs"), 2u);
  EXPECT_EQ(snapshot.counter("missing", 77), 77u);
  EXPECT_DOUBLE_EQ(snapshot.gauge("m.elapsed_ms"), 12.5);
  EXPECT_DOUBLE_EQ(snapshot.gauge("missing", -1.0), -1.0);
  const HistogramSnapshot& h = snapshot.histograms.at("m.depth");
  EXPECT_EQ(h.counts, (std::vector<std::uint64_t>{1, 0, 1, 1}));
  EXPECT_EQ(h.total_count(), 3u);
}

TEST(TelemetrySnapshotTest, MergeWithPrefixAddsCountersOverwritesGauges) {
  TelemetrySnapshot a;
  a.counters["freq1.hits"] = 10;
  a.gauges["freq1.fill"] = 0.5;
  TelemetrySnapshot b;
  b.counters["hits"] = 5;
  b.gauges["fill"] = 0.9;
  a.Merge(b, "freq1.");
  EXPECT_EQ(a.counter("freq1.hits"), 15u);
  EXPECT_DOUBLE_EQ(a.gauge("freq1.fill"), 0.9);
}

TEST(TelemetrySnapshotTest, DiffSubtractsCountersAndClampsAtZero) {
  TelemetrySnapshot before;
  before.counters["c"] = 10;
  before.counters["reset_between"] = 100;
  before.gauges["g"] = 1.0;
  TelemetrySnapshot after;
  after.counters["c"] = 25;
  after.counters["reset_between"] = 40;  // Went backwards (registry Reset).
  after.counters["new"] = 3;
  after.gauges["g"] = 7.0;
  const TelemetrySnapshot diff = DiffSnapshots(before, after);
  EXPECT_EQ(diff.counter("c"), 15u);
  EXPECT_EQ(diff.counter("reset_between"), 0u);
  EXPECT_EQ(diff.counter("new"), 3u);
  EXPECT_DOUBLE_EQ(diff.gauge("g"), 7.0);
}

TEST(MetricsJsonTest, SnapshotRoundTrips) {
  const TelemetrySnapshot snapshot = SampleSnapshot();
  const std::string json = TelemetryToJson(snapshot);
  Result<TelemetrySnapshot> parsed = TelemetryFromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(*parsed == snapshot);
}

TEST(MetricsJsonTest, EmptySnapshotRoundTrips) {
  Result<TelemetrySnapshot> parsed =
      TelemetryFromJson(TelemetryToJson(TelemetrySnapshot{}));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed->empty());
}

TEST(MetricsJsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(TelemetryFromJson("").ok());
  EXPECT_FALSE(TelemetryFromJson("{").ok());
  EXPECT_FALSE(TelemetryFromJson("[]").ok());
  EXPECT_FALSE(
      TelemetryFromJson("{\"counters\": {\"a\": \"not a number\"}}").ok());
  // Trailing garbage after the document.
  EXPECT_FALSE(TelemetryFromJson("{} x").ok());
}

TEST(MetricsJsonTest, CountersAreExactUint64) {
  TelemetrySnapshot snapshot;
  snapshot.counters["max"] = std::numeric_limits<std::uint64_t>::max();
  snapshot.counters["past_2_53"] = 9007199254740993u;
  Result<TelemetrySnapshot> parsed =
      TelemetryFromJson(TelemetryToJson(snapshot));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->counter("max"), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parsed->counter("past_2_53"), 9007199254740993u);
}

TEST(MetricsJsonTest, RejectsValuesOutsideTheSchema) {
  EXPECT_FALSE(TelemetryFromJson("{\"counters\": {\"a\": -1}}").ok());
  EXPECT_FALSE(TelemetryFromJson("{\"counters\": {\"a\": 1.5}}").ok());
  EXPECT_FALSE(TelemetryFromJson("{\"counters\": {\"a\": 1e3}}").ok());
  EXPECT_FALSE(
      TelemetryFromJson("{\"counters\": {\"a\": 18446744073709551616}}")
          .ok());
  EXPECT_FALSE(TelemetryFromJson("{\"gauges\": {\"g\": nan}}").ok());
  EXPECT_FALSE(TelemetryFromJson("{\"gauges\": {\"g\": true}}").ok());
  EXPECT_FALSE(TelemetryFromJson("{\"counters\": []}").ok());
  // Each histogram needs one more count than bounds.
  EXPECT_FALSE(TelemetryFromJson("{\"histograms\": {\"h\": "
                                 "{\"bounds\": [1], \"counts\": [1]}}}")
                   .ok());
  EXPECT_FALSE(TelemetryFromJson("{\"histograms\": {\"h\": "
                                 "{\"bounds\": [1], \"counts\": [1, -2]}}}")
                   .ok());
  // Unknown keys of any shape are skipped.
  Result<TelemetrySnapshot> parsed = TelemetryFromJson(
      "{\"schema\": \"x\", \"extra\": [1, {\"y\": null}], "
      "\"counters\": {\"a\": 3}}");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->counter("a"), 3u);
}

TEST(JsonParserTest, RejectsNonJsonNumberLiterals) {
  EXPECT_FALSE(ParseJson("[nan]").ok());
  EXPECT_FALSE(ParseJson("{\"a\":inf}").ok());
  EXPECT_FALSE(ParseJson("[infinity]").ok());
  EXPECT_FALSE(ParseJson("[-inf]").ok());
  EXPECT_FALSE(ParseJson("[+1]").ok());
  EXPECT_FALSE(ParseJson("[.5]").ok());
  EXPECT_FALSE(ParseJson("[1.]").ok());
  EXPECT_FALSE(ParseJson("[01]").ok());
  EXPECT_FALSE(ParseJson("[1e]").ok());
  EXPECT_FALSE(ParseJson("[1e400]").ok());
  EXPECT_TRUE(ParseJson("[0, -0.5, 1e-3, 2E+2, -12]").ok());
}

TEST(JsonParserTest, KeepsIntegerLiteralsExact) {
  Result<JsonValue> doc = ParseJson(
      "[0, 18446744073709551615, 18446744073709551616, 1.0, 1e3, -1, \"7\"]");
  ASSERT_TRUE(doc.ok()) << doc.status();
  const std::vector<JsonValue>& items = doc->items;
  ASSERT_EQ(items.size(), 7u);
  EXPECT_EQ(items[0].AsUint64(), 0u);
  EXPECT_EQ(items[1].AsUint64(), std::numeric_limits<std::uint64_t>::max());
  // Past UINT64_MAX, written with a fraction or exponent, signed, or
  // not a number at all: only the double (if any) is kept.
  EXPECT_FALSE(items[2].AsUint64().has_value());
  EXPECT_DOUBLE_EQ(items[2].number, 18446744073709551616.0);
  EXPECT_FALSE(items[3].AsUint64().has_value());
  EXPECT_FALSE(items[4].AsUint64().has_value());
  EXPECT_FALSE(items[5].AsUint64().has_value());
  EXPECT_FALSE(items[6].AsUint64().has_value());
}

TEST(JsonParserTest, DecodesUnicodeEscapesToUtf8) {
  // What Python's json.dumps sends for "é", "😀" (a surrogate pair) and
  // "ward é" by default.
  Result<JsonValue> doc =
      ParseJson(R"(["\u00e9", "\ud83d\ude00", "ward \u00E9", "\u20ac"])");
  ASSERT_TRUE(doc.ok()) << doc.status();
  ASSERT_EQ(doc->items.size(), 4u);
  EXPECT_EQ(doc->items[0].text, "\xc3\xa9");
  EXPECT_EQ(doc->items[1].text, "\xf0\x9f\x98\x80");
  EXPECT_EQ(doc->items[2].text, "ward \xc3\xa9");
  EXPECT_EQ(doc->items[3].text, "\xe2\x82\xac");
  // Raw UTF-8 and its escaped spelling parse to the same bytes.
  EXPECT_EQ(ParseJson("[\"\xc3\xa9\"]")->items[0].text,
            doc->items[0].text);
}

TEST(JsonParserTest, RejectsLoneSurrogates) {
  EXPECT_FALSE(ParseJson(R"(["\ud800"])").ok());
  EXPECT_FALSE(ParseJson(R"(["\ud800x"])").ok());
  EXPECT_FALSE(ParseJson(R"(["\ud800\u0041"])").ok());
  EXPECT_FALSE(ParseJson(R"(["\ud800\ud800"])").ok());
  EXPECT_FALSE(ParseJson(R"(["\udc00"])").ok());
  EXPECT_FALSE(ParseJson(R"(["\ud83d\ude0"])").ok());
}

TEST(MetricsJsonTest, EscapesAwkwardNames) {
  TelemetrySnapshot snapshot;
  snapshot.counters["quote\"back\\slash\ntab\t"] = 1;
  Result<TelemetrySnapshot> parsed =
      TelemetryFromJson(TelemetryToJson(snapshot));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(*parsed == snapshot);
}

TEST(ScopedTimerTest, WritesAllOutputsOnDestruction) {
  double out = -1.0;
  Gauge gauge;
  Histogram histogram({1e9});
  {
    ScopedTimerMs timer(&out, &gauge, &histogram);
    EXPECT_GE(timer.ElapsedMs(), 0.0);
  }
  EXPECT_GE(out, 0.0);
  EXPECT_DOUBLE_EQ(gauge.value(), out);
  EXPECT_EQ(histogram.total_count(), 1u);
}

TEST(TracerTest, RecordingTracerBuffersSamplesAndCompletions) {
  RecordingTracer tracer;
  SearchProgress p;
  p.method = "Pattern-Tight";
  p.nodes_visited = 5;
  tracer.OnProgress(p);
  p.nodes_visited = 9;
  tracer.OnComplete(p);
  ASSERT_EQ(tracer.samples().size(), 1u);
  ASSERT_EQ(tracer.completions().size(), 1u);
  EXPECT_EQ(tracer.samples()[0].nodes_visited, 5u);
  EXPECT_EQ(tracer.completions()[0].nodes_visited, 9u);
}

TEST(TracerTest, CallbackTracerHonorsEvery) {
  int calls = 0;
  CallbackTracer tracer([&](const SearchProgress&) { ++calls; },
                        /*every=*/2);
  SearchProgress p;
  for (std::uint64_t epoch = 0; epoch < 4; ++epoch) {
    p.epoch = epoch;
    tracer.OnProgress(p);  // Fires on epochs 0 and 2.
  }
  const int after_progress = calls;
  EXPECT_EQ(after_progress, 2);
  tracer.OnComplete(p);  // Completion always fires.
  EXPECT_EQ(calls, after_progress + 1);
}

}  // namespace
}  // namespace hematch::obs
