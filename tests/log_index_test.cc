// Differential tests for the per-log index: every part built by the one
// walk (graph values and orders, posting lists, bitmap rows, and the
// co-occurrence matrix read from those rows) equals a brute-force recount
// done here, compared as exact doubles.

#include "freq/log_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/matching_context.h"
#include "freq/cooccurrence.h"
#include "log/projection.h"

namespace hematch {
namespace {

/// Brute-force recount of what the index derives from `log`. Frequencies
/// use the index's formula, support × (1 / traces), so they compare
/// exactly.
struct Reference {
  explicit Reference(const EventLog& log)
      : n(log.num_events()), traces(log.num_traces()) {
    const std::vector<Trace>& all = log.traces();
    const double inv = traces == 0 ? 0.0 : 1.0 / static_cast<double>(traces);
    vertex.assign(n, 0.0);
    edge.assign(n * n, 0.0);
    both.assign(n * n, 0.0);
    postings.assign(n, {});
    for (EventId u = 0; u < n; ++u) {
      for (EventId v = 0; v < n; ++v) {
        std::size_t pair_support = 0;
        std::size_t both_support = 0;
        for (std::uint32_t t = 0; t < traces; ++t) {
          const Trace& trace = all[t];
          const bool has_u =
              std::find(trace.begin(), trace.end(), u) != trace.end();
          const bool has_v =
              std::find(trace.begin(), trace.end(), v) != trace.end();
          bool consecutive = false;
          for (std::size_t i = 0; i + 1 < trace.size(); ++i) {
            consecutive |= trace[i] == u && trace[i + 1] == v;
          }
          pair_support += consecutive ? 1 : 0;
          both_support += has_u && has_v ? 1 : 0;
          if (u == v && has_u) {
            postings[u].push_back(t);
          }
        }
        edge[u * n + v] = static_cast<double>(pair_support) * inv;
        both[u * n + v] = static_cast<double>(both_support) * inv;
        if (u == v) {
          vertex[u] = static_cast<double>(both_support) * inv;
        }
        if (pair_support > 0) {
          edges.emplace_back(u, v);
        }
      }
    }
  }

  /// Vertices by descending frequency, ties by id.
  std::vector<EventId> VerticesByFrequency() const {
    std::vector<EventId> order(n);
    std::iota(order.begin(), order.end(), EventId{0});
    std::sort(order.begin(), order.end(), [&](EventId a, EventId b) {
      return std::make_tuple(-vertex[a], a) < std::make_tuple(-vertex[b], b);
    });
    return order;
  }

  /// Edges by descending frequency, ties by (from, to).
  std::vector<std::tuple<EventId, EventId, double>> EdgesByFrequency() const {
    std::vector<std::tuple<EventId, EventId, double>> order;
    for (const auto& [u, v] : edges) {
      order.emplace_back(u, v, edge[u * n + v]);
    }
    std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
      return std::make_tuple(-std::get<2>(a), std::get<0>(a), std::get<1>(a)) <
             std::make_tuple(-std::get<2>(b), std::get<0>(b), std::get<1>(b));
    });
    return order;
  }

  /// Edges touching `x` (a self-loop once) as (other endpoint,
  /// frequency), by descending frequency, ties by the edge's (from, to).
  std::vector<std::pair<EventId, double>> Incident(EventId x) const {
    std::vector<std::pair<EventId, double>> list;
    for (const auto& [u, v, f] : EdgesByFrequency()) {
      if (u == x) {
        list.emplace_back(v, f);
      } else if (v == x) {
        list.emplace_back(u, f);
      }
    }
    return list;
  }

  std::size_t n;
  std::size_t traces;
  std::vector<double> vertex;
  std::vector<double> edge;  // Row-major n × n.
  std::vector<double> both;  // Row-major n × n: traces holding u and v.
  std::vector<std::vector<std::uint32_t>> postings;
  std::vector<std::pair<EventId, EventId>> edges;  // Ascending.
};

void ExpectMatchesReference(const EventLog& log) {
  const Reference ref(log);
  const auto index = std::make_shared<const LogIndex>(log);
  const DependencyGraph& g = index->graph();
  const std::size_t n = ref.n;
  ASSERT_EQ(g.num_vertices(), n);
  EXPECT_EQ(index->num_traces(), ref.traces);
  EXPECT_EQ(g.edges(), ref.edges);
  EXPECT_EQ(g.num_edges(), ref.edges.size());
  EXPECT_EQ(g.vertices_by_frequency(), ref.VerticesByFrequency());

  const auto by_frequency = ref.EdgesByFrequency();
  ASSERT_EQ(g.edges_by_frequency().size(), by_frequency.size());
  for (std::size_t i = 0; i < by_frequency.size(); ++i) {
    const DependencyGraph::WeightedEdge& e = g.edges_by_frequency()[i];
    EXPECT_EQ(std::make_tuple(e.from, e.to, e.frequency), by_frequency[i])
        << "edge rank " << i;
  }

  const std::size_t words = (ref.traces + 63) / 64;
  const BitmapTraceIndex& bitmap = index->bitmap();
  EXPECT_EQ(bitmap.words_per_row(), words);
  CooccurrenceIndex cooc(index);
  cooc.EnsureBuilt();
  for (EventId u = 0; u < n; ++u) {
    SCOPED_TRACE("event " + std::to_string(u));
    EXPECT_EQ(g.VertexFrequency(u), ref.vertex[u]);
    std::vector<EventId> out;
    std::vector<EventId> in;
    for (EventId v = 0; v < n; ++v) {
      EXPECT_EQ(g.EdgeFrequency(u, v), ref.edge[u * n + v]) << "to " << v;
      EXPECT_EQ(cooc.At(u, v), ref.both[u * n + v]) << "with " << v;
      if (ref.edge[u * n + v] > 0.0) out.push_back(v);
      if (ref.edge[v * n + u] > 0.0) in.push_back(v);
    }
    EXPECT_EQ(g.OutNeighbors(u), out);
    EXPECT_EQ(g.InNeighbors(u), in);
    EXPECT_EQ(g.IncidentByFrequency(u), ref.Incident(u));
    EXPECT_EQ(index->postings().Postings(u), ref.postings[u]);

    std::vector<std::uint64_t> row(words, 0);
    for (std::uint32_t t : ref.postings[u]) {
      row[t / 64] |= 1ull << (t % 64);
    }
    const std::span<const std::uint64_t> built = bitmap.Row(u);
    EXPECT_EQ(std::vector<std::uint64_t>(built.begin(), built.end()), row);
  }
  // Out of vocabulary: nothing anywhere.
  EXPECT_EQ(g.VertexFrequency(static_cast<EventId>(n)), 0.0);
  EXPECT_TRUE(index->postings().Postings(static_cast<EventId>(n)).empty());
  EXPECT_TRUE(bitmap.Row(static_cast<EventId>(n)).empty());
  EXPECT_EQ(cooc.At(0, static_cast<EventId>(n)), 0.0);
}

/// A random log over a small alphabet, so self-loops (`a a`) and pairs
/// repeated within a trace are common. It has empty traces, and
/// dictionary events that occur in no trace. The trace count straddles
/// the 64-trace word boundary of the bitmap rows.
EventLog RandomLog(Rng& rng, std::size_t max_traces) {
  EventLog log;
  const std::size_t used = 1 + rng.NextBounded(6);
  const std::size_t unused = rng.NextBounded(3);
  for (std::size_t v = 0; v < used + unused; ++v) {
    log.InternEvent(std::string("e").append(std::to_string(v)));
  }
  const std::size_t num_traces = rng.NextBounded(max_traces + 1);
  for (std::size_t t = 0; t < num_traces; ++t) {
    Trace trace(rng.NextBounded(8));  // Length 0 allowed.
    for (EventId& e : trace) {
      e = static_cast<EventId>(rng.NextBounded(used));
    }
    log.AddTrace(std::move(trace));
  }
  return log;
}

class LogIndexDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LogIndexDifferentialTest, MatchesBruteForce) {
  Rng rng(GetParam());
  for (int round = 0; round < 8; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    ExpectMatchesReference(RandomLog(rng, 150));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LogIndexDifferentialTest,
                         ::testing::Values(1, 5, 9, 13, 17, 21));

// As a log grows trace by trace, the index of every prefix agrees with
// the recount of that prefix: the supports renormalise with the trace
// count and the per-trace stamps never leak across traces.
class IncrementalAgreementTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalAgreementTest, SnapshotMatchesBatchAtEveryPrefix) {
  Rng rng(GetParam());
  const EventLog log = RandomLog(rng, 80);
  for (std::size_t prefix = 0; prefix <= log.num_traces(); ++prefix) {
    if (prefix % 5 != 0 && prefix != log.num_traces()) {
      continue;  // Every 5th prefix and the whole log.
    }
    SCOPED_TRACE("prefix " + std::to_string(prefix));
    ExpectMatchesReference(SelectFirstTraces(log, prefix));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalAgreementTest,
                         ::testing::Values(2, 4, 8, 16, 32, 64));

TEST(LogIndexTest, EmptyState) {
  const EventLog log;
  const LogIndex index(log);
  EXPECT_EQ(index.num_traces(), 0u);
  EXPECT_EQ(index.graph().VertexFrequency(0), 0.0);
  EXPECT_EQ(index.graph().EdgeFrequency(0, 1), 0.0);
  EXPECT_EQ(index.graph().num_edges(), 0u);
  EXPECT_TRUE(index.postings().Postings(0).empty());
  EXPECT_EQ(index.bitmap().words_per_row(), 0u);
}

TEST(LogIndexTest, ZeroTracesOverAVocabulary) {
  EventLog log;
  log.InternEvent("a");
  log.InternEvent("b");
  ExpectMatchesReference(log);
  const LogIndex index(log);
  EXPECT_EQ(index.graph().vertices_by_frequency(),
            (std::vector<EventId>{0, 1}));
}

TEST(LogIndexTest, PairRepeatedWithinTraceCountsOnce) {
  EventLog log;
  log.AddTraceByNames({"a", "b", "a", "b"});
  log.AddTraceByNames({"a"});
  const LogIndex index(log);
  const DependencyGraph& g = index.graph();
  EXPECT_EQ(g.VertexFrequency(0), 1.0);
  EXPECT_EQ(g.EdgeFrequency(0, 1), 0.5);  // Counted once in trace 0.
  EXPECT_EQ(g.EdgeFrequency(1, 0), 0.5);
  EXPECT_EQ(index.postings().Postings(0), (std::vector<std::uint32_t>{0, 1}));
  ExpectMatchesReference(log);
}

// Every ordered pair over 6 events, self-loops included: 36 distinct
// pairs, more than the pair table's initial room, so it must grow.
TEST(LogIndexTest, ManyDistinctPairsGrowThePairTable) {
  EventLog log;
  for (const char* name : {"a", "b", "c", "d", "e", "f"}) {
    log.InternEvent(name);
  }
  for (EventId u = 0; u < 6; ++u) {
    for (EventId v = 0; v < 6; ++v) {
      log.AddTrace({u, v, u});
    }
  }
  const LogIndex index(log);
  EXPECT_EQ(index.graph().num_edges(), 36u);
  ExpectMatchesReference(log);
}

TEST(LogIndexTest, SelfLoopIsOneIncidentEdge) {
  EventLog log;
  log.AddTraceByNames({"a", "a", "b"});
  const LogIndex index(log);
  EXPECT_EQ(index.graph().EdgeFrequency(0, 0), 1.0);
  EXPECT_EQ(index.graph().IncidentByFrequency(0).size(), 2u);  // a→a, a→b.
  ExpectMatchesReference(log);
}

TEST(LogIndexTest, FrequenciesRenormalizePerTrace) {
  EventLog log;
  log.AddTraceByNames({"a", "b"});
  EXPECT_EQ(LogIndex(log).graph().EdgeFrequency(0, 1), 1.0);
  log.AddTraceByNames({"b"});
  {
    const LogIndex index(log);
    EXPECT_EQ(index.graph().EdgeFrequency(0, 1), 0.5);
    EXPECT_EQ(index.graph().VertexFrequency(1), 1.0);
  }
  log.AddTraceByNames({"a"});
  EXPECT_EQ(LogIndex(log).graph().EdgeFrequency(0, 1), 1.0 / 3.0);
}

// The co-occurrence matrix reads the shared index's bitmap rows; two
// matrices over one index agree, and the lazy build is once per matrix.
TEST(CooccurrenceIndexTest, ReadsTheSharedIndexRows) {
  EventLog log;
  log.AddTraceByNames({"a", "b", "c"});
  log.AddTraceByNames({"a", "c"});
  log.AddTraceByNames({"b"});
  log.AddTraceByNames({"c", "a", "a"});
  log.InternEvent("ghost");
  const auto index = std::make_shared<const LogIndex>(log);
  CooccurrenceIndex first(index);
  EXPECT_FALSE(first.built());
  first.EnsureBuilt();
  first.EnsureBuilt();
  ASSERT_TRUE(first.built());
  EXPECT_EQ(first.At(0, 2), 3 * (1.0 / 4));  // a with c: traces 0, 1, 3.
  EXPECT_EQ(first.At(0, 1), 1 * (1.0 / 4));
  EXPECT_EQ(first.At(1, 1), 2 * (1.0 / 4));  // Diagonal: b alone.
  EXPECT_EQ(first.At(3, 0), 0.0);            // In no trace.
  EXPECT_EQ(first.MaxPairAmong({0, 1, 2}), 3 * (1.0 / 4));
  EXPECT_EQ(first.MaxPairAmong({2}), 0.0);
  CooccurrenceIndex second(index);
  second.EnsureBuilt();
  for (EventId a = 0; a < 4; ++a) {
    for (EventId b = 0; b < 4; ++b) {
      EXPECT_EQ(second.At(a, b), first.At(a, b));
    }
  }
}

// Two contexts over one shared index keep their own lookup counters: the
// index is read-only, the counts live in each context's evaluators.
TEST(LogIndexTest, ContextsSharingAnIndexKeepTheirOwnCounters) {
  EventLog log1;
  log1.AddTraceByNames({"a", "b", "c"});
  log1.AddTraceByNames({"a", "c", "b"});
  log1.AddTraceByNames({"b", "c"});
  EventLog log2;
  log2.AddTraceByNames({"x", "y", "z"});
  log2.AddTraceByNames({"x", "z", "y"});
  const auto index1 = std::make_shared<const LogIndex>(log1);
  const auto index2 = std::make_shared<const LogIndex>(log2);

  const auto lookups = [](const obs::TelemetrySnapshot& s) {
    return s.counter("freq1.index.candidate_queries") +
           s.counter("freq1.bitmap.queries");
  };
  MatchingContext scanning(index1, index2,
                           {Pattern::AndOfEvents({0, 1, 2})});
  const std::uint64_t scanned = lookups(scanning.SnapshotTelemetry());
  EXPECT_GT(scanned, 0u);

  MatchingContext idle(index1, index2, {Pattern::Event(0)});
  EXPECT_EQ(idle.index1().get(), scanning.index1().get());
  const obs::TelemetrySnapshot idle_snapshot = idle.SnapshotTelemetry();
  EXPECT_EQ(lookups(idle_snapshot), 0u);
  EXPECT_EQ(idle_snapshot.counter("freq1.index.postings_scanned"), 0u);
  EXPECT_EQ(idle_snapshot.counter("freq1.bitmap.words_anded"), 0u);
  EXPECT_EQ(lookups(scanning.SnapshotTelemetry()), scanned);
}

// Contexts on several threads read one index at once, as serve pairs and
// parallel-A* workers do; each gets the single-threaded answer.
TEST(LogIndexTest, ConcurrentContextsReadOneIndex) {
  Rng rng(3);
  const EventLog log1 = RandomLog(rng, 120);
  const EventLog log2 = RandomLog(rng, 120);
  const auto index1 = std::make_shared<const LogIndex>(log1);
  const auto index2 = std::make_shared<const LogIndex>(log2);
  const Pattern probe = Pattern::AndOfEvents({0, 1});
  const std::size_t n2 = log2.num_events();
  const auto answer = [&](double* out) {
    MatchingContext context(index1, index2, {Pattern::Event(0)});
    out[0] = context.PatternFrequency2(probe, ExistenceCheckMode::kNone);
    out[1] = context.cooccurrence2().At(0, n2 > 1 ? 1 : 0);
  };
  double expected[2] = {0.0, 0.0};
  answer(expected);
  std::vector<std::array<double, 2>> got(4);
  std::vector<std::thread> threads;
  for (std::array<double, 2>& slot : got) {
    threads.emplace_back([&answer, &slot] { answer(slot.data()); });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (const std::array<double, 2>& slot : got) {
    EXPECT_EQ(slot[0], expected[0]);
    EXPECT_EQ(slot[1], expected[1]);
  }
}

}  // namespace
}  // namespace hematch
