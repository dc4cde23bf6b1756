// Tests for normalized pattern frequency evaluation (Definition 4 plus
// the index and cache of Section 3.2.3).

#include "freq/frequency_evaluator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "freq/pattern_key.h"
#include "pattern/pattern_parser.h"

namespace hematch {
namespace {

EventLog Fig1StyleLog() {
  // All traces contain A, (B|C in some order), D; the pattern
  // SEQ(A,AND(B,C),D) matches every trace (Example 2: f = 1.0).
  EventLog log;
  log.AddTraceByNames({"A", "B", "C", "D", "E"});
  log.AddTraceByNames({"A", "C", "B", "D", "F"});
  log.AddTraceByNames({"A", "B", "C", "D", "F"});
  log.AddTraceByNames({"A", "C", "B", "D", "E"});
  return log;
}

Pattern Parse(const EventLog& log, const char* text) {
  Result<Pattern> p = ParsePattern(text, log.dictionary());
  EXPECT_TRUE(p.ok()) << text;
  return std::move(p).value();
}

TEST(FrequencyEvaluatorTest, Example2PatternHasFullSupport) {
  const EventLog log = Fig1StyleLog();
  FrequencyEvaluator eval(log);
  EXPECT_DOUBLE_EQ(eval.Frequency(Parse(log, "SEQ(A,AND(B,C),D)")), 1.0);
}

TEST(FrequencyEvaluatorTest, VertexAndEdgeFrequencies) {
  const EventLog log = Fig1StyleLog();
  FrequencyEvaluator eval(log);
  EXPECT_DOUBLE_EQ(eval.Frequency(Parse(log, "E")), 0.5);
  EXPECT_DOUBLE_EQ(eval.Frequency(Parse(log, "SEQ(A,B)")), 0.5);
  EXPECT_DOUBLE_EQ(eval.Frequency(Parse(log, "SEQ(B,C)")), 0.5);
  EXPECT_DOUBLE_EQ(eval.Frequency(Parse(log, "SEQ(D,E)")), 0.5);
  EXPECT_DOUBLE_EQ(eval.Frequency(Parse(log, "SEQ(E,A)")), 0.0);
}

TEST(FrequencyEvaluatorTest, SupportCountsTraces) {
  const EventLog log = Fig1StyleLog();
  FrequencyEvaluator eval(log);
  EXPECT_EQ(eval.Support(Parse(log, "AND(B,C)")), 4u);
  EXPECT_EQ(eval.Support(Parse(log, "F")), 2u);
}

TEST(FrequencyEvaluatorTest, EmptyLogYieldsZero) {
  EventLog log;
  log.InternEvent("A");
  FrequencyEvaluator eval(log);
  EXPECT_DOUBLE_EQ(eval.Frequency(Pattern::Event(0)), 0.0);
}

TEST(FrequencyEvaluatorTest, CacheHitsOnRepeatedQueries) {
  const EventLog log = Fig1StyleLog();
  FrequencyEvaluator eval(log);
  const Pattern p = Parse(log, "SEQ(A,AND(B,C),D)");
  eval.Frequency(p);
  const std::uint64_t scanned_after_first = eval.stats().traces_scanned;
  eval.Frequency(p);
  EXPECT_EQ(eval.stats().cache_hits, 1u);
  EXPECT_EQ(eval.stats().traces_scanned, scanned_after_first);
}

TEST(FrequencyEvaluatorTest, IndexRestrictsScans) {
  const EventLog log = Fig1StyleLog();
  FrequencyEvaluator indexed(log);
  FrequencyEvaluatorOptions no_index;
  no_index.use_trace_index = false;
  FrequencyEvaluator full(log, no_index);
  const Pattern p = Parse(log, "SEQ(D,E)");  // E appears in 2/4 traces.
  EXPECT_DOUBLE_EQ(indexed.Frequency(p), full.Frequency(p));
  EXPECT_LT(indexed.stats().traces_scanned, full.stats().traces_scanned);
}

// Property: index on/off and cache on/off never change the result.
class EvaluatorEquivalenceTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EvaluatorEquivalenceTest, ConfigurationsAgree) {
  Rng rng(GetParam());
  EventLog log;
  for (const char* n : {"a", "b", "c", "d"}) log.InternEvent(n);
  for (int t = 0; t < 60; ++t) {
    Trace trace(1 + rng.NextBounded(8));
    for (EventId& e : trace) e = static_cast<EventId>(rng.NextBounded(4));
    log.AddTrace(std::move(trace));
  }
  FrequencyEvaluator a(log);  // index + cache
  FrequencyEvaluatorOptions b_opts;
  b_opts.use_trace_index = false;
  FrequencyEvaluator b(log, b_opts);
  FrequencyEvaluatorOptions c_opts;
  c_opts.use_cache = false;
  FrequencyEvaluator c(log, c_opts);

  const Pattern patterns[] = {
      Pattern::Event(0),
      Pattern::Edge(0, 1),
      Pattern::AndOfEvents({1, 2}),
      Pattern::SeqOfEvents({0, 1, 2}),
      Pattern::AndOfEvents({0, 1, 2}),
  };
  for (const Pattern& p : patterns) {
    const double fa = a.Frequency(p);
    EXPECT_DOUBLE_EQ(fa, b.Frequency(p)) << p.ToString();
    EXPECT_DOUBLE_EQ(fa, c.Frequency(p)) << p.ToString();
    EXPECT_GE(fa, 0.0);
    EXPECT_LE(fa, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvaluatorEquivalenceTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

TEST(FrequencyEvaluatorTest, ByteCeilingEvictsInsteadOfGrowing) {
  const EventLog log = Fig1StyleLog();
  FrequencyEvaluatorOptions options;
  options.max_cache_bytes = 256;  // Room for only a couple of entries.
  FrequencyEvaluator eval(log, options);
  obs::Counter evictions;
  eval.set_eviction_counter(&evictions);
  const Pattern patterns[] = {
      Pattern::SeqOfEvents({0, 1, 2}), Pattern::AndOfEvents({0, 1, 2}),
      Pattern::SeqOfEvents({0, 2, 3}), Pattern::AndOfEvents({1, 2, 3}),
      Pattern::SeqOfEvents({1, 2, 3}), Pattern::AndOfEvents({0, 2, 3}),
  };
  for (const Pattern& p : patterns) {
    eval.Frequency(p);
    EXPECT_LE(eval.cache_bytes(), options.max_cache_bytes);
  }
  EXPECT_GT(eval.stats().cache_evictions, 0u);
  EXPECT_EQ(evictions.value(), eval.stats().cache_evictions);
  // Results stay correct across evictions: SEQ(A,B,C) holds in the two
  // traces that order B before C.
  EXPECT_DOUBLE_EQ(eval.Frequency(Pattern::SeqOfEvents({0, 1, 2})), 0.5);
}

TEST(FrequencyEvaluatorTest, RaisingTheCeilingStopsEvictions) {
  const EventLog log = Fig1StyleLog();
  FrequencyEvaluatorOptions options;
  options.max_cache_bytes = 1;  // Evict on every insert.
  FrequencyEvaluator eval(log, options);
  eval.Frequency(Pattern::SeqOfEvents({0, 1, 2}));
  eval.Frequency(Pattern::AndOfEvents({0, 1, 2}));
  const std::uint64_t evictions = eval.stats().cache_evictions;
  eval.set_max_cache_bytes(1 << 20);
  eval.Frequency(Pattern::SeqOfEvents({0, 2, 3}));
  eval.Frequency(Pattern::AndOfEvents({1, 2, 3}));
  EXPECT_EQ(eval.stats().cache_evictions, evictions);
}

TEST(FrequencyEvaluatorTest, CancellationAbortsScansUncached) {
  // Cancellation is polled every few dozen traces, so the log must be
  // long enough for the scan to hit a poll point.
  EventLog log;
  for (int t = 0; t < 200; ++t) {
    log.AddTraceByNames({"A", "B", "C", "D"});
  }
  FrequencyEvaluatorOptions options;
  options.use_trace_index = false;  // Force a full scan.
  FrequencyEvaluator eval(log, options);
  exec::CancelToken cancel;
  eval.set_cancel_token(&cancel);
  cancel.Cancel();
  const Pattern p = Parse(log, "SEQ(A,AND(B,C),D)");
  eval.Frequency(p);
  EXPECT_GT(eval.stats().scan_aborts, 0u);
  EXPECT_LT(eval.stats().traces_scanned, 200u);  // Cut short.
  // The partial answer was not memoized: a retry after Reset rescans
  // and gets the exact value.
  cancel.Reset();
  EXPECT_DOUBLE_EQ(eval.Frequency(p), 1.0);
  EXPECT_EQ(eval.stats().cache_hits, 0u);
}

TEST(FrequencyEvaluatorTest, EmptyPostingListShortCircuitsToZero) {
  EventLog log = Fig1StyleLog();
  log.InternEvent("GHOST");  // Interned but occurs in no trace.
  FrequencyEvaluator eval(log);
  const EventId ghost = 6;
  const Pattern p = Pattern::SeqOfEvents({0, ghost});
  EXPECT_EQ(eval.Support(p), 0u);
  EXPECT_EQ(eval.stats().empty_shortcuts, 1u);
  EXPECT_EQ(eval.stats().traces_scanned, 0u);  // Not a single trace touched.
  // The shortcut result is memoized like any other.
  EXPECT_EQ(eval.Support(p), 0u);
  EXPECT_EQ(eval.stats().cache_hits, 1u);
}

TEST(FrequencyEvaluatorTest, PathSelectionIsObservableInStats) {
  const EventLog log = Fig1StyleLog();
  const Pattern p = Pattern::AndOfEvents({1, 2});

  FrequencyEvaluatorOptions bitmap_only;
  bitmap_only.postings_fallback_ratio = 0;  // Never fall back.
  FrequencyEvaluator bitmap_eval(log, bitmap_only);
  bitmap_eval.Support(p);
  EXPECT_EQ(bitmap_eval.stats().bitmap_scans, 1u);
  EXPECT_EQ(bitmap_eval.stats().postings_scans, 0u);
  EXPECT_GT(bitmap_eval.stats().words_anded, 0u);

  FrequencyEvaluatorOptions postings_only;
  postings_only.use_bitmap_index = false;
  FrequencyEvaluator postings_eval(log, postings_only);
  postings_eval.Support(p);
  EXPECT_EQ(postings_eval.stats().postings_scans, 1u);
  EXPECT_EQ(postings_eval.stats().bitmap_scans, 0u);
  EXPECT_EQ(postings_eval.stats().words_anded, 0u);  // Rows never read.
  EXPECT_GT(postings_eval.stats().postings_probed, 0u);

  FrequencyEvaluatorOptions unindexed;
  unindexed.use_trace_index = false;
  FrequencyEvaluator full_eval(log, unindexed);
  full_eval.Support(p);
  EXPECT_EQ(full_eval.stats().full_scans, 1u);
}

TEST(FrequencyEvaluatorTest, DebugCollisionCheckAcceptsHonestKeys) {
  const EventLog log = Fig1StyleLog();
  FrequencyEvaluatorOptions options;
  options.debug_check_key_collisions = true;
  FrequencyEvaluator eval(log, options);
  const Pattern p = Parse(log, "SEQ(A,AND(B,C),D)");
  const double first = eval.Frequency(p);
  EXPECT_DOUBLE_EQ(eval.Frequency(p), first);  // Hit passes the cross-check.
  EXPECT_EQ(eval.stats().cache_hits, 1u);
}

TEST(PatternKeyTest, StructurallyDistinctPatternsGetDistinctKeys) {
  // SEQ vs AND, different nesting, different event order, and the
  // flattening trap SEQ(a, SEQ(b, c)) vs SEQ(a, b, c) must all separate.
  std::vector<Pattern> patterns;
  patterns.push_back(Pattern::Event(0));
  patterns.push_back(Pattern::Event(1));
  patterns.push_back(Pattern::SeqOfEvents({0, 1}));
  patterns.push_back(Pattern::SeqOfEvents({1, 0}));
  patterns.push_back(Pattern::AndOfEvents({0, 1}));
  patterns.push_back(Pattern::SeqOfEvents({0, 1, 2}));
  {
    std::vector<Pattern> children;
    children.push_back(Pattern::Event(0));
    children.push_back(Pattern::SeqOfEvents({1, 2}));
    patterns.push_back(std::move(Pattern::Seq(std::move(children))).value());
  }
  {
    std::vector<Pattern> children;
    children.push_back(Pattern::Event(0));
    children.push_back(Pattern::AndOfEvents({1, 2}));
    patterns.push_back(std::move(Pattern::Seq(std::move(children))).value());
  }
  std::set<std::uint64_t> keys;
  for (const Pattern& p : patterns) {
    // Deterministic: hashing twice gives the same key.
    EXPECT_EQ(MakePatternKey(p).value, MakePatternKey(p).value);
    keys.insert(MakePatternKey(p).value);
  }
  EXPECT_EQ(keys.size(), patterns.size());
}

// The tentpole's differential property test: on random logs and random
// (possibly nested) SEQ/AND patterns, the bitmap path, the galloping
// posting-list path, and the unindexed brute-force oracle produce
// bit-identical supports. Collision checking is armed on the cached
// configurations so a hashed-key clash aborts loudly instead of passing
// a wrong value.
class FrequencyDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

Pattern RandomPattern(Rng& rng, std::size_t vocabulary) {
  // Up to 4 distinct events, arranged flat or with one nested composite.
  std::set<EventId> unique;
  const std::size_t k = 1 + rng.NextBounded(4);
  while (unique.size() < k) {
    unique.insert(static_cast<EventId>(rng.NextBounded(vocabulary)));
  }
  const std::vector<EventId> events(unique.begin(), unique.end());
  const bool outer_seq = rng.NextBounded(2) == 0;
  if (events.size() <= 2 || rng.NextBounded(2) == 0) {
    return outer_seq ? Pattern::SeqOfEvents(events)
                     : Pattern::AndOfEvents(events);
  }
  // Nest the last two events under the opposite combinator.
  std::vector<Pattern> children;
  for (std::size_t i = 0; i + 2 < events.size(); ++i) {
    children.push_back(Pattern::Event(events[i]));
  }
  const std::vector<EventId> tail(events.end() - 2, events.end());
  children.push_back(outer_seq ? Pattern::AndOfEvents(tail)
                               : Pattern::SeqOfEvents(tail));
  Result<Pattern> p = outer_seq ? Pattern::Seq(std::move(children))
                                : Pattern::And(std::move(children));
  EXPECT_TRUE(p.ok());
  return std::move(p).value();
}

TEST_P(FrequencyDifferentialTest, AllThreePathsAgree) {
  Rng rng(GetParam());
  EventLog log;
  for (const char* n : {"a", "b", "c", "d", "e", "f"}) log.InternEvent(n);
  // Log sizes crossing the 64-trace word boundary; some events are rare
  // or absent so the sparse fallback and empty-list shortcut also fire.
  const std::size_t num_traces = 1 + rng.NextBounded(150);
  for (std::size_t t = 0; t < num_traces; ++t) {
    Trace trace(1 + rng.NextBounded(8));
    for (EventId& e : trace) {
      e = static_cast<EventId>(rng.NextBounded(rng.NextBounded(2) == 0 ? 3
                                                                       : 6));
    }
    log.AddTrace(std::move(trace));
  }

  FrequencyEvaluatorOptions bitmap_opts;
  bitmap_opts.postings_fallback_ratio = 0;  // Force the bitmap path.
  bitmap_opts.debug_check_key_collisions = true;
  FrequencyEvaluator bitmap_eval(log, bitmap_opts);

  FrequencyEvaluatorOptions postings_opts;
  postings_opts.use_bitmap_index = false;  // Force galloping posting lists.
  postings_opts.debug_check_key_collisions = true;
  FrequencyEvaluator postings_eval(log, postings_opts);

  FrequencyEvaluatorOptions oracle_opts;  // Brute force: no index, no
  oracle_opts.use_trace_index = false;    // cache, throwaway scratch.
  oracle_opts.use_cache = false;
  oracle_opts.use_scratch = false;
  FrequencyEvaluator oracle(log, oracle_opts);

  for (int round = 0; round < 60; ++round) {
    const Pattern p = RandomPattern(rng, 6);
    const std::size_t expected = oracle.Support(p);
    EXPECT_EQ(bitmap_eval.Support(p), expected) << p.ToString();
    EXPECT_EQ(postings_eval.Support(p), expected) << p.ToString();
  }
  EXPECT_GT(bitmap_eval.stats().bitmap_scans +
                bitmap_eval.stats().empty_shortcuts,
            0u);
  EXPECT_GT(postings_eval.stats().postings_scans +
                postings_eval.stats().empty_shortcuts,
            0u);
  EXPECT_EQ(bitmap_eval.stats().postings_scans, 0u);
  EXPECT_EQ(postings_eval.stats().bitmap_scans, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrequencyDifferentialTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707,
                                           808));

TEST(FrequencyEvaluatorTest, PrecomputeAllWarmsTheCache) {
  const EventLog log = Fig1StyleLog();
  FrequencyEvaluator eval(log);
  std::vector<Pattern> patterns;
  patterns.push_back(Pattern::SeqOfEvents({0, 1, 2}));
  patterns.push_back(Pattern::AndOfEvents({1, 2, 3}));
  patterns.push_back(Pattern::SeqOfEvents({0, 3}));
  const FrequencyEvaluator::PrecomputeStats ps = eval.PrecomputeAll(patterns);
  EXPECT_EQ(ps.patterns_requested, 3u);
  EXPECT_EQ(ps.patterns_evaluated, 3u);
  const std::uint64_t misses = eval.stats().cache_misses;
  for (const Pattern& p : patterns) {
    eval.Frequency(p);  // All hits now.
  }
  EXPECT_EQ(eval.stats().cache_misses, misses);
  EXPECT_EQ(eval.stats().cache_hits, 3u);
}

TEST(FrequencyEvaluatorTest, PrecomputeAllIsANoOpWithoutCache) {
  const EventLog log = Fig1StyleLog();
  FrequencyEvaluatorOptions options;
  options.use_cache = false;
  FrequencyEvaluator eval(log, options);
  const std::vector<Pattern> patterns = {Pattern::SeqOfEvents({0, 1, 2})};
  const FrequencyEvaluator::PrecomputeStats ps = eval.PrecomputeAll(patterns);
  EXPECT_EQ(ps.patterns_evaluated, 0u);
  EXPECT_EQ(eval.stats().evaluations, 0u);
}

TEST(FrequencyEvaluatorTest, PrecomputeAllHonorsCancellation) {
  const EventLog log = Fig1StyleLog();
  FrequencyEvaluator eval(log);
  exec::CancelToken cancel;
  cancel.Cancel();  // Already cancelled: nothing should be claimed.
  FrequencyEvaluator::PrecomputeOptions options;
  options.cancel = &cancel;
  const std::vector<Pattern> patterns = {Pattern::SeqOfEvents({0, 1, 2}),
                                         Pattern::AndOfEvents({1, 2, 3})};
  const FrequencyEvaluator::PrecomputeStats ps =
      eval.PrecomputeAll(patterns, options);
  EXPECT_EQ(ps.patterns_requested, 2u);
  EXPECT_EQ(ps.patterns_evaluated, 0u);
}

// Satellite (c): a parallel PrecomputeAll racing concurrent Support
// readers on one shared evaluator must produce exactly the sequential
// evaluator's values — the memo, the per-thread scratch, and the shared
// bitmap index may not perturb results under contention.
TEST(FrequencyEvaluatorTest, PrecomputeAllConcurrentMatchesSequential) {
  Rng rng(777);
  EventLog log;
  for (const char* n : {"a", "b", "c", "d", "e"}) log.InternEvent(n);
  for (int t = 0; t < 90; ++t) {
    Trace trace(2 + rng.NextBounded(8));
    for (EventId& e : trace) e = static_cast<EventId>(rng.NextBounded(5));
    log.AddTrace(std::move(trace));
  }
  std::vector<Pattern> patterns;
  for (EventId a = 0; a < 5; ++a) {
    for (EventId b = 0; b < 5; ++b) {
      if (a != b) {
        patterns.push_back(Pattern::Edge(a, b));
        patterns.push_back(Pattern::AndOfEvents({a, b}));
      }
    }
  }
  patterns.push_back(Pattern::SeqOfEvents({0, 1, 2}));
  patterns.push_back(Pattern::AndOfEvents({2, 3, 4}));

  FrequencyEvaluator sequential(log);
  std::vector<std::size_t> expected;
  expected.reserve(patterns.size());
  for (const Pattern& p : patterns) {
    expected.push_back(sequential.Support(p));
  }

  FrequencyEvaluator shared(log);
  FrequencyEvaluator::PrecomputeOptions options;
  options.threads = 4;
  options.min_parallel_patterns = 1;
  std::thread precompute(
      [&] { shared.PrecomputeAll(patterns, options); });
  constexpr int kReaders = 3;
  std::vector<std::vector<std::size_t>> observed(
      kReaders, std::vector<std::size_t>(patterns.size(), ~std::size_t{0}));
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (std::size_t i = 0; i < patterns.size(); ++i) {
        const std::size_t j = (i + r) % patterns.size();
        observed[r][j] = shared.Support(patterns[j]);
      }
    });
  }
  precompute.join();
  for (auto& reader : readers) {
    reader.join();
  }
  for (int r = 0; r < kReaders; ++r) {
    for (std::size_t i = 0; i < patterns.size(); ++i) {
      EXPECT_EQ(observed[r][i], expected[i]) << patterns[i].ToString();
    }
  }
  // After the dust settles the memo agrees with sequential ground truth.
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    EXPECT_EQ(shared.Support(patterns[i]), expected[i]);
  }
}

// Regression for the portfolio's shared-evaluator contract: concurrent
// readers racing on the memo cache must see exactly the frequencies a
// sequential evaluator computes, and the eviction counter must stay
// exact while entries are dropped under contention. (The TSan CI job
// runs this test too.)
TEST(FrequencyEvaluatorTest, ConcurrentReadersAgreeWithSequential) {
  Rng rng(4242);
  EventLog log;
  for (const char* n : {"a", "b", "c", "d", "e"}) log.InternEvent(n);
  for (int t = 0; t < 80; ++t) {
    Trace trace(2 + rng.NextBounded(8));
    for (EventId& e : trace) e = static_cast<EventId>(rng.NextBounded(5));
    log.AddTrace(std::move(trace));
  }
  std::vector<Pattern> patterns;
  for (EventId a = 0; a < 5; ++a) {
    patterns.push_back(Pattern::Event(a));
    for (EventId b = 0; b < 5; ++b) {
      if (a != b) patterns.push_back(Pattern::Edge(a, b));
    }
  }
  patterns.push_back(Pattern::SeqOfEvents({0, 1, 2}));
  patterns.push_back(Pattern::AndOfEvents({1, 2, 3}));
  patterns.push_back(Pattern::SeqOfEvents({2, 3, 4}));

  // Ground truth from an isolated sequential evaluator.
  FrequencyEvaluator sequential(log);
  std::vector<double> expected;
  expected.reserve(patterns.size());
  for (const Pattern& p : patterns) {
    expected.push_back(sequential.Frequency(p));
  }

  // One shared evaluator with a tight byte ceiling so concurrent
  // inserts also race the eviction path.
  FrequencyEvaluatorOptions options;
  options.max_cache_bytes = 512;
  FrequencyEvaluator shared(log, options);
  obs::Counter evictions;
  shared.set_eviction_counter(&evictions);
  constexpr int kThreads = 8;
  constexpr int kRounds = 25;
  // gtest assertions are not thread-safe: collect, then compare.
  std::vector<std::vector<double>> observed(
      kThreads, std::vector<double>(patterns.size(), -1.0));
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < patterns.size(); ++i) {
          // Different starting offset per thread: maximal overlap of
          // first-time scans, hits, and evictions.
          const std::size_t j = (i + t) % patterns.size();
          observed[t][j] = shared.Frequency(patterns[j]);
        }
      }
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < patterns.size(); ++i) {
      EXPECT_DOUBLE_EQ(observed[t][i], expected[i])
          << "thread " << t << ", pattern " << patterns[i].ToString();
    }
  }
  EXPECT_LE(shared.cache_bytes(), options.max_cache_bytes);
  EXPECT_EQ(evictions.value(), shared.stats().cache_evictions);
}

}  // namespace
}  // namespace hematch
