// Tests for the trace (It) and pattern (Ip) inverted indices.

#include "freq/inverted_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "freq/log_index.h"

namespace hematch {
namespace {

EventLog MakeLog() {
  EventLog log;
  log.AddTraceByNames({"A", "B"});       // 0
  log.AddTraceByNames({"B", "C", "B"});  // 1 (B twice -> posting once)
  log.AddTraceByNames({"A", "C"});       // 2
  log.AddTraceByNames({"A"});            // 3
  return log;
}

TEST(TraceIndexTest, PostingsAreSortedAndDeduplicated) {
  const EventLog log = MakeLog();
  const LogIndex log_index(log);
  const TraceIndex& index = log_index.postings();
  EXPECT_EQ(index.Postings(0), (std::vector<std::uint32_t>{0, 2, 3}));  // A
  EXPECT_EQ(index.Postings(1), (std::vector<std::uint32_t>{0, 1}));     // B
  EXPECT_EQ(index.Postings(2), (std::vector<std::uint32_t>{1, 2}));     // C
  EXPECT_TRUE(index.Postings(99).empty());
}

TEST(TraceIndexTest, CandidateTracesIntersects) {
  const EventLog log = MakeLog();
  const LogIndex log_index(log);
  const TraceIndex& index = log_index.postings();
  const std::vector<EventId> ab = {0, 1};
  EXPECT_EQ(index.CandidateTraces(ab), (std::vector<std::uint32_t>{0}));
  const std::vector<EventId> bc = {1, 2};
  EXPECT_EQ(index.CandidateTraces(bc), (std::vector<std::uint32_t>{1}));
  const std::vector<EventId> abc = {0, 1, 2};
  EXPECT_TRUE(index.CandidateTraces(abc).empty());
}

TEST(TraceIndexTest, EmptyEventSetYieldsAllTraces) {
  const EventLog log = MakeLog();
  const LogIndex log_index(log);
  const TraceIndex& index = log_index.postings();
  EXPECT_EQ(index.CandidateTraces({}),
            (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST(TraceIndexTest, SingleEvent) {
  const EventLog log = MakeLog();
  const LogIndex log_index(log);
  const TraceIndex& index = log_index.postings();
  const std::vector<EventId> c = {2};
  EXPECT_EQ(index.CandidateTraces(c), index.Postings(2));
}

TEST(TraceIndexTest, CandidateTracesIntoReusesTheBuffer) {
  const EventLog log = MakeLog();
  const LogIndex log_index(log);
  const TraceIndex& index = log_index.postings();
  std::vector<std::uint32_t> out = {7, 7, 7};  // Stale content is cleared.
  const std::vector<EventId> ab = {0, 1};
  index.CandidateTracesInto(ab, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0}));
  const std::vector<EventId> a = {0};
  index.CandidateTracesInto(a, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 2, 3}));
}

// Property: the galloping intersection (seeded from the shortest posting
// list) equals std::set_intersection over all lists, on random logs with
// deliberately skewed event frequencies so the lists differ in length by
// orders of magnitude.
class GallopingIntersectionTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GallopingIntersectionTest, AgreesWithSetIntersection) {
  Rng rng(GetParam());
  EventLog log;
  for (const char* n : {"a", "b", "c", "d"}) log.InternEvent(n);
  for (int t = 0; t < 300; ++t) {
    Trace trace;
    // Event e appears with probability ~2^-e: "a" in nearly every trace,
    // "d" in roughly one in eight.
    for (EventId e = 0; e < 4; ++e) {
      if (rng.NextBounded(1u << e) == 0) {
        trace.push_back(e);
      }
    }
    if (trace.empty()) {
      trace.push_back(0);
    }
    log.AddTrace(std::move(trace));
  }
  const LogIndex log_index(log);
  const TraceIndex& index = log_index.postings();
  const std::vector<std::vector<EventId>> queries = {
      {0, 3}, {3, 0}, {0, 1, 2, 3}, {3, 2, 1, 0}, {1, 3}, {2, 3, 0}};
  for (const std::vector<EventId>& q : queries) {
    std::vector<std::uint32_t> expected = index.Postings(q[0]);
    for (std::size_t i = 1; i < q.size(); ++i) {
      std::vector<std::uint32_t> next;
      const std::vector<std::uint32_t>& other = index.Postings(q[i]);
      std::set_intersection(expected.begin(), expected.end(), other.begin(),
                            other.end(), std::back_inserter(next));
      expected = std::move(next);
    }
    EXPECT_EQ(index.CandidateTraces(q), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GallopingIntersectionTest,
                         ::testing::Values(3, 6, 9, 12, 15));

TEST(TraceIndexTest, EmptyPostingListShortCircuitsIntersection) {
  EventLog log = MakeLog();
  log.InternEvent("GHOST");  // In the vocabulary, in no trace.
  const LogIndex log_index(log);
  const TraceIndex& index = log_index.postings();
  const std::vector<EventId> q = {0, 3};
  EXPECT_TRUE(index.CandidateTraces(q).empty());
}

TEST(PatternIndexTest, MapsEventsToPatterns) {
  // Patterns: 0 -> {A}, 1 -> {A, B}, 2 -> {B, C}.
  const PatternIndex index(3, {{0}, {0, 1}, {1, 2}});
  EXPECT_EQ(index.PatternsInvolving(0), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(index.PatternsInvolving(1), (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(index.PatternsInvolving(2), (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(index.PatternCount(0), 2u);
  EXPECT_EQ(index.PatternCount(2), 1u);
  EXPECT_TRUE(index.PatternsInvolving(99).empty());
}

}  // namespace
}  // namespace hematch
