// Tests for the word-level bitmap form of the trace inverted index.

#include "freq/bitmap_index.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <vector>

#include "common/rng.h"
#include "freq/inverted_index.h"
#include "freq/log_index.h"

namespace hematch {
namespace {

EventLog MakeLog() {
  EventLog log;
  log.AddTraceByNames({"A", "B"});       // 0
  log.AddTraceByNames({"B", "C", "B"});  // 1
  log.AddTraceByNames({"A", "C"});       // 2
  log.AddTraceByNames({"A"});            // 3
  return log;
}

std::vector<std::uint32_t> DecodeBits(const std::vector<std::uint64_t>& words) {
  std::vector<std::uint32_t> traces;
  for (std::size_t w = 0; w < words.size(); ++w) {
    std::uint64_t word = words[w];
    while (word != 0) {
      traces.push_back(static_cast<std::uint32_t>(w * 64) +
                       static_cast<std::uint32_t>(std::countr_zero(word)));
      word &= word - 1;
    }
  }
  return traces;
}

TEST(BitmapTraceIndexTest, RowsMirrorPostingLists) {
  const EventLog log = MakeLog();
  const LogIndex index(log);
  const BitmapTraceIndex& bitmap = index.bitmap();
  const TraceIndex& postings = index.postings();
  EXPECT_EQ(bitmap.num_traces(), 4u);
  EXPECT_EQ(bitmap.words_per_row(), 1u);
  for (EventId v = 0; v < log.num_events(); ++v) {
    const std::span<const std::uint64_t> row = bitmap.Row(v);
    const std::vector<std::uint64_t> words(row.begin(), row.end());
    EXPECT_EQ(DecodeBits(words), postings.Postings(v)) << "event " << v;
  }
}

TEST(BitmapTraceIndexTest, OutOfVocabularyRowIsEmpty) {
  const EventLog log = MakeLog();
  const LogIndex index(log);
  const BitmapTraceIndex& bitmap = index.bitmap();
  EXPECT_TRUE(bitmap.Row(99).empty());
  std::vector<std::uint64_t> out;
  const std::vector<EventId> events = {0, 99};
  EXPECT_FALSE(bitmap.IntersectInto(events, out));
  EXPECT_TRUE(DecodeBits(out).empty());
}

TEST(BitmapTraceIndexTest, EmptyEventSetSelectsEveryTraceWithMaskedTail) {
  // 70 traces straddle a word boundary: the tail word must not leak bits
  // beyond trace 69.
  EventLog log;
  for (int t = 0; t < 70; ++t) {
    log.AddTraceByNames({"A"});
  }
  const LogIndex index(log);
  const BitmapTraceIndex& bitmap = index.bitmap();
  EXPECT_EQ(bitmap.words_per_row(), 2u);
  std::vector<std::uint64_t> out;
  EXPECT_TRUE(bitmap.IntersectInto({}, out));
  EXPECT_EQ(DecodeBits(out).size(), 70u);
  EXPECT_EQ(DecodeBits(out).back(), 69u);
}

TEST(BitmapTraceIndexTest, IntersectMatchesPostingListIntersection) {
  const EventLog log = MakeLog();
  const LogIndex index(log);
  const BitmapTraceIndex& bitmap = index.bitmap();
  const TraceIndex& postings = index.postings();
  std::vector<std::uint64_t> out;
  const std::vector<std::vector<EventId>> queries = {
      {0}, {1}, {0, 1}, {1, 2}, {0, 1, 2}, {2, 0}};
  std::uint64_t words_anded = 0;
  for (const std::vector<EventId>& q : queries) {
    const bool any = bitmap.IntersectInto(q, out, &words_anded);
    const std::vector<std::uint32_t> expected = postings.CandidateTraces(q);
    EXPECT_EQ(DecodeBits(out), expected);
    EXPECT_EQ(any, !expected.empty());
  }
  // One word per row read: the first row of each query plus one per AND.
  EXPECT_EQ(words_anded, 11u);
}

// Property: on random logs the bitmap intersection decodes to exactly the
// posting-list intersection, for every word-boundary-straddling log size.
class BitmapEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BitmapEquivalenceTest, AgreesWithPostingLists) {
  Rng rng(GetParam());
  EventLog log;
  for (const char* n : {"a", "b", "c", "d", "e", "f"}) log.InternEvent(n);
  // Sizes around the 64-trace word boundary included on purpose.
  const std::size_t num_traces = 1 + rng.NextBounded(140);
  for (std::size_t t = 0; t < num_traces; ++t) {
    Trace trace(1 + rng.NextBounded(6));
    for (EventId& e : trace) e = static_cast<EventId>(rng.NextBounded(6));
    log.AddTrace(std::move(trace));
  }
  const LogIndex index(log);
  const BitmapTraceIndex& bitmap = index.bitmap();
  const TraceIndex& postings = index.postings();
  std::vector<std::uint64_t> out;
  for (int round = 0; round < 40; ++round) {
    std::set<EventId> unique;
    const std::size_t k = 1 + rng.NextBounded(4);
    while (unique.size() < k) {
      unique.insert(static_cast<EventId>(rng.NextBounded(7)));  // 6 = OOV.
    }
    const std::vector<EventId> events(unique.begin(), unique.end());
    bitmap.IntersectInto(events, out);
    EXPECT_EQ(DecodeBits(out), postings.CandidateTraces(events))
        << "num_traces=" << num_traces;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitmapEquivalenceTest,
                         ::testing::Values(7, 14, 21, 28, 35, 42));

}  // namespace
}  // namespace hematch
