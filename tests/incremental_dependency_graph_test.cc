// Tests for the incremental dependency graph: online updates agree with
// batch construction at every prefix.

#include "graph/incremental_dependency_graph.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "log/projection.h"

namespace hematch {
namespace {

TEST(IncrementalDependencyGraphTest, EmptyState) {
  IncrementalDependencyGraph g;
  EXPECT_EQ(g.num_traces(), 0u);
  EXPECT_DOUBLE_EQ(g.VertexFrequency(0), 0.0);
  EXPECT_DOUBLE_EQ(g.EdgeFrequency(0, 1), 0.0);
  const DependencyGraph snapshot = g.Snapshot();
  EXPECT_EQ(snapshot.num_edges(), 0u);
}

TEST(IncrementalDependencyGraphTest, SingleTrace) {
  IncrementalDependencyGraph g;
  g.AddTrace({0, 1, 0, 1});
  EXPECT_EQ(g.num_traces(), 1u);
  EXPECT_EQ(g.num_events(), 2u);
  EXPECT_DOUBLE_EQ(g.VertexFrequency(0), 1.0);
  EXPECT_DOUBLE_EQ(g.EdgeFrequency(0, 1), 1.0);  // Counted once per trace.
  EXPECT_DOUBLE_EQ(g.EdgeFrequency(1, 0), 1.0);
  EXPECT_EQ(g.EdgeSupport(0, 1), 1u);
}

TEST(IncrementalDependencyGraphTest, FrequenciesRenormalizePerTrace) {
  IncrementalDependencyGraph g;
  g.AddTrace({0, 1});
  EXPECT_DOUBLE_EQ(g.EdgeFrequency(0, 1), 1.0);
  g.AddTrace({1});
  EXPECT_DOUBLE_EQ(g.EdgeFrequency(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(g.VertexFrequency(1), 1.0);
  g.AddTrace({0});
  EXPECT_NEAR(g.EdgeFrequency(0, 1), 1.0 / 3.0, 1e-12);
}

TEST(IncrementalDependencyGraphTest, VocabularyGrowsOnDemand) {
  IncrementalDependencyGraph g;
  g.AddTrace({0});
  EXPECT_EQ(g.num_events(), 1u);
  g.AddTrace({5, 6});
  EXPECT_EQ(g.num_events(), 7u);
  EXPECT_DOUBLE_EQ(g.VertexFrequency(5), 0.5);
}

// Property: at every prefix of a random log, the incremental state's
// snapshot equals DependencyGraph::Build over that prefix.
class IncrementalAgreementTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalAgreementTest, SnapshotMatchesBatchAtEveryPrefix) {
  Rng rng(GetParam());
  EventLog log;
  const std::size_t n = 3 + rng.NextBounded(4);
  for (std::size_t v = 0; v < n; ++v) {
    log.InternEvent(std::string("e").append(std::to_string(v)));
  }
  for (int t = 0; t < 25; ++t) {
    Trace trace(1 + rng.NextBounded(7));
    for (EventId& e : trace) {
      e = static_cast<EventId>(rng.NextBounded(n));
    }
    log.AddTrace(std::move(trace));
  }

  IncrementalDependencyGraph incremental;
  incremental.EnsureEvents(log.num_events());
  for (std::size_t prefix = 1; prefix <= log.num_traces(); ++prefix) {
    incremental.AddTrace(log.traces()[prefix - 1]);
    if (prefix % 5 != 0 && prefix != log.num_traces()) {
      continue;  // Check every 5th prefix and the final state.
    }
    const DependencyGraph batch =
        DependencyGraph::Build(SelectFirstTraces(log, prefix));
    const DependencyGraph snapshot = incremental.Snapshot();
    ASSERT_EQ(snapshot.num_vertices(), batch.num_vertices());
    ASSERT_EQ(snapshot.num_edges(), batch.num_edges());
    EXPECT_EQ(snapshot.edges(), batch.edges());
    for (EventId u = 0; u < n; ++u) {
      EXPECT_DOUBLE_EQ(snapshot.VertexFrequency(u), batch.VertexFrequency(u));
      EXPECT_DOUBLE_EQ(incremental.VertexFrequency(u),
                       batch.VertexFrequency(u));
      for (EventId v = 0; v < n; ++v) {
        EXPECT_DOUBLE_EQ(snapshot.EdgeFrequency(u, v),
                         batch.EdgeFrequency(u, v));
        EXPECT_DOUBLE_EQ(incremental.EdgeFrequency(u, v),
                         batch.EdgeFrequency(u, v));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalAgreementTest,
                         ::testing::Values(2, 4, 8, 16, 32, 64));

}  // namespace
}  // namespace hematch
