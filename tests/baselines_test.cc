// Tests for the four baselines adapted from prior work.

#include "baselines/entropy_matcher.h"
#include "baselines/iterative_matcher.h"
#include "baselines/vertex_edge_matcher.h"
#include "baselines/vertex_matcher.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/normal_distance.h"
#include "core/pattern_set.h"
#include "graph/dependency_graph.h"

namespace hematch {
namespace {

// Mirrored logs: identical structure, disjoint names, truth = identity.
void MakeMirroredLogs(EventLog& log1, EventLog& log2) {
  log1.AddTraceByNames({"A", "B", "C"});
  log1.AddTraceByNames({"A", "C", "B"});
  log1.AddTraceByNames({"A", "B"});
  log1.AddTraceByNames({"A"});
  log2.AddTraceByNames({"X", "Y", "Z"});
  log2.AddTraceByNames({"X", "Z", "Y"});
  log2.AddTraceByNames({"X", "Y"});
  log2.AddTraceByNames({"X"});
}

std::unique_ptr<MatchingContext> MirroredContext(EventLog& log1,
                                                 EventLog& log2) {
  MakeMirroredLogs(log1, log2);
  const DependencyGraph g1 = DependencyGraph::Build(log1);
  return std::make_unique<MatchingContext>(log1, log2,
                                           BuildPatternSet(g1, {}));
}

TEST(VertexMatcherTest, MaximizesVertexNormalDistance) {
  EventLog log1;
  EventLog log2;
  auto ctx = MirroredContext(log1, log2);
  Result<MatchResult> r = VertexMatcher().Match(*ctx);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->mapping.IsComplete());

  // Cross-check optimality by brute force over all 3! mappings.
  std::vector<EventId> perm = {0, 1, 2};
  double best = -1.0;
  std::sort(perm.begin(), perm.end());
  do {
    Mapping m(3, 3);
    for (EventId v = 0; v < 3; ++v) m.Set(v, perm[v]);
    best = std::max(best,
                    VertexNormalDistance(ctx->graph1(), ctx->graph2(), m));
  } while (std::next_permutation(perm.begin(), perm.end()));
  EXPECT_NEAR(r->objective, best, 1e-9);
}

TEST(VertexMatcherTest, MapsDistinctFrequenciesCorrectly) {
  EventLog log1;
  EventLog log2;
  auto ctx = MirroredContext(log1, log2);
  Result<MatchResult> r = VertexMatcher().Match(*ctx);
  ASSERT_TRUE(r.ok());
  // f(A)=1, f(B)=0.75, f(C)=0.5 are all distinct -> identity is forced.
  EXPECT_EQ(r->mapping.TargetOf(0), 0u);
  EXPECT_EQ(r->mapping.TargetOf(1), 1u);
  EXPECT_EQ(r->mapping.TargetOf(2), 2u);
}

TEST(VertexEdgeMatcherTest, SolvesMirroredInstance) {
  EventLog log1;
  EventLog log2;
  auto ctx = MirroredContext(log1, log2);
  Result<MatchResult> r = VertexEdgeMatcher().Match(*ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->mapping.TargetOf(0), 0u);
  EXPECT_EQ(r->mapping.TargetOf(1), 1u);
  EXPECT_EQ(r->mapping.TargetOf(2), 2u);
}

TEST(VertexEdgeMatcherTest, HonorsExpansionBudget) {
  Rng rng(5);
  EventLog log1;
  EventLog log2;
  for (int v = 0; v < 6; ++v) {
    log1.InternEvent(std::string("a").append(std::to_string(v)));
    log2.InternEvent(std::string("b").append(std::to_string(v)));
  }
  for (int t = 0; t < 20; ++t) {
    Trace t1(4);
    Trace t2(4);
    for (auto& e : t1) e = static_cast<EventId>(rng.NextBounded(6));
    for (auto& e : t2) e = static_cast<EventId>(rng.NextBounded(6));
    log1.AddTrace(std::move(t1));
    log2.AddTrace(std::move(t2));
  }
  const DependencyGraph g1 = DependencyGraph::Build(log1);
  MatchingContext ctx(log1, log2, BuildPatternSet(g1, {}));
  VertexEdgeOptions options;
  options.max_expansions = 2;
  Result<MatchResult> r = VertexEdgeMatcher(options).Match(ctx);
  ASSERT_TRUE(r.ok()) << r.status();
  // Anytime semantics: the truncated inner A* still returns a complete
  // best-so-far mapping and names the limit that fired.
  EXPECT_EQ(r->termination, exec::TerminationReason::kExpansionCap);
  EXPECT_FALSE(r->completed());
  EXPECT_TRUE(r->mapping.IsComplete());
}

TEST(IterativeMatcherTest, SolvesMirroredInstance) {
  EventLog log1;
  EventLog log2;
  auto ctx = MirroredContext(log1, log2);
  Result<MatchResult> r = IterativeMatcher().Match(*ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->mapping.TargetOf(0), 0u);
  EXPECT_EQ(r->mapping.TargetOf(1), 1u);
  EXPECT_EQ(r->mapping.TargetOf(2), 2u);
}

TEST(IterativeMatcherTest, SimilaritiesConvergeAndStayBounded) {
  EventLog log1;
  EventLog log2;
  auto ctx = MirroredContext(log1, log2);
  IterativeOptions options;
  options.max_iterations = 200;
  IterativeMatcher matcher(options);
  const auto sim = matcher.ConvergedSimilarities(*ctx);
  ASSERT_EQ(sim.size(), 3u);
  for (const auto& row : sim) {
    for (double cell : row) {
      EXPECT_GE(cell, 0.0);
      EXPECT_LE(cell, 1.0 + 1e-9);
    }
  }
  // The true pair (A, X) dominates its row.
  EXPECT_GE(sim[0][0], sim[0][1]);
  EXPECT_GE(sim[0][0], sim[0][2]);
}

TEST(IterativeMatcherTest, ModesDiffer) {
  EventLog log1;
  EventLog log2;
  auto ctx = MirroredContext(log1, log2);
  IterativeOptions avg;
  avg.mode = PropagationMode::kAverage;
  IterativeOptions maxm;
  maxm.mode = PropagationMode::kMaxMatch;
  const auto sim_avg = IterativeMatcher(avg).ConvergedSimilarities(*ctx);
  const auto sim_max = IterativeMatcher(maxm).ConvergedSimilarities(*ctx);
  // Max-match aggregation dominates averaging pointwise.
  for (std::size_t i = 0; i < sim_avg.size(); ++i) {
    for (std::size_t j = 0; j < sim_avg[i].size(); ++j) {
      EXPECT_GE(sim_max[i][j] + 1e-9, sim_avg[i][j]);
    }
  }
}

TEST(EntropyMatcherTest, MatchesByOccurrenceEntropy) {
  EventLog log1;
  EventLog log2;
  auto ctx = MirroredContext(log1, log2);
  Result<MatchResult> r = EntropyMatcher().Match(*ctx);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->mapping.IsComplete());
  // Entropies: H(1.0)=0, H(0.75)~0.811, H(0.5)=1 — all distinct, so the
  // identity mapping is forced and the total difference is 0.
  EXPECT_EQ(r->mapping.TargetOf(0), 0u);
  EXPECT_EQ(r->mapping.TargetOf(1), 1u);
  EXPECT_EQ(r->mapping.TargetOf(2), 2u);
  EXPECT_NEAR(r->objective, 0.0, 1e-9);
}

TEST(BaselinesTest, AllRejectOversizedSourceSide) {
  EventLog log1;
  log1.AddTraceByNames({"A", "B"});
  EventLog log2;
  log2.AddTraceByNames({"X"});
  MatchingContext ctx(log1, log2, {Pattern::Event(0)});
  EXPECT_FALSE(VertexMatcher().Match(ctx).ok());
  EXPECT_FALSE(IterativeMatcher().Match(ctx).ok());
  EXPECT_FALSE(EntropyMatcher().Match(ctx).ok());
}

}  // namespace
}  // namespace hematch
