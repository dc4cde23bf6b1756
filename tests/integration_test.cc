// Cross-module integration tests: the Theorem 1 reduction, end-to-end
// matching on the generated workloads, and the runner plumbing.

#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

#include "baselines/vertex_edge_matcher.h"
#include "common/rng.h"
#include "core/astar_matcher.h"
#include "core/heuristic_advanced_matcher.h"
#include "core/heuristic_simple_matcher.h"
#include "core/pattern_set.h"
#include "eval/runner.h"
#include "gen/bus_process.h"
#include "gen/random_logs.h"
#include "gen/synthetic_process.h"
#include "graph/dependency_graph.h"
#include "graph/subgraph_isomorphism.h"

namespace hematch {
namespace {

// ---------------------------------------------------------------------
// Theorem 1: the reduction from subgraph isomorphism to event matching
// with edge patterns. For graphs G1, G2 we build logs whose traces are
// the edges (plus single-event padding traces), use the edge patterns of
// G1, and check that the optimal pattern normal distance reaches |E1|
// exactly when G1 embeds in G2 — cross-validated against the VF2 search.
// ---------------------------------------------------------------------

struct ReductionInstance {
  EventLog log1;
  EventLog log2;
  std::vector<Pattern> patterns;
};

ReductionInstance BuildReduction(const Digraph& g1, const Digraph& g2) {
  ReductionInstance inst;
  for (std::uint32_t v = 0; v < g1.num_vertices(); ++v) {
    inst.log1.InternEvent(std::string("u").append(std::to_string(v)));
  }
  for (std::uint32_t v = 0; v < g2.num_vertices(); ++v) {
    inst.log2.InternEvent(std::string("w").append(std::to_string(v)));
  }
  for (const auto& [u, v] : g1.edges()) {
    inst.log1.AddTrace({u, v});
    inst.patterns.push_back(Pattern::Edge(u, v));
  }
  for (const auto& [u, v] : g2.edges()) {
    inst.log2.AddTrace({u, v});
  }
  // Pad to equal trace counts with single-event traces (the reduction's
  // |L1| = |L2| requirement); they do not create edges.
  while (inst.log1.num_traces() < inst.log2.num_traces()) {
    inst.log1.AddTrace({0});
  }
  while (inst.log2.num_traces() < inst.log1.num_traces()) {
    inst.log2.AddTrace({0});
  }
  return inst;
}

class Theorem1ReductionTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(Theorem1ReductionTest, OptimalDistanceDetectsEmbedding) {
  Rng rng(GetParam());
  for (int round = 0; round < 6; ++round) {
    const std::size_t n1 = 2 + rng.NextBounded(2);  // 2..3 vertices.
    const std::size_t n2 = n1 + rng.NextBounded(2);
    Digraph g1(n1);
    Digraph g2(n2);
    for (std::uint32_t i = 0; i < n1; ++i) {
      for (std::uint32_t j = 0; j < n1; ++j) {
        if (i != j && rng.NextBool(0.45)) g1.AddEdge(i, j);
      }
    }
    for (std::uint32_t i = 0; i < n2; ++i) {
      for (std::uint32_t j = 0; j < n2; ++j) {
        if (i != j && rng.NextBool(0.5)) g2.AddEdge(i, j);
      }
    }
    if (g1.num_edges() == 0) {
      continue;  // Trivial instance.
    }
    ReductionInstance inst = BuildReduction(g1, g2);
    MatchingContext ctx(inst.log1, inst.log2, inst.patterns);
    const Result<MatchResult> result = AStarMatcher().Match(ctx);
    ASSERT_TRUE(result.ok());

    const bool embeds = IsSubgraphIsomorphic(g1, g2);
    // D^N(M) = |E1| iff every edge pattern maps to an equal-frequency
    // image, i.e., iff G1 embeds in G2 (frequencies are uniform 1/|L|).
    const double full = static_cast<double>(g1.num_edges());
    if (embeds) {
      EXPECT_NEAR(result->objective, full, 1e-9);
    } else {
      EXPECT_LT(result->objective, full - 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem1ReductionTest,
                         ::testing::Values(31, 37, 41, 43, 47, 53));

// ---------------------------------------------------------------------
// End-to-end workload checks.
// ---------------------------------------------------------------------

TEST(EndToEndTest, ExactMatcherRecoversBusGroundTruth) {
  BusProcessOptions options;
  options.num_traces = 1500;
  const MatchingTask task = MakeBusManufacturerTask(options);
  const RunRecord record = RunMatcherOnTask(AStarMatcher(), task);
  ASSERT_TRUE(record.completed) << record.failure;
  EXPECT_DOUBLE_EQ(record.f_measure, 1.0);
}

TEST(EndToEndTest, PatternsBeatVertexEdgeOnProjectedBusTask) {
  // On the full 11-event task several methods tie; the pattern matcher
  // must never be worse than Vertex+Edge across projections.
  BusProcessOptions options;
  options.num_traces = 800;
  const MatchingTask full = MakeBusManufacturerTask(options);
  for (std::size_t events : {5, 7, 9, 11}) {
    const MatchingTask task = ProjectTaskEvents(full, events);
    const RunRecord pattern = RunMatcherOnTask(AStarMatcher(), task);
    const RunRecord ve = RunMatcherOnTask(VertexEdgeMatcher(), task);
    ASSERT_TRUE(pattern.completed);
    ASSERT_TRUE(ve.completed);
    EXPECT_GE(pattern.f_measure + 1e-9, ve.f_measure) << events;
  }
}

TEST(EndToEndTest, HeuristicsCompleteOnSyntheticWorkload) {
  SyntheticProcessOptions options;
  options.num_units = 2;
  options.num_traces = 800;
  const MatchingTask task = MakeSyntheticTask(options);
  const RunRecord simple = RunMatcherOnTask(HeuristicSimpleMatcher(), task);
  const RunRecord advanced =
      RunMatcherOnTask(HeuristicAdvancedMatcher(), task);
  ASSERT_TRUE(simple.completed);
  ASSERT_TRUE(advanced.completed);
  // Both return complete mappings with positive objectives; accuracy on
  // this deliberately ambiguous workload is allowed to be low (Fig. 12),
  // but at least one heuristic must recover part of the truth.
  EXPECT_EQ(simple.mapping.size(), task.log1.num_events());
  EXPECT_EQ(advanced.mapping.size(), task.log1.num_events());
  EXPECT_GT(simple.objective, 0.0);
  EXPECT_GT(advanced.objective, 0.0);
  EXPECT_GT(std::max(simple.f_measure, advanced.f_measure), 0.0);
}

TEST(EndToEndTest, RandomLogsAlwaysYieldSomeMapping) {
  RandomLogsOptions options;
  options.num_traces = 200;
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    options.seed = seed;
    const MatchingTask task = MakeRandomTask(options);
    const RunRecord record = RunMatcherOnTask(AStarMatcher(), task);
    ASSERT_TRUE(record.completed);
    EXPECT_EQ(record.mapping.size(), 4u);
    // No ground truth -> quality metrics stay zero.
    EXPECT_DOUBLE_EQ(record.f_measure, 0.0);
  }
}

TEST(EndToEndTest, RunnerReportsTruncatedRunsGracefully) {
  BusProcessOptions options;
  options.num_traces = 300;
  const MatchingTask task = MakeBusManufacturerTask(options);
  AStarOptions tiny_budget;
  tiny_budget.max_expansions = 1;
  const RunRecord record =
      RunMatcherOnTask(AStarMatcher(tiny_budget), task);
  EXPECT_FALSE(record.completed);
  EXPECT_EQ(record.termination, exec::TerminationReason::kExpansionCap);
  EXPECT_NE(record.failure.find("expansion-cap"), std::string::npos);
  // The anytime mapping is still usable and scored against the truth.
  EXPECT_TRUE(record.mapping.IsComplete());
  EXPECT_GE(record.objective, record.lower_bound - 1e-12);
}

TEST(EndToEndTest, SharedContextReusesCaches) {
  BusProcessOptions options;
  options.num_traces = 500;
  const MatchingTask task = MakeBusManufacturerTask(options);
  const DependencyGraph g1 = DependencyGraph::Build(task.log1);
  MatchingContext ctx(task.log1, task.log2,
                      BuildPatternSet(g1, task.complex_patterns));
  const Mapping* truth = &task.ground_truth;
  const RunRecord first = RunMatcher(AStarMatcher(), ctx, truth);
  const std::uint64_t evals_after_first = ctx.evaluator2_stats().evaluations;
  const RunRecord second = RunMatcher(AStarMatcher(), ctx, truth);
  ASSERT_TRUE(first.completed && second.completed);
  EXPECT_TRUE(first.mapping == second.mapping);
  const std::uint64_t evals_second =
      ctx.evaluator2_stats().evaluations - evals_after_first;
  EXPECT_GT(ctx.evaluator2_stats().cache_hits, 0u);
  EXPECT_LE(evals_second, evals_after_first);
}

}  // namespace
}  // namespace hematch
