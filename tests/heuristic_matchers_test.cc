// Tests for the two heuristics of Section 5, including Proposition 6
// (the advanced heuristic is optimal for vertex patterns).

#include "core/heuristic_advanced_matcher.h"
#include "core/heuristic_simple_matcher.h"

#include <memory>

#include <gtest/gtest.h>

#include "assignment/hungarian.h"
#include "common/rng.h"
#include "core/astar_matcher.h"
#include "core/pattern_set.h"
#include "core/theta_score.h"
#include "graph/dependency_graph.h"

namespace hematch {
namespace {

std::unique_ptr<MatchingContext> RandomInstance(Rng& rng, std::size_t n1,
                                                std::size_t n2,
                                                EventLog& log1,
                                                EventLog& log2,
                                                bool vertex_only) {
  auto fill = [&](EventLog& log, std::size_t n) {
    for (std::size_t v = 0; v < n; ++v) {
      log.InternEvent(std::string("e").append(std::to_string(v)));
    }
    for (int t = 0; t < 30; ++t) {
      Trace trace(1 + rng.NextBounded(6));
      for (EventId& e : trace) {
        e = static_cast<EventId>(rng.NextBounded(n));
      }
      log.AddTrace(std::move(trace));
    }
  };
  fill(log1, n1);
  fill(log2, n2);
  const DependencyGraph g1 = DependencyGraph::Build(log1);
  PatternSetOptions options;
  options.include_edges = !vertex_only;
  std::vector<Pattern> complex;
  if (!vertex_only && n1 >= 3) {
    complex.push_back(Pattern::SeqOfEvents({0, 1, 2}));
  }
  return std::make_unique<MatchingContext>(
      log1, log2, BuildPatternSet(g1, complex, options));
}

TEST(HeuristicSimpleTest, ReturnsCompleteMappingAndObjective) {
  Rng rng(1);
  EventLog log1;
  EventLog log2;
  auto ctx = RandomInstance(rng, 5, 5, log1, log2, /*vertex_only=*/false);
  const HeuristicSimpleMatcher matcher;
  Result<MatchResult> r = matcher.Match(*ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->mapping.IsComplete());
  // n + (n-1) + ... + 1 candidate expansions.
  EXPECT_EQ(r->mappings_processed, 15u);
  MappingScorer scorer(*ctx, {});
  EXPECT_NEAR(r->objective, scorer.ComputeG(r->mapping), 1e-9);
}

TEST(HeuristicSimpleTest, RequiresSourceNotLargerThanTarget) {
  EventLog log1;
  log1.AddTraceByNames({"A", "B"});
  EventLog log2;
  log2.AddTraceByNames({"X"});
  MatchingContext ctx(log1, log2, {Pattern::Event(0)});
  Result<MatchResult> r = HeuristicSimpleMatcher().Match(ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(HeuristicAdvancedTest, ReturnsCompleteMapping) {
  Rng rng(2);
  EventLog log1;
  EventLog log2;
  auto ctx = RandomInstance(rng, 5, 5, log1, log2, /*vertex_only=*/false);
  const HeuristicAdvancedMatcher matcher;
  Result<MatchResult> r = matcher.Match(*ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->mapping.IsComplete());
  EXPECT_GT(r->mappings_processed, 0u);
}

TEST(HeuristicAdvancedTest, PadsWhenTargetSideIsLarger) {
  Rng rng(3);
  EventLog log1;
  EventLog log2;
  auto ctx = RandomInstance(rng, 3, 6, log1, log2, /*vertex_only=*/false);
  const HeuristicAdvancedMatcher matcher;
  Result<MatchResult> r = matcher.Match(*ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->mapping.IsComplete());
  EXPECT_EQ(r->mapping.size(), 3u);
}

TEST(HeuristicAdvancedTest, DeterministicAcrossRuns) {
  Rng rng(4);
  EventLog log1;
  EventLog log2;
  auto ctx = RandomInstance(rng, 6, 6, log1, log2, /*vertex_only=*/false);
  const HeuristicAdvancedMatcher matcher;
  Result<MatchResult> a = matcher.Match(*ctx);
  Result<MatchResult> b = matcher.Match(*ctx);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a->mapping == b->mapping);
}

// Proposition 6: with vertex patterns only (and the absolute theta form,
// under which theta equals the vertex similarity), Algorithm 3 returns
// the optimal matching — cross-checked against Kuhn-Munkres.
class Proposition6Test : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Proposition6Test, AdvancedHeuristicOptimalForVertexPatterns) {
  Rng rng(GetParam());
  EventLog log1;
  EventLog log2;
  const std::size_t n = 4 + rng.NextBounded(4);  // 4..7 events.
  auto ctx = RandomInstance(rng, n, n, log1, log2, /*vertex_only=*/true);

  HeuristicAdvancedOptions options;
  options.theta_form = ThetaForm::kAbsolute;
  const HeuristicAdvancedMatcher matcher(options);
  Result<MatchResult> r = matcher.Match(*ctx);
  ASSERT_TRUE(r.ok());

  const std::vector<std::vector<double>> theta =
      ComputeThetaScores(*ctx, ThetaForm::kAbsolute);
  const AssignmentResult reference = SolveMaxWeightAssignment(theta);
  EXPECT_NEAR(r->objective, reference.total_weight, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Proposition6Test,
                         ::testing::Values(10, 20, 30, 40, 50, 60, 70, 80));

// The advanced heuristic should never return a *worse* objective than the
// simple heuristic on instances where the exact optimum is reachable by
// both; we check it at least ties the exact optimum on easy mirrored
// instances.
TEST(HeuristicAdvancedTest, SolvesMirroredInstanceExactly) {
  EventLog log1;
  log1.AddTraceByNames({"A", "B", "C", "D"});
  log1.AddTraceByNames({"A", "C", "B", "D"});
  log1.AddTraceByNames({"A", "B", "C"});
  EventLog log2;
  log2.AddTraceByNames({"W", "X", "Y", "Z"});
  log2.AddTraceByNames({"W", "Y", "X", "Z"});
  log2.AddTraceByNames({"W", "X", "Y"});
  const DependencyGraph g1 = DependencyGraph::Build(log1);
  std::vector<Pattern> complex;
  {
    std::vector<Pattern> children;
    children.push_back(Pattern::Event(0));
    children.push_back(Pattern::AndOfEvents({1, 2}));
    complex.push_back(Pattern::Seq(std::move(children)).value());
  }
  MatchingContext ctx(log1, log2, BuildPatternSet(g1, complex));

  const Result<MatchResult> exact = AStarMatcher().Match(ctx);
  const Result<MatchResult> advanced = HeuristicAdvancedMatcher().Match(ctx);
  ASSERT_TRUE(exact.ok() && advanced.ok());
  EXPECT_NEAR(advanced->objective, exact->objective, 1e-9);
  EXPECT_TRUE(advanced->mapping == exact->mapping);
}

}  // namespace
}  // namespace hematch
