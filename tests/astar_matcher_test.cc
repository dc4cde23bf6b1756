// Tests for the exact A* matcher (Algorithm 1): optimality against brute
// force, bound equivalence, budgets, and rectangular instances.

#include "core/astar_matcher.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/pattern_set.h"
#include "graph/dependency_graph.h"

namespace hematch {
namespace {

// Exhaustive reference: maximum pattern normal distance over all
// injective mappings.
double BruteForceOptimum(MatchingContext& ctx) {
  MappingScorer scorer(ctx, {});
  const std::size_t n1 = ctx.num_sources();
  const std::size_t n2 = ctx.num_targets();
  std::vector<EventId> targets(n2);
  std::iota(targets.begin(), targets.end(), 0);
  double best = -1.0;
  // All injective mappings = permutations of targets taken n1 at a time;
  // iterate permutations of the full target set and use the prefix.
  std::sort(targets.begin(), targets.end());
  do {
    Mapping m(n1, n2);
    for (EventId v = 0; v < n1; ++v) {
      m.Set(v, targets[v]);
    }
    best = std::max(best, scorer.ComputeG(m));
  } while (std::next_permutation(targets.begin(), targets.end()));
  return best;
}

// Builds a random matching instance over small vocabularies.
std::unique_ptr<MatchingContext> RandomInstance(Rng& rng, std::size_t n1,
                                                std::size_t n2,
                                                EventLog& log1,
                                                EventLog& log2) {
  auto fill = [&](EventLog& log, std::size_t n) {
    for (std::size_t v = 0; v < n; ++v) {
      log.InternEvent(std::string("e").append(std::to_string(v)));
    }
    for (int t = 0; t < 25; ++t) {
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
  std::vector<Pattern> complex;
  if (n1 >= 3) {
    complex.push_back(Pattern::SeqOfEvents({0, 1, 2}));
    complex.push_back(Pattern::AndOfEvents({0, 1}));
  }
  return std::make_unique<MatchingContext>(
      log1, log2, BuildPatternSet(g1, complex));
}

TEST(AStarMatcherTest, NamesFollowBoundKind) {
  EXPECT_EQ(AStarMatcher().name(), "Pattern-Tight");
  AStarOptions simple;
  simple.scorer.bound = BoundKind::kSimple;
  EXPECT_EQ(AStarMatcher(simple).name(), "Pattern-Simple");
  AStarOptions named;
  named.name_override = "Custom";
  EXPECT_EQ(AStarMatcher(named).name(), "Custom");
}

TEST(AStarMatcherTest, RequiresSourceNotLargerThanTarget) {
  EventLog log1;
  log1.AddTraceByNames({"A", "B"});
  EventLog log2;
  log2.AddTraceByNames({"X"});
  MatchingContext ctx(log1, log2, {Pattern::Event(0)});
  const AStarMatcher matcher;
  Result<MatchResult> r = matcher.Match(ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(AStarMatcherTest, FindsPerfectMirrorMapping) {
  EventLog log1;
  log1.AddTraceByNames({"A", "B", "C"});
  log1.AddTraceByNames({"A", "C", "B"});
  log1.AddTraceByNames({"A", "B"});
  EventLog log2;
  log2.AddTraceByNames({"X", "Y", "Z"});
  log2.AddTraceByNames({"X", "Z", "Y"});
  log2.AddTraceByNames({"X", "Y"});
  const DependencyGraph g1 = DependencyGraph::Build(log1);
  MatchingContext ctx(log1, log2, BuildPatternSet(g1, {}));
  const AStarMatcher matcher;
  Result<MatchResult> r = matcher.Match(ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->mapping.TargetOf(0), 0u);
  EXPECT_EQ(r->mapping.TargetOf(1), 1u);
  EXPECT_EQ(r->mapping.TargetOf(2), 2u);
  EXPECT_GT(r->mappings_processed, 0u);
  EXPECT_GT(r->nodes_visited, 0u);
}

TEST(AStarMatcherTest, BudgetExhaustionReturnsAnytimeResult) {
  Rng rng(17);
  EventLog log1;
  EventLog log2;
  auto ctx = RandomInstance(rng, 5, 5, log1, log2);
  AStarOptions options;
  options.max_expansions = 3;
  const AStarMatcher matcher(options);
  Result<MatchResult> r = matcher.Match(*ctx);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->termination, exec::TerminationReason::kExpansionCap);
  EXPECT_FALSE(r->completed());
  // Anytime contract: a complete best-so-far mapping with a certified
  // lower/upper bracket around the (unreached) optimum.
  EXPECT_TRUE(r->mapping.IsComplete());
  EXPECT_TRUE(r->bounds_certified);
  EXPECT_GE(r->objective, r->lower_bound - 1e-12);
  EXPECT_LE(r->lower_bound, r->upper_bound + 1e-12);
}

TEST(AStarMatcherTest, InjectiveIntoLargerTargetSet) {
  Rng rng(23);
  EventLog log1;
  EventLog log2;
  auto ctx = RandomInstance(rng, 3, 5, log1, log2);
  const AStarMatcher matcher;
  Result<MatchResult> r = matcher.Match(*ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->mapping.IsComplete());
  EXPECT_EQ(r->mapping.size(), 3u);
  EXPECT_NEAR(r->objective, BruteForceOptimum(*ctx), 1e-9);
}

TEST(AStarMatcherTest, DeterministicAcrossRuns) {
  Rng rng(29);
  EventLog log1;
  EventLog log2;
  auto ctx = RandomInstance(rng, 4, 4, log1, log2);
  const AStarMatcher matcher;
  Result<MatchResult> a = matcher.Match(*ctx);
  Result<MatchResult> b = matcher.Match(*ctx);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->mapping == b->mapping);
  EXPECT_EQ(a->nodes_visited, b->nodes_visited);
}

// Property: A* (both bounds, all existence modes) returns the brute-force
// optimum objective; tight never processes more mappings than simple.
class AStarOptimalityTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(AStarOptimalityTest, MatchesBruteForceOptimum) {
  Rng rng(GetParam());
  for (int round = 0; round < 4; ++round) {
    EventLog log1;
    EventLog log2;
    const std::size_t n = 3 + rng.NextBounded(3);  // 3..5 events.
    auto ctx = RandomInstance(rng, n, n, log1, log2);
    const double reference = BruteForceOptimum(*ctx);

    AStarOptions tight;
    AStarOptions simple;
    simple.scorer.bound = BoundKind::kSimple;
    AStarOptions no_prune;
    no_prune.scorer.existence = ExistenceCheckMode::kNone;

    const Result<MatchResult> rt = AStarMatcher(tight).Match(*ctx);
    const Result<MatchResult> rs = AStarMatcher(simple).Match(*ctx);
    const Result<MatchResult> rn = AStarMatcher(no_prune).Match(*ctx);
    ASSERT_TRUE(rt.ok() && rs.ok() && rn.ok());
    EXPECT_NEAR(rt->objective, reference, 1e-9);
    EXPECT_NEAR(rs->objective, reference, 1e-9);
    EXPECT_NEAR(rn->objective, reference, 1e-9);
    // The tight bound must prune at least as hard as the simple bound.
    EXPECT_LE(rt->mappings_processed, rs->mappings_processed);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AStarOptimalityTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

}  // namespace
}  // namespace hematch
