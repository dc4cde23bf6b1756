// Tests for the partial-mapping objective: the Mapping ⊥ API, the
// brute-force oracle equivalence of the exact A* under finite
// penalties (the corrected Δ(p,U2) bound must keep certified
// optimality), bit-for-bit equivalence with the classic total
// objective at penalty = ∞, the partial ≥ total − penalties
// dominance property, and the anytime lower/upper brackets under
// partial mappings.

#include <functional>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/astar_matcher.h"
#include "core/heuristic_advanced_matcher.h"
#include "core/heuristic_simple_matcher.h"
#include "core/matching_context.h"
#include "core/pattern_set.h"
#include "baselines/vertex_matcher.h"
#include "exec/budget.h"
#include "graph/dependency_graph.h"
#include "log/event_log.h"

namespace hematch {
namespace {

using exec::FaultInjection;
using exec::TerminationReason;

constexpr double kEps = 1e-9;
constexpr double kInf = std::numeric_limits<double>::infinity();

// Builds a random matching instance over small vocabularies. n1 > n2 is
// allowed — that is the partial objective's reason to exist.
void RandomInstance(Rng& rng, std::size_t n1, std::size_t n2,
                    EventLog& log1, EventLog& log2) {
  auto fill = [&](EventLog& log, std::size_t n, const char* prefix) {
    for (std::size_t v = 0; v < n; ++v) {
      log.InternEvent(std::string(prefix).append(std::to_string(v)));
    }
    for (int t = 0; t < 20; ++t) {
      Trace trace(2 + rng.NextBounded(5));
      for (EventId& e : trace) {
        e = static_cast<EventId>(rng.NextBounded(n));
      }
      log.AddTrace(std::move(trace));
    }
  };
  fill(log1, n1, "s");
  fill(log2, n2, "t");
}

std::vector<Pattern> InstancePatterns(const EventLog& log1) {
  const DependencyGraph g1 = DependencyGraph::Build(log1);
  std::vector<Pattern> complex;
  if (log1.num_events() >= 3) {
    complex.push_back(Pattern::SeqOfEvents({0, 1, 2}));
  }
  complex.push_back(Pattern::AndOfEvents({0, 1}));
  return BuildPatternSet(g1, complex);
}

// Exhaustive reference: maximum partial-objective score over ALL
// partial injective mappings (every source maps to an unused target or
// to ⊥). ComputeG on a fully-decided mapping is exactly the partial
// objective: dead patterns contribute 0 and each ⊥ costs the penalty.
double BruteForcePartialOptimum(MatchingContext& ctx, double penalty) {
  ScorerOptions options;
  options.partial.unmapped_penalty = penalty;
  MappingScorer scorer(ctx, options);
  const std::size_t n1 = ctx.num_sources();
  const std::size_t n2 = ctx.num_targets();
  double best = -kInf;
  Mapping m(n1, n2);
  std::function<void(EventId)> extend = [&](EventId v) {
    if (v == n1) {
      const double score = scorer.ComputeG(m);
      if (score > best) {
        best = score;
      }
      return;
    }
    if (penalty < kInf) {
      m.SetUnmapped(v);
      extend(v + 1);
      m.ClearUnmapped(v);
    }
    for (EventId t = 0; t < n2; ++t) {
      if (m.IsTargetUsed(t)) {
        continue;
      }
      m.Set(v, t);
      extend(v + 1);
      m.Erase(v);
    }
  };
  extend(0);
  return best;
}

TEST(MappingNullTest, NullApiBasics) {
  Mapping m(3, 2);
  EXPECT_FALSE(m.IsComplete());
  m.Set(0, 1);
  m.SetUnmapped(1);
  EXPECT_TRUE(m.IsSourceNull(1));
  EXPECT_TRUE(m.IsSourceDecided(1));
  EXPECT_FALSE(m.IsSourceMapped(1));
  EXPECT_EQ(m.TargetOf(1), kInvalidEventId);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.num_null_sources(), 1u);
  EXPECT_FALSE(m.IsComplete());
  m.SetUnmapped(2);
  EXPECT_TRUE(m.IsComplete());
  EXPECT_EQ(m.NullSources(), (std::vector<EventId>{1, 2}));
  EXPECT_TRUE(m.UnmappedSources().empty());
  m.ClearUnmapped(2);
  EXPECT_FALSE(m.IsComplete());
  EXPECT_EQ(m.UnmappedSources(), (std::vector<EventId>{2}));
}

TEST(MappingNullTest, EqualityDistinguishesNullFromUndecided) {
  Mapping a(2, 2);
  Mapping b(2, 2);
  a.Set(0, 0);
  b.Set(0, 0);
  EXPECT_TRUE(a == b);
  a.SetUnmapped(1);
  EXPECT_FALSE(a == b);
  b.SetUnmapped(1);
  EXPECT_TRUE(a == b);
}

TEST(MappingNullTest, TranslatePatternFailsAcrossNull) {
  Mapping m(2, 2);
  m.Set(0, 1);
  m.SetUnmapped(1);
  EXPECT_TRUE(m.TranslatePattern(Pattern::Event(0)).has_value());
  EXPECT_FALSE(m.TranslatePattern(Pattern::SeqOfEvents({0, 1})).has_value());
}

// The core acceptance property: the exact A* with the corrected
// admissible bound still certifies optimality under finite penalties,
// verified against the exhaustive partial-mapping oracle — including
// rectangular instances both ways and penalty 0.
TEST(PartialMappingTest, AStarMatchesBruteForceOracle) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    // 2-4 sources vs 2-5 targets; n1 > n2 happens regularly.
    const std::size_t n1 = 2 + rng.NextBounded(3);
    const std::size_t n2 = 2 + rng.NextBounded(4);
    EventLog log1;
    EventLog log2;
    RandomInstance(rng, n1, n2, log1, log2);
    const std::vector<Pattern> patterns = InstancePatterns(log1);
    for (const double penalty : {0.0, 0.2, 0.6}) {
      for (const BoundKind bound : {BoundKind::kSimple, BoundKind::kTight}) {
        MatchingContext context(log1, log2, patterns);
        const double oracle = BruteForcePartialOptimum(context, penalty);
        AStarOptions options;
        options.scorer.bound = bound;
        options.scorer.partial.unmapped_penalty = penalty;
        AStarMatcher matcher(options);
        Result<MatchResult> result = matcher.Match(context);
        SCOPED_TRACE("seed " + std::to_string(seed) + " penalty " +
                     std::to_string(penalty) + " bound " +
                     std::to_string(static_cast<int>(bound)));
        ASSERT_TRUE(result.ok()) << result.status();
        EXPECT_EQ(result->termination, TerminationReason::kCompleted);
        EXPECT_TRUE(result->mapping.IsComplete());
        EXPECT_NEAR(result->objective, oracle, kEps);
        // A completed exact run certifies a tight bracket.
        EXPECT_TRUE(result->bounds_certified);
        EXPECT_NEAR(result->lower_bound, oracle, kEps);
        EXPECT_NEAR(result->upper_bound, oracle, kEps);
        // Reported ⊥ bookkeeping matches the mapping.
        EXPECT_EQ(result->unmapped_sources, result->mapping.NullSources());
        EXPECT_NEAR(result->penalty_paid,
                    penalty * static_cast<double>(
                                  result->mapping.num_null_sources()),
                    kEps);
      }
    }
  }
}

// penalty = ∞ must reproduce the classic total objective bit for bit:
// same mapping, same objective, no ⊥ anywhere, across the exact matcher
// and the heuristics.
TEST(PartialMappingTest, InfinitePenaltyReproducesTotalResults) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const std::size_t n1 = 3 + rng.NextBounded(2);
    const std::size_t n2 = n1 + rng.NextBounded(2);
    EventLog log1;
    EventLog log2;
    RandomInstance(rng, n1, n2, log1, log2);
    const std::vector<Pattern> patterns = InstancePatterns(log1);

    auto expect_identical = [&](const Matcher& legacy,
                                const Matcher& partial) {
      MatchingContext c1(log1, log2, patterns);
      MatchingContext c2(log1, log2, patterns);
      Result<MatchResult> r1 = legacy.Match(c1);
      Result<MatchResult> r2 = partial.Match(c2);
      ASSERT_TRUE(r1.ok()) << r1.status();
      ASSERT_TRUE(r2.ok()) << r2.status();
      EXPECT_EQ(r1->objective, r2->objective);  // Bit-for-bit.
      EXPECT_TRUE(r1->mapping == r2->mapping);
      EXPECT_EQ(r2->mapping.num_null_sources(), 0u);
      EXPECT_TRUE(r2->unmapped_sources.empty());
      EXPECT_EQ(r2->penalty_paid, 0.0);
    };

    SCOPED_TRACE("seed " + std::to_string(seed));
    AStarOptions astar_inf;
    astar_inf.scorer.partial.unmapped_penalty = kInf;
    expect_identical(AStarMatcher(), AStarMatcher(astar_inf));

    HeuristicSimpleOptions hs_inf;
    hs_inf.scorer.partial.unmapped_penalty = kInf;
    expect_identical(HeuristicSimpleMatcher(),
                     HeuristicSimpleMatcher(hs_inf));

    HeuristicAdvancedOptions ha_inf;
    ha_inf.scorer.partial.unmapped_penalty = kInf;
    expect_identical(HeuristicAdvancedMatcher(),
                     HeuristicAdvancedMatcher(ha_inf));

    VertexOptions vx_inf;
    vx_inf.partial.unmapped_penalty = kInf;
    expect_identical(VertexMatcher(), VertexMatcher(vx_inf));
  }
}

// A huge finite penalty behaves like the total objective on square /
// wide instances: no source is worth abandoning.
TEST(PartialMappingTest, HugeFinitePenaltyNeverUnmaps) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    const std::size_t n1 = 3;
    const std::size_t n2 = 3 + rng.NextBounded(2);
    EventLog log1;
    EventLog log2;
    RandomInstance(rng, n1, n2, log1, log2);
    const std::vector<Pattern> patterns = InstancePatterns(log1);

    MatchingContext total_context(log1, log2, patterns);
    AStarMatcher total;
    Result<MatchResult> total_result = total.Match(total_context);
    ASSERT_TRUE(total_result.ok());

    AStarOptions options;
    options.scorer.partial.unmapped_penalty = 1e9;
    MatchingContext context(log1, log2, patterns);
    AStarMatcher matcher(options);
    Result<MatchResult> result = matcher.Match(context);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->mapping.num_null_sources(), 0u);
    EXPECT_NEAR(result->objective, total_result->objective, kEps);
  }
}

// Dominance: the optimal partial score is >= the optimal total score
// (any total mapping is a feasible partial mapping with zero ⊥), and
// monotone in the penalty.
TEST(PartialMappingTest, OptimalPartialDominatesOptimalTotal) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const std::size_t n1 = 3;
    const std::size_t n2 = 3 + rng.NextBounded(2);
    EventLog log1;
    EventLog log2;
    RandomInstance(rng, n1, n2, log1, log2);
    const std::vector<Pattern> patterns = InstancePatterns(log1);
    MatchingContext context(log1, log2, patterns);
    const double total = BruteForcePartialOptimum(context, kInf);
    double previous = -kInf;
    for (const double penalty : {0.0, 0.1, 0.5, 2.0}) {
      const double partial = BruteForcePartialOptimum(context, penalty);
      SCOPED_TRACE("seed " + std::to_string(seed) + " penalty " +
                   std::to_string(penalty));
      EXPECT_GE(partial, total - kEps);
      // A larger penalty can only lower the achievable optimum, and
      // penalty 0 dominates everything.
      if (previous != -kInf) {
        EXPECT_LE(partial, previous + kEps);
      }
      previous = partial;
    }
  }
}

// The anytime contract (PR 2) must survive partial mappings: truncated
// runs return complete (⊥-decided) mappings inside certified brackets
// that cover the partial optimum.
TEST(PartialMappingTest, AnytimeBracketsHoldUnderPartial) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const std::size_t n1 = 4;
    const std::size_t n2 = 3 + rng.NextBounded(3);  // 3-5: both shapes.
    EventLog log1;
    EventLog log2;
    RandomInstance(rng, n1, n2, log1, log2);
    const std::vector<Pattern> patterns = InstancePatterns(log1);
    const double penalty = 0.3;

    MatchingContext oracle_context(log1, log2, patterns);
    const double optimum = BruteForcePartialOptimum(oracle_context, penalty);

    AStarOptions options;
    options.scorer.partial.unmapped_penalty = penalty;
    AStarMatcher matcher(options);
    for (std::uint64_t cutoff : {1u, 5u, 25u}) {
      MatchingContext context(log1, log2, patterns);
      FaultInjection fault;
      fault.exhaust_after = cutoff;
      context.governor().InjectFault(fault);
      Result<MatchResult> truncated = matcher.Match(context);
      ASSERT_TRUE(truncated.ok()) << truncated.status();
      const MatchResult& r = *truncated;
      SCOPED_TRACE("seed " + std::to_string(seed) + " cutoff " +
                   std::to_string(cutoff));
      if (r.termination == TerminationReason::kCompleted) {
        EXPECT_NEAR(r.objective, optimum, kEps);
        continue;
      }
      EXPECT_TRUE(r.mapping.IsComplete());
      EXPECT_LE(r.objective, optimum + kEps);
      EXPECT_TRUE(r.bounds_certified);
      EXPECT_GE(r.objective, r.lower_bound - kEps);
      EXPECT_GE(r.upper_bound, optimum - kEps);
      EXPECT_LE(r.lower_bound, r.upper_bound + kEps);
    }
  }
}

}  // namespace
}  // namespace hematch
