// Property test for anytime A*: across seeded random instances, a
// budget-truncated run must return a complete mapping whose score is
//   (a) no better than the unbudgeted optimum,
//   (b) no worse than its own reported lower bound, and
//   (c) bracketed by a certified upper bound that covers the optimum.

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/astar_matcher.h"
#include "core/matching_context.h"
#include "core/pattern_set.h"
#include "exec/budget.h"
#include "graph/dependency_graph.h"
#include "log/event_log.h"

namespace hematch {
namespace {

using exec::FaultInjection;
using exec::TerminationReason;

constexpr double kEps = 1e-9;

// Builds a random matching instance over small vocabularies (small
// enough that the unbudgeted A* terminates instantly, structured enough
// that truncation actually bites).
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

TEST(AnytimeAStarTest, TruncatedRunsStayWithinCertifiedBounds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    EventLog log1;
    EventLog log2;
    const std::size_t n1 = 4 + rng.NextBounded(2);  // 4-5 sources.
    const std::size_t n2 = n1 + rng.NextBounded(2);
    RandomInstance(rng, n1, n2, log1, log2);
    const DependencyGraph g1 = DependencyGraph::Build(log1);
    std::vector<Pattern> complex;
    complex.push_back(Pattern::SeqOfEvents({0, 1, 2}));
    complex.push_back(Pattern::AndOfEvents({0, 1}));
    const std::vector<Pattern> patterns = BuildPatternSet(g1, complex);

    // Reference: the unbudgeted optimum on a fresh context.
    MatchingContext full_context(log1, log2, patterns);
    AStarMatcher matcher;
    Result<MatchResult> full = matcher.Match(full_context);
    ASSERT_TRUE(full.ok()) << "seed " << seed << ": " << full.status();
    ASSERT_EQ(full->termination, TerminationReason::kCompleted);
    const double optimum = full->objective;

    // Truncate at several expansion counts, from "almost nothing" up.
    for (std::uint64_t cutoff : {1u, 3u, 10u, 50u}) {
      MatchingContext context(log1, log2, patterns);
      // The fault is single-shot, so each run re-injects its own.
      FaultInjection fault;
      fault.exhaust_after = cutoff;
      context.governor().InjectFault(fault);
      Result<MatchResult> truncated = matcher.Match(context);
      ASSERT_TRUE(truncated.ok())
          << "seed " << seed << " cutoff " << cutoff << ": "
          << truncated.status();
      const MatchResult& r = *truncated;
      SCOPED_TRACE("seed " + std::to_string(seed) + " cutoff " +
                   std::to_string(cutoff));
      if (r.termination == TerminationReason::kCompleted) {
        // The search finished before the cutoff; nothing to bound.
        EXPECT_NEAR(r.objective, optimum, kEps);
        continue;
      }
      EXPECT_EQ(r.termination, TerminationReason::kExpansionCap);
      // Anytime contract: a usable, complete mapping...
      EXPECT_TRUE(r.mapping.IsComplete());
      // ...whose exact score never beats the optimum...
      EXPECT_LE(r.objective, optimum + kEps);
      // ...matches its own reported lower bound...
      EXPECT_TRUE(r.bounds_certified);
      EXPECT_GE(r.objective, r.lower_bound - kEps);
      // ...and sits inside a bracket that still covers the optimum.
      EXPECT_GE(r.upper_bound, optimum - kEps);
      EXPECT_LE(r.lower_bound, r.upper_bound + kEps);
    }
  }
}

TEST(AnytimeAStarTest, CompletedRunsReportATightCertifiedBracket) {
  // When the search finishes, the "anytime" bracket collapses onto the
  // optimum: lower == objective == upper, certified.
  Rng rng(99);
  EventLog log1;
  EventLog log2;
  RandomInstance(rng, 5, 6, log1, log2);
  const DependencyGraph g1 = DependencyGraph::Build(log1);
  MatchingContext context(log1, log2, BuildPatternSet(g1, {}));
  AStarMatcher matcher;
  Result<MatchResult> result = matcher.Match(context);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->termination, TerminationReason::kCompleted);
  EXPECT_TRUE(result->bounds_certified);
  EXPECT_NEAR(result->lower_bound, result->objective, kEps);
  EXPECT_NEAR(result->upper_bound, result->objective, kEps);
}

}  // namespace
}  // namespace hematch