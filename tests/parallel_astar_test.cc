// Tests for the parallel exact matcher (exec/parallel_astar.h) and the
// shared search reductions (core/search_common.h):
//
//  * Differential: at 1, 2, and 8 worker threads the parallel matcher
//    certifies exactly the sequential A* optimum on seeded random
//    instances (objective equality, not mapping equality — tie-breaks
//    among equal-objective mappings are legitimately run-dependent).
//  * Property: dominance pruning, symmetry breaking, and the
//    bitmap-tight bound each individually never change the certified
//    optimum of the sequential matcher.
//  * Constructed symmetry: interchangeable target labels are detected
//    and the canonical order still reaches the optimum.
//  * Anytime: an expansion cap yields a complete mapping inside
//    certified bounds that bracket the true optimum.

#include "exec/parallel_astar.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/astar_matcher.h"
#include "core/matching_context.h"
#include "core/pattern_set.h"
#include "core/search_common.h"
#include "graph/dependency_graph.h"
#include "log/event_log.h"

namespace hematch {
namespace {

using exec::ParallelAStarMatcher;
using exec::ParallelAStarOptions;
using exec::TerminationReason;

constexpr double kEps = 1e-9;

// A seeded random instance, same shape as the anytime A* property test:
// vocabularies small enough to solve exactly, traces structured enough
// that the bounds and reductions all get exercised.
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

std::vector<Pattern> PatternsFor(const EventLog& log1) {
  std::vector<Pattern> complex;
  complex.push_back(Pattern::SeqOfEvents({0, 1, 2}));
  complex.push_back(Pattern::AndOfEvents({0, 1}));
  return BuildPatternSet(DependencyGraph::Build(log1), complex);
}

// Certified sequential optimum (Pattern-Tight, no reductions) — the
// reference every variant must reproduce.
double SequentialOptimum(const EventLog& log1, const EventLog& log2,
                         const std::vector<Pattern>& patterns) {
  MatchingContext context(log1, log2, patterns);
  AStarMatcher matcher;
  Result<MatchResult> result = matcher.Match(context);
  EXPECT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->termination, TerminationReason::kCompleted);
  EXPECT_TRUE(result->bounds_certified);
  return result->objective;
}

TEST(ParallelAStarTest, MatchesSequentialOptimumAcrossThreadCounts) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    EventLog log1;
    EventLog log2;
    const std::size_t n1 = 4 + rng.NextBounded(2);
    const std::size_t n2 = n1 + rng.NextBounded(2);
    RandomInstance(rng, n1, n2, log1, log2);
    const std::vector<Pattern> patterns = PatternsFor(log1);
    const double optimum = SequentialOptimum(log1, log2, patterns);

    for (int threads : {1, 2, 8}) {
      MatchingContext context(log1, log2, patterns);
      ParallelAStarOptions options;
      options.threads = threads;
      ParallelAStarMatcher matcher(options);
      Result<MatchResult> result = matcher.Match(context);
      ASSERT_TRUE(result.ok())
          << "seed " << seed << " threads " << threads << ": "
          << result.status();
      EXPECT_EQ(result->termination, TerminationReason::kCompleted)
          << "seed " << seed << " threads " << threads;
      EXPECT_TRUE(result->bounds_certified);
      EXPECT_TRUE(result->mapping.IsComplete());
      EXPECT_NEAR(result->objective, optimum, kEps)
          << "seed " << seed << " threads " << threads;
      EXPECT_NEAR(result->lower_bound, result->upper_bound, kEps);
    }
  }
}

// A tiny mailbox forces the hand-off fallback (sender keeps the child
// as a foreign node) and the steal path; the certified optimum must
// survive both.
TEST(ParallelAStarTest, TinyMailboxesStillCertifyTheOptimum) {
  Rng rng(11);
  EventLog log1;
  EventLog log2;
  RandomInstance(rng, 5, 6, log1, log2);
  const std::vector<Pattern> patterns = PatternsFor(log1);
  const double optimum = SequentialOptimum(log1, log2, patterns);

  MatchingContext context(log1, log2, patterns);
  ParallelAStarOptions options;
  options.threads = 4;
  options.mailbox_capacity = 1;
  ParallelAStarMatcher matcher(options);
  Result<MatchResult> result = matcher.Match(context);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->termination, TerminationReason::kCompleted);
  EXPECT_NEAR(result->objective, optimum, kEps);
}

TEST(ParallelAStarTest, ReductionsNeverChangeSequentialOptimum) {
  struct Variant {
    const char* label;
    BoundKind bound;
    bool dominance;
    bool symmetry;
  };
  const Variant variants[] = {
      {"bitmap bound", BoundKind::kBitmapTight, false, false},
      {"dominance", BoundKind::kTight, true, false},
      {"symmetry", BoundKind::kTight, false, true},
      {"all", BoundKind::kBitmapTight, true, true},
  };
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    EventLog log1;
    EventLog log2;
    const std::size_t n1 = 4 + rng.NextBounded(2);
    const std::size_t n2 = n1 + rng.NextBounded(2);
    RandomInstance(rng, n1, n2, log1, log2);
    const std::vector<Pattern> patterns = PatternsFor(log1);
    const double optimum = SequentialOptimum(log1, log2, patterns);

    for (const Variant& v : variants) {
      MatchingContext context(log1, log2, patterns);
      AStarOptions options;
      options.scorer.bound = v.bound;
      options.reductions.dominance_pruning = v.dominance;
      options.reductions.symmetry_breaking = v.symmetry;
      AStarMatcher matcher(options);
      Result<MatchResult> result = matcher.Match(context);
      ASSERT_TRUE(result.ok())
          << "seed " << seed << " variant " << v.label << ": "
          << result.status();
      EXPECT_EQ(result->termination, TerminationReason::kCompleted);
      EXPECT_TRUE(result->bounds_certified);
      EXPECT_NEAR(result->objective, optimum, kEps)
          << "seed " << seed << " variant " << v.label;
    }
  }
}

// Two target labels occupying identical positions across the whole
// trace multiset are interchangeable; the symmetry detector must find
// them, and canonical-order expansion must still reach the optimum.
TEST(ParallelAStarTest, InterchangeableTargetsDetectedAndOptimumKept) {
  EventLog log1;
  log1.AddTraceByNames({"a", "b", "c"});
  log1.AddTraceByNames({"b", "a", "c"});

  // "x" and "y" always co-occur in swap-symmetric positions: every
  // trace containing "x y" has a twin containing "y x".
  EventLog log2;
  log2.AddTraceByNames({"p", "x", "y"});
  log2.AddTraceByNames({"p", "y", "x"});
  log2.AddTraceByNames({"x", "y", "q"});
  log2.AddTraceByNames({"y", "x", "q"});

  const TargetSymmetry symmetry = ComputeTargetSymmetry(log2);
  EXPECT_GE(symmetry.interchangeable_targets, 2u);

  const std::vector<Pattern> patterns = PatternsFor(log1);
  const double optimum = SequentialOptimum(log1, log2, patterns);

  MatchingContext context(log1, log2, patterns);
  ParallelAStarOptions options;
  options.threads = 2;
  ParallelAStarMatcher matcher(options);
  Result<MatchResult> result = matcher.Match(context);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->termination, TerminationReason::kCompleted);
  EXPECT_NEAR(result->objective, optimum, kEps);
}

// Distinct labels must never be merged into one symmetry class: on
// asymmetric logs every class is a singleton.
TEST(ParallelAStarTest, AsymmetricLogHasNoInterchangeableTargets) {
  EventLog log2;
  log2.AddTraceByNames({"u", "v", "w"});
  log2.AddTraceByNames({"u", "w"});
  const TargetSymmetry symmetry = ComputeTargetSymmetry(log2);
  EXPECT_EQ(symmetry.interchangeable_targets, 0u);
  EXPECT_FALSE(symmetry.any());
}

TEST(ParallelAStarTest, ExpansionCapYieldsCertifiedAnytimeResult) {
  Rng rng(3);
  EventLog log1;
  EventLog log2;
  RandomInstance(rng, 5, 6, log1, log2);
  const std::vector<Pattern> patterns = PatternsFor(log1);
  const double optimum = SequentialOptimum(log1, log2, patterns);

  MatchingContext context(log1, log2, patterns);
  ParallelAStarOptions options;
  options.threads = 2;
  options.max_expansions = 5;
  ParallelAStarMatcher matcher(options);
  Result<MatchResult> result = matcher.Match(context);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->termination, TerminationReason::kExpansionCap);
  EXPECT_TRUE(result->bounds_certified);
  EXPECT_TRUE(result->mapping.IsComplete());
  EXPECT_LE(result->lower_bound, optimum + kEps);
  EXPECT_GE(result->upper_bound, optimum - kEps);
  EXPECT_LE(result->objective, optimum + kEps);
  EXPECT_GE(result->objective, result->lower_bound - kEps);
}

TEST(ParallelAStarTest, PartialMappingsMatchSequentialObjective) {
  Rng rng(7);
  EventLog log1;
  EventLog log2;
  RandomInstance(rng, 6, 4, log1, log2);  // |V1| > |V2|: ⊥ is forced.
  const std::vector<Pattern> patterns = PatternsFor(log1);

  ScorerOptions scorer;
  scorer.partial.unmapped_penalty = 0.25;

  MatchingContext seq_context(log1, log2, patterns);
  AStarOptions seq_options;
  seq_options.scorer = scorer;
  AStarMatcher sequential(seq_options);
  Result<MatchResult> seq = sequential.Match(seq_context);
  ASSERT_TRUE(seq.ok()) << seq.status();
  ASSERT_EQ(seq->termination, TerminationReason::kCompleted);

  MatchingContext par_context(log1, log2, patterns);
  ParallelAStarOptions options;
  options.scorer = scorer;
  options.scorer.bound = BoundKind::kBitmapTight;
  options.threads = 2;
  ParallelAStarMatcher parallel(options);
  Result<MatchResult> par = parallel.Match(par_context);
  ASSERT_TRUE(par.ok()) << par.status();
  EXPECT_EQ(par->termination, TerminationReason::kCompleted);
  EXPECT_NEAR(par->objective, seq->objective, kEps);
}

TEST(ParallelAStarTest, RejectsOversizedSourceWithoutPartialMappings) {
  EventLog log1;
  log1.AddTraceByNames({"a", "b", "c"});
  EventLog log2;
  log2.AddTraceByNames({"x", "y"});
  MatchingContext context(log1, log2,
                          BuildPatternSet(DependencyGraph::Build(log1), {}));
  ParallelAStarMatcher matcher;
  Result<MatchResult> result = matcher.Match(context);
  EXPECT_FALSE(result.ok());
}

TEST(ParallelAStarTest, NameReflectsOverrideAndDefault) {
  EXPECT_EQ(ParallelAStarMatcher().name(), "Pattern-Parallel");
  ParallelAStarOptions options;
  options.name_override = "Custom";
  EXPECT_EQ(ParallelAStarMatcher(options).name(), "Custom");
}

}  // namespace
}  // namespace hematch
