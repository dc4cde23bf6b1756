// Tests for the g/h scoring machinery shared by all framework matchers.

#include "core/mapping_scorer.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/pattern_set.h"
#include "graph/dependency_graph.h"

namespace hematch {
namespace {

// Two tiny logs where the true mapping is A->X, B->Y, C->Z.
class MappingScorerTest : public ::testing::Test {
 protected:
  MappingScorerTest() {
    log1_.AddTraceByNames({"A", "B", "C"});
    log1_.AddTraceByNames({"A", "B"});
    log2_.AddTraceByNames({"X", "Y", "Z"});
    log2_.AddTraceByNames({"X", "Y"});
    std::vector<Pattern> patterns;
    patterns.push_back(Pattern::Event(0));         // A, f1 = 1.
    patterns.push_back(Pattern::Event(2));         // C, f1 = 0.5.
    patterns.push_back(Pattern::Edge(0, 1));       // AB, f1 = 1.
    patterns.push_back(Pattern::SeqOfEvents({0, 1, 2}));  // ABC, f1 = 0.5.
    ctx_ = std::make_unique<MatchingContext>(log1_, log2_,
                                             std::move(patterns));
  }

  EventLog log1_;
  EventLog log2_;
  std::unique_ptr<MatchingContext> ctx_;
};

TEST_F(MappingScorerTest, MappedEventCount) {
  MappingScorer scorer(*ctx_, {});
  Mapping m(3, 3);
  EXPECT_EQ(scorer.MappedEventCount(3, m), 0u);
  m.Set(0, 0);
  EXPECT_EQ(scorer.MappedEventCount(3, m), 1u);
  m.Set(2, 2);
  EXPECT_EQ(scorer.MappedEventCount(3, m), 2u);
  EXPECT_EQ(scorer.MappedEventCount(0, m), 1u);
}

TEST_F(MappingScorerTest, GOfTrueMappingCountsAllPatterns) {
  MappingScorer scorer(*ctx_, {});
  Mapping truth(3, 3);
  truth.Set(0, 0);
  truth.Set(1, 1);
  truth.Set(2, 2);
  // Every pattern maps to its mirror with identical frequency -> d = 1.
  EXPECT_NEAR(scorer.ComputeG(truth), 4.0, 1e-12);
  EXPECT_NEAR(scorer.ComputeH(truth), 0.0, 1e-12);
}

TEST_F(MappingScorerTest, GOfPartialMappingCountsCompletedOnly) {
  MappingScorer scorer(*ctx_, {});
  Mapping m(3, 3);
  m.Set(0, 0);
  // Completed: vertex A only.
  EXPECT_NEAR(scorer.ComputeG(m), 1.0, 1e-12);
  m.Set(1, 1);
  // Now also edge AB.
  EXPECT_NEAR(scorer.ComputeG(m), 2.0, 1e-12);
}

TEST_F(MappingScorerTest, ScoreSplitsGAndH) {
  MappingScorer scorer(*ctx_, {});
  Mapping m(3, 3);
  m.Set(0, 0);
  const MappingScorer::Score score = scorer.ComputeScore(m);
  EXPECT_NEAR(score.g, scorer.ComputeG(m), 1e-12);
  EXPECT_NEAR(score.h, scorer.ComputeH(m), 1e-12);
  EXPECT_NEAR(score.total(), score.g + score.h, 1e-12);
}

TEST_F(MappingScorerTest, SimpleBoundCountsRemainingPatterns) {
  ScorerOptions options;
  options.bound = BoundKind::kSimple;
  MappingScorer scorer(*ctx_, options);
  Mapping empty(3, 3);
  EXPECT_NEAR(scorer.ComputeH(empty), 4.0, 1e-12);
  Mapping m(3, 3);
  m.Set(0, 0);
  EXPECT_NEAR(scorer.ComputeH(m), 3.0, 1e-12);  // Vertex A completed.
}

TEST_F(MappingScorerTest, TightBoundNeverExceedsSimpleBound) {
  MappingScorer tight(*ctx_, {});
  ScorerOptions simple_options;
  simple_options.bound = BoundKind::kSimple;
  MappingScorer simple(*ctx_, simple_options);
  Rng rng(5);
  for (int round = 0; round < 20; ++round) {
    Mapping m(3, 3);
    std::vector<EventId> targets = {0, 1, 2};
    rng.Shuffle(targets);
    const std::size_t pairs = rng.NextBounded(4);
    for (std::size_t i = 0; i < pairs; ++i) {
      m.Set(static_cast<EventId>(i), targets[i]);
    }
    EXPECT_LE(tight.ComputeH(m), simple.ComputeH(m) + 1e-12);
  }
}

TEST_F(MappingScorerTest, ComputeHForRemainingMatchesFullScan) {
  MappingScorer scorer(*ctx_, {});
  Mapping m(3, 3);
  m.Set(0, 1);
  // Remaining (incomplete) patterns under m: vertex C (1), edge AB (2),
  // SEQ ABC (3). Vertex A (0) is complete.
  const double full = scorer.ComputeH(m);
  const double listed = scorer.ComputeHForRemaining(m, {1, 2, 3});
  EXPECT_NEAR(full, listed, 1e-12);
}

TEST_F(MappingScorerTest, GPlusHBoundsTheBestCompletion) {
  // Core A* invariant: g + h of a partial mapping upper-bounds the
  // objective of every completion.
  MappingScorer scorer(*ctx_, {});
  Mapping partial(3, 3);
  partial.Set(0, 0);
  const double upper = scorer.ComputeScore(partial).total();
  // Enumerate all completions.
  const EventId rest1[] = {1, 2};
  const EventId choices[2][2] = {{1, 2}, {2, 1}};
  for (const auto& choice : choices) {
    Mapping complete = partial;
    complete.Set(rest1[0], choice[0]);
    complete.Set(rest1[1], choice[1]);
    EXPECT_GE(upper + 1e-12, scorer.ComputeG(complete));
  }
}

// Differential: the scorer derives h from the mapping and the graph's
// frequency-sorted orders; the reference below recomputes every Δ from
// scratch from explicit target lists. They must agree to the last bit.
class MappingScorerDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

// Δ(p, M(V(p) \ U1) ∪ U2) from first principles.
double ReferenceDelta(MatchingContext& ctx, const ScorerOptions& options,
                      std::size_t pid, const Mapping& m) {
  const Pattern& p = ctx.patterns()[pid];
  for (EventId v : p.events()) {
    if (options.partial.enabled() && m.IsSourceNull(v)) {
      return 0.0;  // Dead pattern.
    }
  }
  if (options.bound == BoundKind::kSimple) {
    return 1.0;
  }
  const std::vector<EventId> unused = m.UnusedTargets();
  std::vector<EventId> fixed;
  for (EventId v : p.events()) {
    if (m.IsSourceMapped(v)) {
      fixed.push_back(m.TargetOf(v));
    }
  }
  if (p.size() > unused.size() + fixed.size()) {
    return 0.0;
  }
  std::vector<EventId> reachable = unused;
  reachable.insert(reachable.end(), fixed.begin(), fixed.end());
  double f2_cap = std::numeric_limits<double>::infinity();
  if (options.bound == BoundKind::kBitmapTight && p.size() >= 2) {
    const CooccurrenceIndex& cooc = ctx.cooccurrence2();
    for (std::size_t i = 0; i < fixed.size(); ++i) {
      for (std::size_t j = i + 1; j < fixed.size(); ++j) {
        f2_cap = std::min(f2_cap, cooc.At(fixed[i], fixed[j]));
      }
    }
    if (p.size() > fixed.size() && !fixed.empty()) {
      for (EventId t : fixed) {
        double best = 0.0;
        for (EventId u : unused) {
          best = std::max(best, cooc.At(t, u));
        }
        f2_cap = std::min(f2_cap, best);
      }
    }
    if (p.size() >= fixed.size() + 2) {
      f2_cap = std::min(f2_cap, cooc.MaxPairAmong(unused));
    }
  }
  return TightUpperBound(p, ctx.PatternFrequency1(pid),
                         ComputeCeilings(ctx.graph2(), reachable), f2_cap);
}

double ReferenceH(MatchingContext& ctx, const ScorerOptions& options,
                  const Mapping& m) {
  double h = 0.0;
  for (std::size_t pid = 0; pid < ctx.num_patterns(); ++pid) {
    bool complete = true;
    for (EventId v : ctx.patterns()[pid].events()) {
      complete = complete && m.IsSourceMapped(v);
    }
    if (!complete) {
      h += ReferenceDelta(ctx, options, pid, m);
    }
  }
  const std::size_t undecided =
      m.num_sources() - m.size() - m.num_null_sources();
  const std::size_t num_unused = m.UnusedTargets().size();
  if (options.partial.enabled() && undecided > num_unused) {
    h -= options.partial.unmapped_penalty *
         static_cast<double>(undecided - num_unused);
  }
  return h;
}

// A random log over `n` events whose traces repeat events, so the graph
// carries self-loops.
void FillLog(Rng& rng, std::size_t n, const char* prefix, EventLog& log) {
  for (std::size_t v = 0; v < n; ++v) {
    log.InternEvent(std::string(prefix).append(std::to_string(v)));
  }
  for (int t = 0; t < 30; ++t) {
    Trace trace(1 + rng.NextBounded(7));
    for (EventId& e : trace) {
      e = static_cast<EventId>(rng.NextBounded(n));
    }
    if (trace.size() >= 2 && rng.NextBool(0.3)) {
      trace[1] = trace[0];
    }
    log.AddTrace(std::move(trace));
  }
}

TEST_P(MappingScorerDifferentialTest, HMatchesFromScratchReference) {
  Rng rng(GetParam());
  // |V1| < |V2|, |V1| = |V2| and, with partial mappings, |V1| > |V2|
  // (which is how U2 runs empty while patterns are still open).
  const std::size_t shapes[][2] = {{4, 7}, {5, 5}, {7, 4}};
  for (const auto& shape : shapes) {
    EventLog log1;
    EventLog log2;
    FillLog(rng, shape[0], "s", log1);
    FillLog(rng, shape[1], "t", log2);
    std::vector<Pattern> complex = {Pattern::SeqOfEvents({0, 1, 2}),
                                    Pattern::AndOfEvents({1, 2, 3})};
    MatchingContext ctx(log1, log2,
                        BuildPatternSet(DependencyGraph::Build(log1), complex));
    const bool rectangular = shape[0] > shape[1];
    for (BoundKind bound :
         {BoundKind::kSimple, BoundKind::kTight, BoundKind::kBitmapTight}) {
      ScorerOptions options;
      options.bound = bound;
      if (rectangular || rng.NextBool(0.5)) {
        options.partial.unmapped_penalty = 0.25;
      }
      MappingScorer scorer(ctx, options);
      for (int round = 0; round < 40; ++round) {
        // Decide a random prefix of a random source order: each source
        // takes a random unused target or, with partial mappings, ⊥.
        Mapping m(shape[0], shape[1]);
        std::vector<EventId> sources(shape[0]);
        std::vector<EventId> targets(shape[1]);
        for (EventId v = 0; v < sources.size(); ++v) sources[v] = v;
        for (EventId t = 0; t < targets.size(); ++t) targets[t] = t;
        rng.Shuffle(sources);
        rng.Shuffle(targets);
        const std::size_t decide = rng.NextBounded(shape[0] + 1);
        std::size_t next_target = 0;
        for (std::size_t i = 0; i < decide; ++i) {
          if (options.partial.enabled() &&
              (next_target == targets.size() || rng.NextBool(0.25))) {
            m.SetUnmapped(sources[i]);
          } else if (next_target < targets.size()) {
            m.Set(sources[i], targets[next_target++]);
          }
        }
        std::vector<std::uint32_t> remaining;
        for (std::uint32_t pid = 0; pid < ctx.num_patterns(); ++pid) {
          if (scorer.MappedEventCount(pid, m) != ctx.patterns()[pid].size()) {
            remaining.push_back(pid);
          }
        }
        const double want = ReferenceH(ctx, options, m);
        EXPECT_EQ(scorer.ComputeH(m), want) << m.ToString();
        EXPECT_EQ(scorer.ComputeHForRemaining(m, remaining), want);
        EXPECT_EQ(scorer.ComputeScore(m).h, want);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MappingScorerDifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(UnusedTargetCeilingsTest, EmptyU2AndSelfLoops) {
  EventLog log;
  log.AddTraceByNames({"X", "X", "Y"});
  log.AddTraceByNames({"Z"});
  const DependencyGraph g = DependencyGraph::Build(log);
  Mapping m(3, 3);
  FrequencyCeilings c = UnusedTargetCeilings(g, m);
  EXPECT_EQ(c.max_vertex, 0.5);
  EXPECT_EQ(c.max_edge, 0.5);  // XX and XY.
  m.Set(0, 0);                 // X leaves U2, and with it the self-loop.
  c = UnusedTargetCeilings(g, m);
  EXPECT_EQ(c.max_vertex, 0.5);
  EXPECT_EQ(c.max_edge, 0.0);
  m.Set(1, 1);
  m.Set(2, 2);  // U2 is empty.
  c = UnusedTargetCeilings(g, m);
  EXPECT_EQ(c.max_vertex, 0.0);
  EXPECT_EQ(c.max_edge, 0.0);
}

}  // namespace
}  // namespace hematch
