// Tests for the one-call MatchLogs facade.

#include "api/match_pipeline.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "eval/metrics.h"
#include "gen/bus_process.h"

namespace hematch {
namespace {

MatchingTask SmallTask() {
  BusProcessOptions options;
  options.num_traces = 400;
  return MakeBusManufacturerTask(options);
}

TEST(MatchPipelineTest, DefaultMethodRecoversTruth) {
  const MatchingTask task = SmallTask();
  MatchPipelineOptions options;
  for (const Pattern& p : task.complex_patterns) {
    options.patterns.push_back(p.ToString(&task.log1.dictionary()));
  }
  Result<MatchPipelineOutcome> outcome =
      MatchLogs(task.log1, task.log2, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_FALSE(outcome->swapped);
  EXPECT_EQ(outcome->used_patterns.size(), 3u);
  const MatchQuality quality =
      EvaluateMapping(outcome->result.mapping, task.ground_truth);
  EXPECT_DOUBLE_EQ(quality.f_measure, 1.0);
}

TEST(MatchPipelineTest, EveryMethodProducesACompleteMapping) {
  const MatchingTask task = SmallTask();
  for (MatchMethod method :
       {MatchMethod::kPatternTight, MatchMethod::kPatternSimple,
        MatchMethod::kHeuristicSimple, MatchMethod::kHeuristicAdvanced,
        MatchMethod::kVertex, MatchMethod::kVertexEdge,
        MatchMethod::kIterative, MatchMethod::kEntropy}) {
    MatchPipelineOptions options;
    options.method = method;
    Result<MatchPipelineOutcome> outcome =
        MatchLogs(task.log1, task.log2, options);
    ASSERT_TRUE(outcome.ok()) << static_cast<int>(method);
    EXPECT_TRUE(outcome->result.mapping.IsComplete());
  }
}

TEST(MatchPipelineTest, SwapsWhenSourceIsLarger) {
  EventLog small;
  small.AddTraceByNames({"x", "y"});
  EventLog large;
  large.AddTraceByNames({"a", "b", "c"});
  Result<MatchPipelineOutcome> outcome = MatchLogs(large, small);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->swapped);
  EXPECT_EQ(outcome->result.mapping.num_sources(), 2u);
  EXPECT_EQ(outcome->result.mapping.num_targets(), 3u);
}

TEST(MatchPipelineTest, MinedPatternsAreReported) {
  const MatchingTask task = SmallTask();
  MatchPipelineOptions options;
  options.mine_patterns = true;
  options.mine_min_support = 0.3;
  Result<MatchPipelineOutcome> outcome =
      MatchLogs(task.log1, task.log2, options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->used_patterns.empty());
}

TEST(MatchPipelineTest, BadPatternTextFails) {
  const MatchingTask task = SmallTask();
  MatchPipelineOptions options;
  options.patterns.push_back("SEQ(A, NOPE)");
  Result<MatchPipelineOutcome> outcome =
      MatchLogs(task.log1, task.log2, options);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kParseError);
}

TEST(MatchPipelineTest, TelemetrySnapshotMatchesResult) {
  const MatchingTask task = SmallTask();
  MatchPipelineOptions pipeline_options;
  for (const Pattern& p : task.complex_patterns) {
    pipeline_options.patterns.push_back(
        p.ToString(&task.log1.dictionary()));
  }
  Result<MatchPipelineOutcome> outcome =
      MatchLogs(task.log1, task.log2, pipeline_options);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  const obs::TelemetrySnapshot& t = outcome->telemetry;
  ASSERT_FALSE(t.empty());
  // The registry counter is the same number the MatchResult reports.
  EXPECT_EQ(t.counter("pattern_tight.mappings_processed"),
            outcome->result.mappings_processed);
  EXPECT_EQ(t.counter("pattern_tight.nodes_visited"),
            outcome->result.nodes_visited);
  EXPECT_EQ(t.counter("pattern_tight.runs"), 1u);
  EXPECT_GT(t.gauge("pattern_tight.elapsed_ms", -1.0), 0.0);
  // With complex patterns in play, frequency evaluation on the target
  // side must have happened; A* scores incrementally, so the per-pattern
  // contribution and h-bound counters are the ones that move.
  EXPECT_GT(t.counter("freq2.evaluations"), 0u);
  EXPECT_GT(t.counter("scorer.h_evaluations"), 0u);
  EXPECT_GT(t.counter("scorer.completed_contributions"), 0u);
}

TEST(MatchPipelineTest, TelemetryCanBeDisabled) {
  const MatchingTask task = SmallTask();
  MatchPipelineOptions options;
  options.telemetry = false;
  Result<MatchPipelineOutcome> outcome =
      MatchLogs(task.log1, task.log2, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_TRUE(outcome->telemetry.empty());
  // The result's own tallies are unaffected by disabling the registry.
  EXPECT_GT(outcome->result.mappings_processed, 0u);
  EXPECT_GT(outcome->result.elapsed_ms, 0.0);
}

TEST(MatchPipelineTest, TracerReceivesCompletion) {
  const MatchingTask task = SmallTask();
  obs::RecordingTracer tracer;
  MatchPipelineOptions options;
  options.tracer = &tracer;
  Result<MatchPipelineOutcome> outcome =
      MatchLogs(task.log1, task.log2, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_EQ(tracer.completions().size(), 1u);
  const obs::SearchProgress& done = tracer.completions()[0];
  EXPECT_EQ(done.method, "Pattern-Tight");
  EXPECT_EQ(done.mappings_processed, outcome->result.mappings_processed);
  EXPECT_EQ(done.max_depth, task.log1.num_events());
}

TEST(MatchPipelineTest, BudgetPropagates) {
  const MatchingTask task = SmallTask();
  MatchPipelineOptions options;
  options.max_expansions = 1;
  Result<MatchPipelineOutcome> outcome =
      MatchLogs(task.log1, task.log2, options);
  // The exact stage trips its expansion cap; the pipeline degrades down
  // the heuristic ladder and still returns a complete mapping.
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->termination, exec::TerminationReason::kExpansionCap);
  EXPECT_TRUE(outcome->degraded);
  ASSERT_GE(outcome->result.stages.size(), 2u);
  EXPECT_EQ(outcome->result.stages[0].termination,
            exec::TerminationReason::kExpansionCap);
  EXPECT_TRUE(outcome->result.mapping.IsComplete());
}

std::vector<std::string> Names(
    const std::vector<std::unique_ptr<Matcher>>& rungs) {
  std::vector<std::string> names;
  for (const std::unique_ptr<Matcher>& rung : rungs) {
    names.push_back(rung->name());
  }
  return names;
}

TEST(MatcherRungsTest, SkipDropsLeadingRungsButNeverTheLast) {
  MatchPipelineOptions options;
  const std::vector<std::vector<std::string>> expected = {
      {"Pattern-Tight", "Heuristic-Advanced", "Heuristic-Simple"},
      {"Heuristic-Advanced", "Heuristic-Simple"},
      {"Heuristic-Simple"},
      {"Heuristic-Simple"},
      {"Heuristic-Simple"},
  };
  for (std::size_t skip = 0; skip < expected.size(); ++skip) {
    EXPECT_EQ(Names(MatcherRungs(options, skip)), expected[skip]) << skip;
  }
  options.degrade = false;
  EXPECT_EQ(Names(MatcherRungs(options, 2)),
            std::vector<std::string>{"Pattern-Tight"});
}

TEST(MatcherRungsTest, NonExactMethodIsItsOwnOnlyRung) {
  MatchPipelineOptions options;
  for (MatchMethod method :
       {MatchMethod::kHeuristicSimple, MatchMethod::kHeuristicAdvanced,
        MatchMethod::kVertex, MatchMethod::kVertexEdge,
        MatchMethod::kIterative, MatchMethod::kEntropy}) {
    options.method = method;
    const std::vector<std::unique_ptr<Matcher>> rungs =
        MatcherRungs(options);
    ASSERT_EQ(rungs.size(), 1u) << static_cast<int>(method);
    EXPECT_EQ(MakeMatcher(options)->name(), rungs.front()->name());
  }
}

TEST(MatcherRungsTest, RaceCardIsEveryRungWithOrWithoutDegrade) {
  MatchPipelineOptions options;
  options.method = MatchMethod::kParallelAStar;
  for (bool degrade : {true, false}) {
    options.degrade = degrade;
    std::vector<std::string> names;
    for (const exec::PortfolioStrategy& strategy : RaceCard(options)) {
      EXPECT_EQ(strategy.name, strategy.matcher->name());
      names.push_back(strategy.name);
    }
    EXPECT_EQ(names, (std::vector<std::string>{"Pattern-Parallel",
                                               "Heuristic-Advanced",
                                               "Heuristic-Simple"}));
  }
}

}  // namespace
}  // namespace hematch
