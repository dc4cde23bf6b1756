// Tests for hedged portfolio execution (exec/portfolio.h): the race
// returns the best strategy's answer, certified-optimal completions are
// accepted early, crashing strategies are isolated (bounded retry, then
// kFailed — never process death), and portfolio mode agrees with the
// sequential pipeline on small exhaustively-solvable instances.

#include "exec/portfolio.h"

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/match_pipeline.h"
#include "core/astar_matcher.h"
#include "core/heuristic_advanced_matcher.h"
#include "core/heuristic_simple_matcher.h"
#include "core/pattern_set.h"
#include "exec/budget.h"
#include "graph/dependency_graph.h"
#include "log/event_log.h"

namespace hematch {
namespace {

using exec::PortfolioOptions;
using exec::PortfolioOutcome;
using exec::PortfolioRunner;
using exec::PortfolioStrategy;
using exec::TerminationReason;

EventLog MakeLog(std::initializer_list<std::vector<std::string>> traces) {
  EventLog log;
  for (const auto& trace : traces) {
    log.AddTraceByNames(trace);
  }
  return log;
}

EventLog SourceLog() {
  return MakeLog({{"a", "b", "c", "d"},
                  {"a", "c", "b", "d"},
                  {"b", "a", "c", "d"},
                  {"a", "b", "d", "c"}});
}

EventLog TargetLog() {
  return MakeLog({{"w", "x", "y", "z"},
                  {"w", "y", "x", "z"},
                  {"x", "w", "y", "z"},
                  {"w", "x", "z", "y"}});
}

std::vector<PortfolioStrategy> DefaultCard() {
  return RaceCard(MatchPipelineOptions{});
}

// The full pattern set (vertex + edge patterns) for `log1`, as the
// pipeline would assemble it.
std::vector<Pattern> PatternsFor(const EventLog& log1) {
  return BuildPatternSet(DependencyGraph::Build(log1), {});
}

Result<PortfolioOutcome> RunDefaultRace(PortfolioOptions options = {}) {
  const EventLog log1 = SourceLog();
  const EventLog log2 = TargetLog();
  PortfolioRunner runner(DefaultCard(), std::move(options));
  return runner.Run(log1, log2, PatternsFor(log1));
}

// A strategy that always throws: the isolation boundary must convert
// every attempt into a failure and the race must win with someone else.
class ThrowingMatcher : public Matcher {
 public:
  std::string name() const override { return "Throwing"; }
  Result<MatchResult> Match(MatchingContext&) const override {
    throw std::runtime_error("synthetic matcher bug");
  }
};

// Throws on the first call, works as a plain greedy heuristic after:
// exercises the retry path end to end.
class FlakyMatcher : public Matcher {
 public:
  std::string name() const override { return "Flaky"; }
  Result<MatchResult> Match(MatchingContext& context) const override {
    if (calls_.fetch_add(1) == 0) {
      throw std::runtime_error("transient failure");
    }
    return HeuristicSimpleMatcher().Match(context);
  }

 private:
  mutable std::atomic<int> calls_{0};
};

TEST(PortfolioRunnerTest, ExactStrategyWinsWithCertifiedOptimum) {
  auto outcome = RunDefaultRace();
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->winner_name, "Pattern-Tight");
  EXPECT_TRUE(outcome->early_accept);
  EXPECT_EQ(outcome->result.termination, TerminationReason::kCompleted);
  EXPECT_TRUE(outcome->result.bounds_certified);
  EXPECT_NEAR(outcome->result.lower_bound, outcome->result.upper_bound, 1e-9);
  EXPECT_TRUE(outcome->result.mapping.IsComplete());
  // One stage per strategy, in launch order.
  ASSERT_EQ(outcome->result.stages.size(), 3u);
  EXPECT_EQ(outcome->result.stages[0].method, "Pattern-Tight");
}

TEST(PortfolioRunnerTest, ObjectiveDominatesEveryStrategyResult) {
  auto outcome = RunDefaultRace();
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_EQ(outcome->strategies.size(), 3u);
  for (const auto& strategy : outcome->strategies) {
    if (strategy.produced_result) {
      EXPECT_GE(outcome->result.objective, strategy.objective - 1e-9)
          << strategy.name;
    }
  }
}

TEST(PortfolioRunnerTest, MatchesTheSequentialPipelineOnSmallInstances) {
  // Exhaustively solvable instances: both modes must certify the same
  // optimum (the mappings may differ only if there are ties).
  const std::vector<std::pair<EventLog, EventLog>> instances = [] {
    std::vector<std::pair<EventLog, EventLog>> out;
    out.emplace_back(SourceLog(), TargetLog());
    out.emplace_back(MakeLog({{"a", "b"}, {"b", "a"}}),
                     MakeLog({{"x", "y"}, {"y", "x"}}));
    out.emplace_back(MakeLog({{"a", "b", "c"}, {"a", "c", "b"}}),
                     MakeLog({{"p", "q", "r"}, {"p", "r", "q"}}));
    return out;
  }();
  for (std::size_t i = 0; i < instances.size(); ++i) {
    MatchPipelineOptions sequential;
    auto expected = MatchLogs(instances[i].first, instances[i].second,
                              sequential);
    ASSERT_TRUE(expected.ok()) << expected.status();
    MatchPipelineOptions hedged;
    hedged.portfolio = true;
    auto actual = MatchLogs(instances[i].first, instances[i].second, hedged);
    ASSERT_TRUE(actual.ok()) << actual.status();
    EXPECT_EQ(actual->termination, TerminationReason::kCompleted)
        << "instance " << i;
    EXPECT_FALSE(actual->degraded) << "instance " << i;
    EXPECT_NEAR(actual->result.objective, expected->result.objective, 1e-9)
        << "instance " << i;
    EXPECT_TRUE(actual->result.bounds_certified) << "instance " << i;
    EXPECT_NEAR(actual->result.lower_bound, expected->result.lower_bound,
                1e-9)
        << "instance " << i;
  }
}

TEST(PortfolioRunnerTest, ThrowingStrategyFailsInIsolation) {
  const EventLog log1 = SourceLog();
  const EventLog log2 = TargetLog();
  std::vector<PortfolioStrategy> strategies;
  strategies.push_back({"throwing", std::make_unique<ThrowingMatcher>()});
  strategies.push_back(
      {"heuristic-simple", std::make_unique<HeuristicSimpleMatcher>()});
  PortfolioOptions options;
  options.max_retries = 1;
  options.retry_backoff_ms = 0.5;
  PortfolioRunner runner(std::move(strategies), std::move(options));
  auto outcome = runner.Run(log1, log2, {});
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->winner_name, "heuristic-simple");
  const auto& failed = outcome->strategies[0];
  EXPECT_EQ(failed.termination, TerminationReason::kFailed);
  EXPECT_EQ(failed.attempts, 2);  // 1 + max_retries.
  EXPECT_FALSE(failed.produced_result);
  EXPECT_NE(failed.failure.find("synthetic matcher bug"), std::string::npos)
      << failed.failure;
  // The failure is visible in telemetry too.
  EXPECT_EQ(outcome->telemetry.counter("portfolio.failures"), 2u);
  EXPECT_EQ(outcome->telemetry.counter("portfolio.retries"), 1u);
  EXPECT_EQ(
      outcome->telemetry.counter("portfolio.throwing.termination.failed"), 1u);
}

TEST(PortfolioRunnerTest, TransientCrashRecoversViaRetry) {
  const EventLog log1 = SourceLog();
  const EventLog log2 = TargetLog();
  std::vector<PortfolioStrategy> strategies;
  strategies.push_back({"flaky", std::make_unique<FlakyMatcher>()});
  PortfolioOptions options;
  options.retry_backoff_ms = 0.5;
  PortfolioRunner runner(std::move(strategies), std::move(options));
  auto outcome = runner.Run(log1, log2, {});
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  const auto& flaky = outcome->strategies[0];
  EXPECT_EQ(flaky.termination, TerminationReason::kCompleted);
  EXPECT_EQ(flaky.attempts, 2);
  EXPECT_TRUE(flaky.produced_result);
  EXPECT_TRUE(outcome->result.mapping.IsComplete());
  EXPECT_EQ(outcome->telemetry.counter("portfolio.retries"), 1u);
}

TEST(PortfolioRunnerTest, AllStrategiesFailingIsAnErrorNotACrash) {
  const EventLog log1 = SourceLog();
  const EventLog log2 = TargetLog();
  std::vector<PortfolioStrategy> strategies;
  strategies.push_back({"throwing-a", std::make_unique<ThrowingMatcher>()});
  strategies.push_back({"throwing-b", std::make_unique<ThrowingMatcher>()});
  PortfolioOptions options;
  options.retry_backoff_ms = 0.5;
  PortfolioRunner runner(std::move(strategies), std::move(options));
  auto outcome = runner.Run(log1, log2, {});
  EXPECT_FALSE(outcome.ok());
}

TEST(PortfolioRunnerTest, QualityGateAcceptsAGoodEnoughHeuristic) {
  const EventLog log1 = SourceLog();
  const EventLog log2 = TargetLog();
  std::vector<PortfolioStrategy> strategies;
  strategies.push_back(
      {"heuristic-advanced", std::make_unique<HeuristicAdvancedMatcher>()});
  PortfolioOptions options;
  options.quality_gate = 0.1;  // Any completed positive result clears it.
  PortfolioRunner runner(std::move(strategies), std::move(options));
  auto outcome = runner.Run(log1, log2, PatternsFor(log1));
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_TRUE(outcome->early_accept);
  EXPECT_GE(outcome->result.objective, 0.1);
}

TEST(PortfolioRunnerTest, FewerThreadsThanStrategiesStillRunsThemAll) {
  PortfolioOptions options;
  options.threads = 1;  // Round-robin: one worker runs all three.
  auto outcome = RunDefaultRace(std::move(options));
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  // The certified-optimal early accept fires on the first strategy; the
  // other two are then skipped (reported cancelled, never started) —
  // but all three are accounted for.
  ASSERT_EQ(outcome->strategies.size(), 3u);
  EXPECT_TRUE(outcome->strategies[0].started);
  EXPECT_EQ(outcome->result.termination, TerminationReason::kCompleted);
  EXPECT_TRUE(outcome->result.mapping.IsComplete());
}

TEST(PortfolioRunnerTest, RunnerIsSingleUse) {
  const EventLog log1 = SourceLog();
  const EventLog log2 = TargetLog();
  PortfolioRunner runner(DefaultCard(), PortfolioOptions{});
  ASSERT_TRUE(runner.Run(log1, log2, {}).ok());
  EXPECT_FALSE(runner.Run(log1, log2, {}).ok());
}

TEST(PortfolioPipelineTest, PortfolioFlagIsIgnoredForHeuristicMethods) {
  MatchPipelineOptions options;
  options.method = MatchMethod::kHeuristicSimple;
  options.portfolio = true;
  auto outcome = MatchLogs(SourceLog(), TargetLog(), options);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  // The single-threaded path ran: no per-strategy stages were recorded.
  EXPECT_TRUE(outcome->result.stages.empty());
}

TEST(PortfolioPipelineTest, PortfolioTelemetryLandsInTheSnapshot) {
  MatchPipelineOptions options;
  options.portfolio = true;
  auto outcome = MatchLogs(SourceLog(), TargetLog(), options);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  // `launched` is timing-dependent: an early accept may cancel workers
  // before they start, so only the winner is guaranteed to launch.
  EXPECT_GE(outcome->telemetry.counter("portfolio.launched"), 1u);
  EXPECT_EQ(outcome->telemetry.gauge("portfolio.strategies"), 3.0);
  EXPECT_GE(outcome->telemetry.counter("portfolio.early_accepts"), 1u);
}

}  // namespace
}  // namespace hematch
