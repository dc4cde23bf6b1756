// Pins the rung chains: which matchers each entry point runs, and in
// what order, for every exact method, degrade setting and shed level.
//
// A one-expansion budget trips every rung: the ladder re-arms each
// fallback stage with what is left, and `ExecutionGovernor::Remaining`
// clamps a spent expansion cap to one, so each rung trips in turn and
// the chain records all of them. (The HEMATCH_FAULT_* drill is
// single-shot and would trip only the first rung.)

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/match_pipeline.h"
#include "core/matching_context.h"
#include "core/pattern_set.h"
#include "exec/budget.h"
#include "graph/dependency_graph.h"
#include "log/event_log.h"
#include "obs/metrics.h"
#include "serve/registry.h"
#include "serve/service.h"

namespace hematch {
namespace {

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

constexpr const char* kTight = "Pattern-Tight";
constexpr const char* kSimple = "Pattern-Simple";
constexpr const char* kParallel = "Pattern-Parallel";
constexpr const char* kAdvanced = "Heuristic-Advanced";
constexpr const char* kGreedy = "Heuristic-Simple";

std::vector<std::string> StageNames(const MatchResult& result) {
  std::vector<std::string> names;
  for (const StageAttempt& stage : result.stages) {
    names.push_back(stage.method);
  }
  return names;
}

// The matchers whose metrics appear in `telemetry`, by method name.
std::set<std::string> MatchersThatRan(const obs::TelemetrySnapshot& telemetry) {
  std::set<std::string> ran;
  for (const char* method : {kTight, kSimple, kParallel, kAdvanced, kGreedy}) {
    const std::string prefix = obs::MetricSlug(method) + ".";
    for (const auto& [name, value] : telemetry.counters) {
      if (name.rfind(prefix, 0) == 0) {
        ran.insert(method);
        break;
      }
    }
  }
  return ran;
}

struct PipelineCase {
  MatchMethod method;
  bool degrade;
  std::vector<std::string> stages;
};

TEST(RungChainTest, MatchLogsRunsTheMethodsRungsInOrder) {
  const std::vector<PipelineCase> cases = {
      {MatchMethod::kPatternTight, true, {kTight, kAdvanced, kGreedy}},
      {MatchMethod::kPatternSimple, true, {kSimple, kAdvanced, kGreedy}},
      {MatchMethod::kParallelAStar, true, {kParallel, kAdvanced, kGreedy}},
      {MatchMethod::kPatternTight, false, {kTight}},
      {MatchMethod::kPatternSimple, false, {kSimple}},
      {MatchMethod::kParallelAStar, false, {kParallel}},
  };
  const EventLog log1 = SourceLog();
  const EventLog log2 = TargetLog();
  for (const PipelineCase& c : cases) {
    SCOPED_TRACE(c.stages.front() + (c.degrade ? " degrade" : " no-degrade"));
    MatchPipelineOptions options;
    options.method = c.method;
    options.degrade = c.degrade;
    options.search_threads = 2;
    options.budget.max_expansions = 1;
    Result<MatchPipelineOutcome> outcome = MatchLogs(log1, log2, options);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    if (c.degrade) {
      EXPECT_EQ(StageNames(outcome->result), c.stages);
    } else {
      // A lone matcher records no stage chain; its metrics name it.
      EXPECT_TRUE(outcome->result.stages.empty());
      EXPECT_EQ(MatchersThatRan(outcome->telemetry),
                std::set<std::string>{c.stages.front()});
    }
    EXPECT_NE(outcome->termination, exec::TerminationReason::kCompleted);
  }
}

struct ServeCase {
  const char* method;
  int shed_level;
  std::vector<std::string> stages;
};

TEST(RungChainTest, ServeShedLevelDropsLeadingRungs) {
  const std::vector<ServeCase> cases = {
      {"auto", 0, {kTight, kAdvanced, kGreedy}},
      {"exact", 0, {kTight, kAdvanced, kGreedy}},
      {"parallel", 0, {kParallel, kAdvanced, kGreedy}},
      {"heuristic", 0, {kAdvanced, kGreedy}},
      {"auto", 1, {kAdvanced, kGreedy}},
      {"exact", 1, {kAdvanced, kGreedy}},
      {"parallel", 1, {kAdvanced, kGreedy}},
      {"heuristic", 1, {kAdvanced, kGreedy}},
      {"auto", 2, {kGreedy}},
      {"exact", 2, {kGreedy}},
      {"parallel", 2, {kGreedy}},
      {"heuristic", 2, {kGreedy}},
  };
  serve::WarmContext warm;
  warm.log1 = std::make_shared<const EventLog>(SourceLog());
  warm.log2 = std::make_shared<const EventLog>(TargetLog());
  warm.base = std::make_unique<MatchingContext>(
      *warm.log1, *warm.log2,
      BuildPatternSet(DependencyGraph::Build(*warm.log1), {}));
  for (const ServeCase& c : cases) {
    SCOPED_TRACE(std::string(c.method) + " shed " +
                 std::to_string(c.shed_level));
    serve::MatchRequestSpec spec;
    spec.method = c.method;
    spec.max_expansions = 1;
    spec.search_threads = 2;
    exec::CancelToken token;
    const serve::MatchOutcome outcome = serve::ExecuteMatch(
        warm, /*swapped=*/false, spec, c.shed_level, /*queue_ms=*/0.0,
        /*context_warm=*/true, serve::ServiceOptions{}, token);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    std::vector<std::string> names;
    for (const auto& [method, termination] : outcome.reply.stages) {
      names.push_back(method);
    }
    EXPECT_EQ(names, c.stages);
    EXPECT_EQ(outcome.reply.shed_level, c.shed_level);
  }
}

}  // namespace
}  // namespace hematch
