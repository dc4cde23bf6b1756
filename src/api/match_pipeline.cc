#include "api/match_pipeline.h"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>

#include "api/fallback_matcher.h"
#include "baselines/entropy_matcher.h"
#include "baselines/iterative_matcher.h"
#include "baselines/vertex_edge_matcher.h"
#include "baselines/vertex_matcher.h"
#include "core/astar_matcher.h"
#include "core/heuristic_advanced_matcher.h"
#include "core/heuristic_simple_matcher.h"
#include "core/matching_context.h"
#include "core/pattern_set.h"
#include "exec/parallel_astar.h"
#include "exec/portfolio.h"
#include "exec/watchdog.h"
#include "freq/log_index.h"
#include "gen/pattern_miner.h"
#include "pattern/pattern_parser.h"

namespace hematch {

namespace {

bool IsExact(MatchMethod method) {
  return method == MatchMethod::kPatternTight ||
         method == MatchMethod::kPatternSimple ||
         method == MatchMethod::kParallelAStar;
}

// The bound the method's sequential A* rung and heuristic rungs score
// with.
BoundKind MethodBound(MatchMethod method) {
  return method == MatchMethod::kPatternSimple ? BoundKind::kSimple
                                               : BoundKind::kTight;
}

// The method's own matcher: the exact rung of an exact method.
std::unique_ptr<Matcher> MethodMatcher(const MatchPipelineOptions& options) {
  switch (options.method) {
    case MatchMethod::kPatternTight:
    case MatchMethod::kPatternSimple: {
      AStarOptions astar;
      astar.scorer = options.scorer;
      astar.scorer.bound = MethodBound(options.method);
      astar.max_expansions = options.max_expansions;
      return std::make_unique<AStarMatcher>(astar);
    }
    case MatchMethod::kParallelAStar: {
      exec::ParallelAStarOptions popts;
      popts.scorer = options.scorer;
      popts.scorer.bound = BoundKind::kBitmapTight;
      popts.threads = options.search_threads;
      popts.max_expansions = options.max_expansions;
      return std::make_unique<exec::ParallelAStarMatcher>(popts);
    }
    case MatchMethod::kHeuristicSimple: {
      HeuristicSimpleOptions heuristic;
      heuristic.scorer = options.scorer;
      return std::make_unique<HeuristicSimpleMatcher>(heuristic);
    }
    case MatchMethod::kHeuristicAdvanced: {
      HeuristicAdvancedOptions heuristic;
      heuristic.scorer = options.scorer;
      return std::make_unique<HeuristicAdvancedMatcher>(heuristic);
    }
    case MatchMethod::kVertex: {
      VertexOptions vertex;
      vertex.partial = options.scorer.partial;
      return std::make_unique<VertexMatcher>(vertex);
    }
    case MatchMethod::kVertexEdge: {
      VertexEdgeOptions ve;
      ve.max_expansions = options.max_expansions;
      ve.partial = options.scorer.partial;
      return std::make_unique<VertexEdgeMatcher>(ve);
    }
    case MatchMethod::kIterative:
      return std::make_unique<IterativeMatcher>();
    case MatchMethod::kEntropy:
      return std::make_unique<EntropyMatcher>();
  }
  return nullptr;
}

std::vector<std::unique_ptr<Matcher>> Rungs(
    const MatchPipelineOptions& options, bool degrade) {
  std::vector<std::unique_ptr<Matcher>> rungs;
  rungs.push_back(MethodMatcher(options));
  if (degrade && IsExact(options.method)) {
    HeuristicAdvancedOptions advanced;
    advanced.scorer = options.scorer;
    advanced.scorer.bound = MethodBound(options.method);
    rungs.push_back(std::make_unique<HeuristicAdvancedMatcher>(advanced));
    HeuristicSimpleOptions simple;
    simple.scorer = advanced.scorer;
    rungs.push_back(std::make_unique<HeuristicSimpleMatcher>(simple));
  }
  return rungs;
}

}  // namespace

std::vector<std::unique_ptr<Matcher>> MatcherRungs(
    const MatchPipelineOptions& options, std::size_t skip) {
  std::vector<std::unique_ptr<Matcher>> rungs =
      Rungs(options, options.degrade);
  rungs.erase(rungs.begin(),
              rungs.begin() + static_cast<std::ptrdiff_t>(
                                  std::min(skip, rungs.size() - 1)));
  return rungs;
}

std::unique_ptr<Matcher> MakeMatcher(const MatchPipelineOptions& options) {
  std::vector<std::unique_ptr<Matcher>> rungs = MatcherRungs(options);
  if (rungs.size() == 1) {
    return std::move(rungs.front());
  }
  FallbackOptions fallback;
  fallback.budget = options.budget;
  fallback.cancel = options.cancel;
  return std::make_unique<FallbackMatcher>(std::move(rungs), fallback);
}

std::vector<exec::PortfolioStrategy> RaceCard(
    const MatchPipelineOptions& options) {
  std::vector<exec::PortfolioStrategy> card;
  for (std::unique_ptr<Matcher>& rung : Rungs(options, /*degrade=*/true)) {
    card.push_back({rung->name(), std::move(rung)});
  }
  return card;
}

Result<MatchPipelineOutcome> MatchLogs(const EventLog& log1,
                                       const EventLog& log2,
                                       const MatchPipelineOptions& options) {
  MatchPipelineOutcome outcome;
  // Orientation: the mapping is injective source -> target, so the
  // smaller vocabulary is the source.
  const bool swapped = log1.num_events() > log2.num_events();
  outcome.swapped = swapped;
  const EventLog& source = swapped ? log2 : log1;
  const EventLog& target = swapped ? log1 : log2;

  obs::TraceRecorder* recorder = options.trace_recorder.get();
  std::vector<Pattern> complex;
  {
    obs::ScopedSpan pattern_span(recorder, "pipeline.patterns", "api");
    for (const std::string& text : options.patterns) {
      HEMATCH_ASSIGN_OR_RETURN(Pattern p,
                               ParsePattern(text, source.dictionary()));
      outcome.used_patterns.push_back(p.ToString(&source.dictionary()));
      complex.push_back(std::move(p));
    }
    if (options.mine_patterns) {
      PatternMinerOptions miner;
      miner.min_support = options.mine_min_support;
      for (Pattern& p : MineDiscriminativePatterns(source, miner)) {
        outcome.used_patterns.push_back(p.ToString(&source.dictionary()));
        complex.push_back(std::move(p));
      }
    }
    pattern_span.AddArg("patterns", static_cast<double>(complex.size()));
    pattern_span.AddArg("mined", options.mine_patterns ? 1.0 : 0.0);
  }

  const auto index1 = std::make_shared<const LogIndex>(source);

  if (options.portfolio && IsExact(options.method)) {
    // Hedged mode: race the method's rungs on worker threads instead of
    // laddering them. The runner owns its own state (log copies,
    // contexts, registry) so abandoned stragglers are safe; we just
    // translate its outcome into the pipeline's shape.
    exec::PortfolioOptions popts;
    popts.budget = options.budget;
    popts.threads = options.portfolio_threads;
    popts.external_cancel = options.cancel;
    popts.telemetry = options.telemetry;
    popts.trace_recorder = options.trace_recorder;
    popts.heartbeat_ms = options.heartbeat_ms;
    popts.heartbeat = options.heartbeat;
    exec::PortfolioRunner runner(RaceCard(options), popts);
    HEMATCH_ASSIGN_OR_RETURN(
        exec::PortfolioOutcome portfolio,
        runner.Run(source, target, BuildPatternSet(index1->graph(), complex)));
    outcome.result = std::move(portfolio.result);
    outcome.termination = outcome.result.termination;
    // Every strategy always runs in a race, so the ladder's "more than
    // one stage ran" degradation test is meaningless here; degraded
    // means the race ended without a certified-complete answer.
    outcome.degraded =
        outcome.termination != exec::TerminationReason::kCompleted;
    outcome.telemetry = std::move(portfolio.telemetry);
    return outcome;
  }

  ContextTelemetryOptions telemetry;
  telemetry.enabled = options.telemetry;
  telemetry.tracer = options.tracer;
  telemetry.trace_recorder = recorder;
  std::vector<Pattern> patterns = BuildPatternSet(index1->graph(), complex);
  MatchingContext context(index1, std::make_shared<const LogIndex>(target),
                          std::move(patterns), telemetry);
  std::unique_ptr<Matcher> matcher = MakeMatcher(options);
  if (matcher == nullptr) {
    return Status::InvalidArgument("unknown match method");
  }
  // Heartbeat clock for the sequential path (the portfolio path rides
  // its own watchdog): deadline-less, beats only. Joined (reset) before
  // the final snapshot so the last beat cannot race it.
  std::unique_ptr<exec::Watchdog> heartbeat_clock;
  if (options.heartbeat_ms > 0.0 && options.heartbeat) {
    exec::WatchdogOptions wd;
    wd.heartbeat_ms = options.heartbeat_ms;
    wd.heartbeat = [&context, &options](std::uint64_t seq) {
      options.heartbeat(seq, context.SnapshotTelemetry());
    };
    heartbeat_clock = std::make_unique<exec::Watchdog>(std::move(wd));
  }
  // Arm the run budget; fallback ladders re-arm with their remaining
  // slice per stage, everything else runs under this one.
  context.ArmBudget(options.budget, options.cancel);
  HEMATCH_ASSIGN_OR_RETURN(outcome.result, matcher->Match(context));
  heartbeat_clock.reset();
  outcome.termination = outcome.result.termination;
  outcome.degraded = outcome.result.degraded();
  outcome.telemetry = context.SnapshotTelemetry();
  return outcome;
}

}  // namespace hematch
