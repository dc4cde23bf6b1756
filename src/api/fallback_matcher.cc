#include "api/fallback_matcher.h"

#include <algorithm>
#include <utility>

#include "api/match_pipeline.h"
#include "common/check.h"
#include "core/matching_context.h"
#include "obs/trace.h"

namespace hematch {

FallbackMatcher::FallbackMatcher(std::vector<std::unique_ptr<Matcher>> ladder,
                                 FallbackOptions options)
    : ladder_(std::move(ladder)), options_(std::move(options)) {
  HEMATCH_CHECK(!ladder_.empty(), "fallback ladder needs at least one rung");
}

std::unique_ptr<FallbackMatcher> FallbackMatcher::ExactWithHeuristicFallbacks(
    const AStarOptions& astar, FallbackOptions options) {
  MatchPipelineOptions pipeline;
  pipeline.method = astar.scorer.bound == BoundKind::kSimple
                        ? MatchMethod::kPatternSimple
                        : MatchMethod::kPatternTight;
  pipeline.scorer = astar.scorer;
  std::vector<std::unique_ptr<Matcher>> ladder = MatcherRungs(pipeline);
  // The caller's A* configuration (bound, reductions, name) is the
  // exact rung; the heuristic tail is the method's.
  ladder.front() = std::make_unique<AStarMatcher>(astar);
  return std::make_unique<FallbackMatcher>(std::move(ladder),
                                           std::move(options));
}

std::string FallbackMatcher::name() const { return ladder_.front()->name(); }

Result<MatchResult> FallbackMatcher::Match(MatchingContext& context) const {
  exec::ExecutionGovernor& governor = context.governor();
  obs::MetricsRegistry& metrics = context.metrics();
  obs::TraceRecorder* recorder = context.trace_recorder();
  // Brackets the whole ladder; the rungs' own `match.<slug>` spans nest
  // inside it, and each degradation step leaves an instant marker.
  obs::ScopedSpan ladder_span(recorder, "pipeline.ladder", "api");

  exec::RunBudget remaining = options_.budget;
  exec::TerminationReason first_trip = exec::TerminationReason::kCompleted;
  std::vector<StageAttempt> stages;
  MatchResult best;
  bool have_best = false;
  double certified_upper = 0.0;
  bool have_upper = false;
  Status last_error = Status::Internal("fallback ladder ran no stage");

  for (std::size_t i = 0; i < ladder_.size(); ++i) {
    governor.Arm(remaining, options_.cancel);
    Result<MatchResult> attempt = [&]() -> Result<MatchResult> {
      // Isolation boundary: a rung that throws (a bug, or an injected
      // crash fault) is recorded as a failed stage and the ladder moves
      // on, instead of the exception unwinding through the pipeline.
      try {
        return ladder_[i]->Match(context);
      } catch (const std::exception& e) {
        return Status::Internal(std::string("matcher crashed: ") + e.what());
      } catch (...) {
        return Status::Internal("matcher crashed: unknown exception");
      }
    }();
    if (!attempt.ok()) {
      StageAttempt stage;
      stage.method = ladder_[i]->name();
      stage.termination = exec::TerminationReason::kFailed;
      stage.elapsed_ms = governor.ElapsedMs();
      stages.push_back(std::move(stage));
      obs::TraceInstant(recorder, "pipeline.stage_failed", "api",
                        {{"rung", static_cast<double>(i)}});
      metrics.GetCounter("pipeline.termination.failed")->Increment();
      if (first_trip == exec::TerminationReason::kCompleted) {
        first_trip = exec::TerminationReason::kFailed;
      }
      // A hard failure (error status or crash — not budget, matchers
      // return anytime results for those) still tries the next rung;
      // it may not share the precondition that broke this one.
      last_error = attempt.status();
      remaining = governor.Remaining();
      continue;
    }
    MatchResult stage_result = *std::move(attempt);
    StageAttempt stage;
    stage.method = ladder_[i]->name();
    stage.termination = stage_result.termination;
    stage.objective = stage_result.objective;
    stage.elapsed_ms = stage_result.elapsed_ms;
    stage.mappings_processed = stage_result.mappings_processed;
    stages.push_back(stage);

    if (stage_result.termination != exec::TerminationReason::kCompleted &&
        first_trip == exec::TerminationReason::kCompleted) {
      first_trip = stage_result.termination;
    }
    if (stage_result.bounds_certified) {
      certified_upper = have_upper
                            ? std::min(certified_upper,
                                       stage_result.upper_bound)
                            : stage_result.upper_bound;
      have_upper = true;
    }
    if (!have_best || stage_result.objective > best.objective) {
      best = std::move(stage_result);
      have_best = true;
    }
    if (stage.termination == exec::TerminationReason::kCompleted) {
      break;  // This rung finished its full answer; no need to degrade.
    }
    if (stage.termination == exec::TerminationReason::kCancelled) {
      break;  // The caller asked out; do not start more work.
    }
    remaining = governor.Remaining();
    if (i + 1 < ladder_.size()) {
      metrics.GetCounter("pipeline.fallbacks")->Increment();
      obs::TraceInstant(recorder, "pipeline.fallback", "api",
                        {{"to_rung", static_cast<double>(i + 1)},
                         {"remaining_ms", remaining.deadline_ms}});
    }
  }
  governor.Disarm();
  ladder_span.AddArg("stages", static_cast<double>(stages.size()));
  ladder_span.AddArg("degraded",
                     first_trip != exec::TerminationReason::kCompleted ? 1.0
                                                                       : 0.0);

  if (!have_best) {
    return last_error;
  }
  MatchResult result = std::move(best);
  result.stages = std::move(stages);
  if (first_trip != exec::TerminationReason::kCompleted) {
    // The run degraded: termination names the limit that first fired,
    // the objective is the best stage's, and the bound bracket combines
    // the best achieved score with the tightest certified upper bound
    // (from the exact stage) when one exists.
    result.termination = first_trip;
    result.lower_bound = result.objective;
    if (have_upper) {
      result.upper_bound = std::max(certified_upper, result.objective);
      result.bounds_certified = true;
    } else {
      result.upper_bound = result.objective;
      result.bounds_certified = false;
    }
    metrics
        .GetCounter(std::string("pipeline.termination.") +
                    exec::TerminationReasonToString(first_trip))
        ->Increment();
  }
  return result;
}

}  // namespace hematch
