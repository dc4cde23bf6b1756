#include "serve/service.h"

#include <algorithm>
#include <cstddef>
#include <exception>
#include <memory>
#include <string>
#include <utility>

#include "api/fallback_matcher.h"
#include "api/match_pipeline.h"
#include "exec/watchdog.h"

namespace hematch::serve {

double EffectiveDeadlineMs(const MatchRequestSpec& spec,
                           const ServiceOptions& options) {
  double deadline = spec.deadline_ms > 0.0 ? spec.deadline_ms
                                           : options.default_deadline_ms;
  if (options.max_deadline_ms > 0.0) {
    deadline = std::min(deadline, options.max_deadline_ms);
  }
  return deadline;
}

MatchOutcome ExecuteMatch(WarmContext& warm, bool swapped,
                          const MatchRequestSpec& spec, int shed_level,
                          double queue_ms, bool context_warm,
                          const ServiceOptions& options,
                          exec::CancelToken& token,
                          obs::TraceRecorder* request_recorder) {
  MatchOutcome outcome;

  exec::RunBudget budget;
  budget.deadline_ms = EffectiveDeadlineMs(spec, options);
  budget.max_expansions = spec.max_expansions > 0
                              ? spec.max_expansions
                              : options.default_max_expansions;

  // Fresh governor per request: per-request budget state, and the
  // HEMATCH_FAULT_* drill (if any) re-arms for every request, so crash
  // drills exercise the isolation boundary request after request.
  exec::ExecutionGovernor governor;
  MatchingContext sibling(*warm.base, &governor);
  // Per-request sampling: the sibling (which dies with this call) gets
  // the recorder, and the ambient TLS slot routes shared-evaluator scan
  // events here without touching the evaluators' own pointer.
  std::unique_ptr<obs::AmbientTraceScope> ambient;
  if (request_recorder != nullptr) {
    sibling.set_local_trace_recorder(request_recorder);
    ambient = std::make_unique<obs::AmbientTraceScope>(request_recorder);
  }

  // The method's rungs, less the first `shed_level`: shed 1 starts at
  // the advanced heuristic, shed 2 runs the simple one alone. The
  // ladder wraps even a lone rung so the reply always carries `stages`.
  MatchPipelineOptions pipeline;
  pipeline.method = spec.method == "parallel" ? MatchMethod::kParallelAStar
                                              : MatchMethod::kPatternTight;
  pipeline.search_threads = spec.search_threads;
  pipeline.scorer.partial.unmapped_penalty = spec.partial_penalty;
  const int skip = std::max(shed_level, spec.method == "heuristic" ? 1 : 0);
  FallbackOptions fopts;
  fopts.budget = budget;
  fopts.cancel = &token;
  const FallbackMatcher ladder(
      MatcherRungs(pipeline, static_cast<std::size_t>(skip)), fopts);

  // Backstop for non-polling stretches: past deadline + grace the token
  // trips, and the shared evaluators (holding the context's drain
  // token, not this one) are still bounded by the governor's strided
  // clock checks inside the matcher loops.
  exec::WatchdogOptions wopts;
  wopts.deadline_ms =
      budget.deadline_ms * options.watchdog_grace_factor + 5.0;
  wopts.token = &token;
  exec::Watchdog watchdog(std::move(wopts));

  Result<MatchResult> run = Status::Internal("match did not run");
  try {
    run = ladder.Match(sibling);
  } catch (const std::exception& e) {
    // The ladder isolates per-rung crashes; this boundary catches a
    // crash that escaped every rung (e.g. the last one). The request
    // fails alone — the process and its peers keep serving.
    outcome.error = Status::Internal(std::string("match crashed: ") +
                                     e.what());
    return outcome;
  } catch (...) {
    outcome.error = Status::Internal("match crashed: unknown exception");
    return outcome;
  }
  watchdog.Disarm();

  if (!run.ok()) {
    outcome.error = run.status();
    return outcome;
  }
  const MatchResult& result = run.value();

  MatchReplyData& reply = outcome.reply;
  reply.termination = exec::TerminationReasonToString(result.termination);
  reply.degraded = result.degraded();
  reply.shed_level = shed_level;
  reply.swapped = swapped;
  reply.context_warm = context_warm;
  reply.objective = result.objective;
  reply.lower_bound = result.lower_bound;
  reply.upper_bound = result.upper_bound;
  reply.bounds_certified = result.bounds_certified;
  reply.elapsed_ms = result.elapsed_ms;
  reply.queue_ms = queue_ms;
  reply.mappings_processed = result.mappings_processed;

  const EventDictionary& dict1 = warm.log1->dictionary();
  const EventDictionary& dict2 = warm.log2->dictionary();
  for (EventId s = 0; s < dict1.size(); ++s) {
    const EventId t = result.mapping.TargetOf(s);
    if (t == kInvalidEventId) {
      continue;
    }
    if (swapped) {
      // Report in the request's orientation: its log1 events first.
      reply.mapping.emplace_back(dict2.Name(t), dict1.Name(s));
    } else {
      reply.mapping.emplace_back(dict1.Name(s), dict2.Name(t));
    }
  }
  for (EventId s : result.unmapped_sources) {
    reply.unmapped.push_back(dict1.Name(s));
  }
  for (const StageAttempt& stage : result.stages) {
    reply.stages.emplace_back(
        stage.method, exec::TerminationReasonToString(stage.termination));
  }

  outcome.ok = true;
  return outcome;
}

}  // namespace hematch::serve
