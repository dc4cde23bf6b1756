#include "eval/runner.h"

#include "core/pattern_set.h"
#include "freq/log_index.h"

namespace hematch {

RunRecord RunMatcher(const Matcher& matcher, MatchingContext& context,
                     const Mapping* truth) {
  RunRecord record;
  record.method = matcher.name();
  const obs::TelemetrySnapshot before = context.SnapshotTelemetry();
  Result<MatchResult> outcome = [&]() -> Result<MatchResult> {
    // Isolation boundary: one crashing matcher must not take the whole
    // evaluation sweep (or portfolio worker) down with it.
    try {
      return matcher.Match(context);
    } catch (const std::exception& e) {
      return Status::Internal(std::string("matcher crashed: ") + e.what());
    } catch (...) {
      return Status::Internal("matcher crashed: unknown exception");
    }
  }();
  record.telemetry = obs::DiffSnapshots(before, context.SnapshotTelemetry());
  if (!outcome.ok()) {
    record.failure = outcome.status().ToString();
    record.termination = exec::TerminationReason::kFailed;
    return record;
  }
  MatchResult& result = outcome.value();
  record.termination = result.termination;
  record.completed = result.completed();
  record.degraded = result.degraded();
  record.stages = std::move(result.stages);
  if (!record.completed) {
    record.failure =
        std::string("budget exhausted (") +
        exec::TerminationReasonToString(record.termination) +
        "); anytime result returned";
  }
  record.objective = result.objective;
  record.lower_bound = result.lower_bound;
  record.upper_bound = result.upper_bound;
  record.bounds_certified = result.bounds_certified;
  record.elapsed_ms = result.elapsed_ms;
  record.mappings_processed = result.mappings_processed;
  record.nodes_visited = result.nodes_visited;
  if (truth != nullptr && truth->num_sources() > 0) {
    const MatchQuality quality = EvaluateMapping(result.mapping, *truth);
    record.f_measure = quality.f_measure;
    record.precision = quality.precision;
    record.recall = quality.recall;
  }
  record.mapping = std::move(result.mapping);
  return record;
}

RunRecord RunMatcherOnTask(const Matcher& matcher, const MatchingTask& task) {
  auto index1 = std::make_shared<const LogIndex>(task.log1);
  std::vector<Pattern> patterns =
      BuildPatternSet(index1->graph(), task.complex_patterns);
  MatchingContext context(std::move(index1),
                          std::make_shared<const LogIndex>(task.log2),
                          std::move(patterns));
  const Mapping* truth =
      task.ground_truth.num_sources() > 0 ? &task.ground_truth : nullptr;
  return RunMatcher(matcher, context, truth);
}

}  // namespace hematch
