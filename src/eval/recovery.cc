#include "eval/recovery.h"

#include <utility>

#include "api/fallback_matcher.h"
#include "common/check.h"
#include "core/pattern_set.h"
#include "freq/log_index.h"

namespace hematch {

RecoveryQuality EvaluateRecovery(const Mapping& found, const Mapping& truth) {
  RecoveryQuality quality;
  quality.pairs = EvaluateMapping(found, truth);
  for (EventId v = 0; v < found.num_sources(); ++v) {
    // A source the matcher did not place anywhere counts as predicted ⊥
    // whether it said so explicitly or just never decided it.
    const bool predicted_null = !found.IsSourceMapped(v);
    const bool truth_null = truth.IsSourceNull(v);
    if (predicted_null) {
      ++quality.predicted_unmapped;
    }
    if (truth_null) {
      ++quality.truth_unmapped;
      if (predicted_null) {
        ++quality.correct_unmapped;
      }
    }
  }
  if (quality.predicted_unmapped > 0) {
    quality.unmapped_precision =
        static_cast<double>(quality.correct_unmapped) /
        static_cast<double>(quality.predicted_unmapped);
  }
  if (quality.truth_unmapped > 0) {
    quality.unmapped_recall = static_cast<double>(quality.correct_unmapped) /
                              static_cast<double>(quality.truth_unmapped);
  }
  if (quality.unmapped_precision + quality.unmapped_recall > 0.0) {
    quality.unmapped_f =
        2.0 * quality.unmapped_precision * quality.unmapped_recall /
        (quality.unmapped_precision + quality.unmapped_recall);
  }
  return quality;
}

std::vector<NoiseSweepPoint> RunNoiseSweep(const MatchingTask& clean,
                                           const NoiseSweepOptions& options) {
  HEMATCH_CHECK(clean.ground_truth.num_sources() > 0,
                "noise sweep needs a task with a planted ground truth");
  std::vector<NoiseSweepPoint> points;
  points.reserve(options.rates.size());
  for (std::size_t i = 0; i < options.rates.size(); ++i) {
    NoiseSweepPoint point;
    point.rate = options.rates[i];
    point.spec = ScaleCorruptionSpec(options.base, point.rate);
    point.spec.seed = options.base.seed + i;
    const MatchingTask corrupted =
        CorruptTask(clean, point.spec, &point.report);
    point.num_targets = corrupted.log2.num_events();

    AStarOptions astar;
    astar.scorer.bound = options.bound;
    astar.scorer.partial.unmapped_penalty = options.unmapped_penalty;
    astar.max_expansions = options.max_expansions;
    FallbackOptions fallback;
    fallback.budget = options.budget;
    const std::unique_ptr<FallbackMatcher> ladder =
        FallbackMatcher::ExactWithHeuristicFallbacks(astar, fallback);

    auto index1 = std::make_shared<const LogIndex>(corrupted.log1);
    std::vector<Pattern> patterns =
        BuildPatternSet(index1->graph(), corrupted.complex_patterns);
    MatchingContext context(std::move(index1),
                            std::make_shared<const LogIndex>(corrupted.log2),
                            std::move(patterns));
    RecordCorruptionMetrics(point.report, context.metrics());
    point.record = RunMatcher(*ladder, context, &corrupted.ground_truth);
    point.recovery =
        EvaluateRecovery(point.record.mapping, corrupted.ground_truth);

    obs::MetricsRegistry& metrics = context.metrics();
    metrics.GetGauge("eval.recovery.pair_precision")
        ->Set(point.recovery.pairs.precision);
    metrics.GetGauge("eval.recovery.pair_recall")
        ->Set(point.recovery.pairs.recall);
    metrics.GetGauge("eval.recovery.pair_f")
        ->Set(point.recovery.pairs.f_measure);
    metrics.GetGauge("eval.recovery.unmapped_precision")
        ->Set(point.recovery.unmapped_precision);
    metrics.GetGauge("eval.recovery.unmapped_recall")
        ->Set(point.recovery.unmapped_recall);
    metrics.GetGauge("eval.recovery.noise_rate")->Set(point.rate);
    // Re-snapshot so the noise.* counters and eval.recovery.* gauges
    // ride along with the matcher's own telemetry for this point.
    point.record.telemetry = context.SnapshotTelemetry();
    points.push_back(std::move(point));
  }
  return points;
}

TextTable NoiseSweepTable(const std::vector<NoiseSweepPoint>& points) {
  TextTable table({"rate", "|V2|", "dropped", "dup", "swapped", "junk_ev",
                   "vanished", "precision", "recall", "F", "bot_P", "bot_R",
                   "objective", "time_ms"});
  for (const NoiseSweepPoint& point : points) {
    table.AddRow({TextTable::Num(point.rate, 2),
                  std::to_string(point.num_targets),
                  std::to_string(point.report.dropped_events),
                  std::to_string(point.report.duplicated_events),
                  std::to_string(point.report.swapped_pairs),
                  std::to_string(point.report.injected_junk_events),
                  std::to_string(point.report.vanished_classes.size()),
                  TextTable::Num(point.recovery.pairs.precision),
                  TextTable::Num(point.recovery.pairs.recall),
                  TextTable::Num(point.recovery.pairs.f_measure),
                  TextTable::Num(point.recovery.unmapped_precision),
                  TextTable::Num(point.recovery.unmapped_recall),
                  TextTable::Num(point.record.objective),
                  TextTable::Num(point.record.elapsed_ms, 2)});
  }
  return table;
}

}  // namespace hematch
