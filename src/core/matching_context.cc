#include "core/matching_context.h"

namespace hematch {

namespace {

std::vector<std::vector<EventId>> PatternEventSets(
    const std::vector<Pattern>& patterns) {
  std::vector<std::vector<EventId>> sets;
  sets.reserve(patterns.size());
  for (const Pattern& p : patterns) {
    sets.push_back(p.events());
  }
  return sets;
}

}  // namespace

MatchingContext::MatchingContext(std::shared_ptr<const LogIndex> index1,
                                 std::shared_ptr<const LogIndex> index2,
                                 std::vector<Pattern> patterns,
                                 ContextTelemetryOptions telemetry,
                                 ContextPrecomputeOptions precompute)
    : index1_(std::move(index1)),
      index2_(std::move(index2)),
      patterns_(std::move(patterns)),
      pattern_index_(index1_->log().num_events(), PatternEventSets(patterns_)),
      eval1_(std::make_shared<FrequencyEvaluator>(index1_)),
      eval2_(std::make_shared<FrequencyEvaluator>(index2_)),
      cooc2_(std::make_shared<CooccurrenceIndex>(index2_)),
      owned_metrics_(telemetry.shared_registry != nullptr
                         ? nullptr
                         : std::make_unique<obs::MetricsRegistry>(
                               telemetry.enabled)),
      metrics_(telemetry.shared_registry != nullptr ? telemetry.shared_registry
                                                    : owned_metrics_.get()),
      tracer_(telemetry.tracer),
      trace_recorder_(telemetry.trace_recorder),
      owned_governor_(telemetry.shared_governor != nullptr
                          ? nullptr
                          : std::make_unique<exec::ExecutionGovernor>()),
      governor_(telemetry.shared_governor != nullptr
                    ? telemetry.shared_governor
                    : owned_governor_.get()),
      existence_checks_(metrics_->GetCounter("existence.checks")),
      existence_pruned_(metrics_->GetCounter("existence.pruned")) {
  obs::Counter* evictions = metrics_->GetCounter("freq.cache_evictions");
  eval1_->set_eviction_counter(evictions);
  eval2_->set_eviction_counter(evictions);
  eval1_->set_trace_recorder(trace_recorder_);
  eval2_->set_trace_recorder(trace_recorder_);
  obs::ScopedSpan build_span(trace_recorder_, "context.build", "core");
  build_span.AddArg("patterns", static_cast<double>(patterns_.size()));
  if (precompute.enabled) {
    // Warm the source-side memo in parallel: vertex and edge patterns
    // resolve through dependency-graph labels below and need no scan, so
    // only the complex patterns are sharded. The sequential f1 loop then
    // runs entirely on cache hits (or finishes the tail on a cancelled
    // pass).
    std::vector<Pattern> complex_patterns;
    for (const Pattern& p : patterns_) {
      if (!p.IsVertexPattern() && !p.IsEdgePattern()) {
        complex_patterns.push_back(p);
      }
    }
    FrequencyEvaluator::PrecomputeOptions opts;
    opts.threads = precompute.threads;
    opts.min_parallel_patterns = precompute.min_parallel_patterns;
    opts.cancel = precompute.cancel;
    const FrequencyEvaluator::PrecomputeStats ps =
        eval1_->PrecomputeAll(complex_patterns, opts);
    metrics_->GetCounter("freq.precompute.patterns")
        ->Increment(ps.patterns_evaluated);
    metrics_->GetCounter("freq.precompute.threads")
        ->Increment(static_cast<std::uint64_t>(ps.threads_used));
    metrics_->GetCounter("freq.precompute.ms")
        ->Increment(static_cast<std::uint64_t>(ps.elapsed_ms));
  }
  f1_.reserve(patterns_.size());
  for (const Pattern& p : patterns_) {
    if (p.IsVertexPattern()) {
      f1_.push_back(graph1().VertexFrequency(p.event()));
    } else if (p.IsEdgePattern()) {
      f1_.push_back(graph1().EdgeFrequency(p.events()[0], p.events()[1]));
    } else {
      f1_.push_back(eval1_->Frequency(p));
    }
  }
}

MatchingContext::MatchingContext(const MatchingContext& base,
                                 exec::ExecutionGovernor* governor)
    : index1_(base.index1_),
      index2_(base.index2_),
      patterns_(base.patterns_),
      pattern_index_(base.pattern_index_),
      eval1_(base.eval1_),
      eval2_(base.eval2_),
      cooc2_(base.cooc2_),
      f1_(base.f1_),
      owned_metrics_(nullptr),
      metrics_(base.metrics_),
      tracer_(nullptr),
      trace_recorder_(base.trace_recorder_),
      owned_governor_(nullptr),
      governor_(governor),
      existence_checks_(base.existence_checks_),
      existence_pruned_(base.existence_pruned_) {}

void MatchingContext::ArmBudget(const exec::RunBudget& budget,
                                const exec::CancelToken* cancel) {
  governor_->Arm(budget, cancel);
  eval1_->set_cancel_token(cancel);
  eval2_->set_cancel_token(cancel);
  if (budget.max_memory_bytes > 0) {
    // Leave half the ceiling to the search frontier; split the rest
    // between the two memo caches.
    const std::size_t per_cache = budget.max_memory_bytes / 4;
    eval1_->set_max_cache_bytes(per_cache > 0 ? per_cache : 1);
    eval2_->set_max_cache_bytes(per_cache > 0 ? per_cache : 1);
  }
}

const CooccurrenceIndex& MatchingContext::cooccurrence2() {
  if (!cooc2_->built()) {
    cooc2_->EnsureBuilt();
    metrics_->GetCounter("freq2.cooc.builds")->Increment();
    metrics_->GetGauge("freq2.cooc.build_ms")->Set(cooc2_->build_ms());
  }
  return *cooc2_;
}

double MatchingContext::PatternFrequency2(const Pattern& translated,
                                          ExistenceCheckMode mode) {
  const DependencyGraph& g2 = graph2();
  if (translated.IsVertexPattern()) {
    return g2.VertexFrequency(translated.event());
  }
  if (translated.IsEdgePattern()) {
    return g2.EdgeFrequency(translated.events()[0], translated.events()[1]);
  }
  existence_checks_->Increment();
  if (!PatternMayExist(translated, g2, mode)) {
    existence_pruned_->Increment();
    return 0.0;  // Proposition 3: no trace can match.
  }
  return eval2_->Frequency(translated);
}

namespace {

void ExportEvaluatorStats(const FrequencyEvaluator& eval,
                          const std::string& prefix,
                          obs::TelemetrySnapshot& snapshot) {
  const FrequencyEvaluator::Stats& s = eval.stats();
  snapshot.counters[prefix + "evaluations"] = s.evaluations;
  snapshot.counters[prefix + "cache_hits"] = s.cache_hits;
  snapshot.counters[prefix + "cache_misses"] = s.cache_misses;
  snapshot.counters[prefix + "cache_evictions"] = s.cache_evictions;
  snapshot.counters[prefix + "traces_scanned"] = s.traces_scanned;
  snapshot.counters[prefix + "windows_tested"] = s.windows_tested;
  snapshot.counters[prefix + "scan_aborts"] = s.scan_aborts;
  snapshot.counters[prefix + "empty_shortcuts"] = s.empty_shortcuts;
  snapshot.counters[prefix + "path.bitmap"] = s.bitmap_scans;
  snapshot.counters[prefix + "path.postings"] = s.postings_scans;
  snapshot.counters[prefix + "path.fullscan"] = s.full_scans;
  // One index lookup per indexed scan, by the path it took.
  snapshot.counters[prefix + "index.candidate_queries"] = s.postings_scans;
  snapshot.counters[prefix + "index.postings_scanned"] = s.postings_probed;
  snapshot.counters[prefix + "index.candidates_yielded"] =
      s.candidates_yielded;
  snapshot.counters[prefix + "bitmap.queries"] = s.bitmap_scans;
  snapshot.counters[prefix + "bitmap.words_anded"] = s.words_anded;
}

}  // namespace

obs::TelemetrySnapshot MatchingContext::SnapshotTelemetry() const {
  obs::TelemetrySnapshot snapshot = obs::CaptureSnapshot(*metrics_);
  if (!metrics_->enabled()) {
    return snapshot;  // Disabled: stay empty, allocate nothing downstream.
  }
  ExportEvaluatorStats(*eval1_, "freq1.", snapshot);
  ExportEvaluatorStats(*eval2_, "freq2.", snapshot);
  return snapshot;
}

}  // namespace hematch
