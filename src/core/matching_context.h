#ifndef HEMATCH_CORE_MATCHING_CONTEXT_H_
#define HEMATCH_CORE_MATCHING_CONTEXT_H_

#include <memory>
#include <vector>

#include "exec/budget.h"
#include "freq/cooccurrence.h"
#include "freq/existence_pruner.h"
#include "freq/frequency_evaluator.h"
#include "freq/inverted_index.h"
#include "freq/log_index.h"
#include "graph/dependency_graph.h"
#include "log/event_log.h"
#include "obs/metrics.h"
#include "obs/search_tracer.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "pattern/pattern.h"

namespace hematch {

/// How a `MatchingContext` wires into the telemetry subsystem.
struct ContextTelemetryOptions {
  /// When false the context creates a disabled registry: every metric
  /// handle is a shared sink, nothing is registered or exported, and
  /// `SnapshotTelemetry()` returns an empty snapshot.
  bool enabled = true;
  /// Borrow an external registry instead of owning one (used by matchers
  /// that build restricted sub-contexts, e.g. Vertex+Edge, so their work
  /// lands in the caller's metrics). Must outlive the context.
  obs::MetricsRegistry* shared_registry = nullptr;
  /// Optional live progress receiver; may also be set later via
  /// `set_tracer`. Must outlive the context.
  obs::SearchTracer* tracer = nullptr;
  /// Borrow an external execution governor instead of owning one (used
  /// by matchers that build restricted sub-contexts, e.g. Vertex+Edge,
  /// so the caller's budget also binds the inner search). Must outlive
  /// the context.
  exec::ExecutionGovernor* shared_governor = nullptr;
  /// Optional span recorder: matchers and the frequency evaluators emit
  /// timeline events into it (see obs/trace.h). Null = tracing off, the
  /// default — every probe then costs one pointer compare. Must outlive
  /// the context (and, for portfolio runs, any abandoned stragglers;
  /// exec/portfolio.h takes shared ownership for exactly this reason).
  obs::TraceRecorder* trace_recorder = nullptr;
};

/// How a `MatchingContext` warms the source-side frequency memo at build
/// time. The f1 values of complex (non-vertex, non-edge) patterns each
/// cost a log scan; precomputation shards those scans across worker
/// threads via `FrequencyEvaluator::PrecomputeAll` so context
/// construction scales with cores instead of pattern count.
struct ContextPrecomputeOptions {
  /// When false, f1 is computed sequentially (the pre-batch behavior).
  bool enabled = true;
  /// Worker threads; 0 = hardware concurrency.
  int threads = 0;
  /// Below this many complex patterns the pass runs inline — thread
  /// spawn costs more than the scans for tiny pattern sets.
  std::size_t min_parallel_patterns = 4;
  /// Optional cooperative cancellation for the warm-up pass; a cancelled
  /// pass leaves the remaining f1 values to the sequential loop (the
  /// context is still fully usable). Must outlive construction.
  const exec::CancelToken* cancel = nullptr;
};

/// Everything the matching algorithms need about one (L1, L2, P) problem
/// instance, computed once and shared: both logs' `LogIndex`es (the
/// dependency graphs and trace inverted indices `It`), the frequency
/// evaluators over them, the pattern inverted index (`Ip`), and the
/// source-side pattern frequencies `f1(p)`.
///
/// The logs must outlive the context. The context is stateful only through
/// the target-side evaluator's memo cache; all matchers of one experiment
/// can (and should) share a context so the cache amortizes across them.
class MatchingContext {
 public:
  /// `patterns` are over `log1`'s vocabulary. The convention |V1| <= |V2|
  /// is NOT required here; matchers that need it handle padding.
  MatchingContext(const EventLog& log1, const EventLog& log2,
                  std::vector<Pattern> patterns,
                  ContextTelemetryOptions telemetry = {},
                  ContextPrecomputeOptions precompute = {})
      : MatchingContext(std::make_shared<const LogIndex>(log1),
                        std::make_shared<const LogIndex>(log2),
                        std::move(patterns), telemetry, precompute) {}

  /// As above, over indexes already built (callers that ran
  /// `BuildPatternSet` over `index1->graph()`, or that reuse a log's
  /// index across pairs, pass it in rather than walk the log again).
  MatchingContext(std::shared_ptr<const LogIndex> index1,
                  std::shared_ptr<const LogIndex> index2,
                  std::vector<Pattern> patterns,
                  ContextTelemetryOptions telemetry = {},
                  ContextPrecomputeOptions precompute = {});

  /// Sibling constructor for portfolio workers (see exec/portfolio.h):
  /// copies `base`'s immutable precomputation (patterns, pattern index,
  /// f1), *shares* its log indexes and its thread-safe substrate
  /// (frequency evaluators with their memo caches and trace indices,
  /// the metric registry), and binds this context to the per-worker
  /// `governor` so racing strategies trip their own budgets
  /// independently. No tracer is attached — interleaved per-worker
  /// progress would be unreadable. `base`'s logs, its evaluators, the
  /// registry, and `governor` must outlive the sibling. `ArmBudget` on
  /// a sibling arms only its own governor; pass every sibling the same
  /// `CancelToken` (the shared evaluators hold a single token).
  MatchingContext(const MatchingContext& base,
                  exec::ExecutionGovernor* governor);

  MatchingContext(const MatchingContext&) = delete;
  MatchingContext& operator=(const MatchingContext&) = delete;

  const EventLog& log1() const { return index1_->log(); }
  const EventLog& log2() const { return index2_->log(); }
  const DependencyGraph& graph1() const { return index1_->graph(); }
  const DependencyGraph& graph2() const { return index2_->graph(); }
  const std::shared_ptr<const LogIndex>& index1() const { return index1_; }
  const std::shared_ptr<const LogIndex>& index2() const { return index2_; }

  const std::vector<Pattern>& patterns() const { return patterns_; }
  std::size_t num_patterns() const { return patterns_.size(); }

  /// The pattern inverted index `Ip` over `log1`'s events.
  const PatternIndex& pattern_index() const { return pattern_index_; }

  std::size_t num_sources() const { return log1().num_events(); }
  std::size_t num_targets() const { return log2().num_events(); }

  /// Precomputed `f1(patterns()[pid])`.
  double PatternFrequency1(std::size_t pid) const { return f1_[pid]; }

  /// `f2(q)` for a pattern `q` over `log2`'s vocabulary (typically a
  /// translated pattern `M(p)`). Applies `mode`'s existence pruning
  /// first, then a constant-time fast path for vertex and edge patterns
  /// (their frequencies are dependency-graph labels), then the memoized
  /// evaluator.
  double PatternFrequency2(const Pattern& translated,
                           ExistenceCheckMode mode);

  /// Cumulative work counters of the target-side evaluator.
  const FrequencyEvaluator::Stats& evaluator2_stats() const {
    return eval2_->stats();
  }

  /// The context's metric registry. Matchers resolve their counters here;
  /// when telemetry is disabled this hands out shared sinks.
  obs::MetricsRegistry& metrics() { return *metrics_; }
  const obs::MetricsRegistry& metrics() const { return *metrics_; }

  /// Live progress receiver shared by every matcher run on this context
  /// (null = no tracing).
  obs::SearchTracer* tracer() const { return tracer_; }
  void set_tracer(obs::SearchTracer* tracer) { tracer_ = tracer; }

  /// Span recorder shared by every matcher run on this context (null =
  /// span tracing off). The setter also re-points both frequency
  /// evaluators, so scan events land in the same timeline.
  obs::TraceRecorder* trace_recorder() const { return trace_recorder_; }
  void set_trace_recorder(obs::TraceRecorder* recorder) {
    trace_recorder_ = recorder;
    eval1_->set_trace_recorder(recorder);
    eval2_->set_trace_recorder(recorder);
  }

  /// Sets only this context's recorder, leaving the shared frequency
  /// evaluators pointed wherever they were. For per-request recorders
  /// on sibling contexts: the evaluators are shared across concurrent
  /// requests, so re-pointing them would cross-wire timelines. Scan
  /// events for such requests are picked up through the thread-local
  /// ambient recorder instead (obs::AmbientTraceScope).
  void set_local_trace_recorder(obs::TraceRecorder* recorder) {
    trace_recorder_ = recorder;
  }

  /// The execution governor every matcher run on this context polls.
  /// Disarmed by default (never trips); see `ArmBudget`.
  exec::ExecutionGovernor& governor() { return *governor_; }
  const exec::ExecutionGovernor& governor() const { return *governor_; }

  /// Arms the governor with `budget` (and optional cancellation token),
  /// wires the token into both frequency evaluators so long scans abort
  /// on cancellation, and — when the budget carries a memory ceiling —
  /// caps each evaluator's memo cache at a quarter of it, leaving the
  /// other half to the search frontier. Call before each budgeted run;
  /// fallback ladders re-arm with the remaining budget themselves.
  void ArmBudget(const exec::RunBudget& budget,
                 const exec::CancelToken* cancel = nullptr);

  /// Wires `cancel` into both frequency evaluators *without* arming the
  /// governor. For long-lived shared contexts (see serve/registry.h)
  /// whose evaluators need a drain token that outlives any single
  /// request — per-request budgets must arm each sibling's governor
  /// directly instead of calling `ArmBudget` here, because the
  /// evaluators are shared across all siblings and hold only one token.
  void SetEvaluatorCancel(const exec::CancelToken* cancel) {
    eval1_->set_cancel_token(cancel);
    eval2_->set_cancel_token(cancel);
  }

  /// Pairwise target-side co-occurrence ceilings (freq/cooccurrence.h),
  /// built on first call and shared with sibling contexts — the
  /// substrate of `BoundKind::kBitmapTight`. Thread-safe; after the
  /// one-time build every access is a lock-free read.
  const CooccurrenceIndex& cooccurrence2();

  /// Cumulative Proposition-3 pruning hits (patterns whose frequency
  /// evaluation was skipped because they cannot occur in log2).
  std::uint64_t existence_prune_hits() const {
    return existence_pruned_->value();
  }

  /// Everything the context knows, frozen: the registry's metrics plus
  /// the frequency evaluators' work counters, index lookups included,
  /// under `freq1.` / `freq2.`. Empty when telemetry is disabled.
  obs::TelemetrySnapshot SnapshotTelemetry() const;

 private:
  // Immutable once built, so siblings share them.
  std::shared_ptr<const LogIndex> index1_;
  std::shared_ptr<const LogIndex> index2_;
  std::vector<Pattern> patterns_;
  PatternIndex pattern_index_;
  // Shared (not unique): portfolio siblings reuse the base context's
  // evaluators so the memo cache amortizes across racing strategies.
  std::shared_ptr<FrequencyEvaluator> eval1_;
  std::shared_ptr<FrequencyEvaluator> eval2_;
  // Shared for the same reason as the evaluators: the lazily-built
  // matrix amortizes across racing strategies and parallel workers.
  std::shared_ptr<CooccurrenceIndex> cooc2_;
  std::vector<double> f1_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_;
  obs::SearchTracer* tracer_;
  obs::TraceRecorder* trace_recorder_;
  std::unique_ptr<exec::ExecutionGovernor> owned_governor_;
  exec::ExecutionGovernor* governor_;
  obs::Counter* existence_checks_;
  obs::Counter* existence_pruned_;
};

}  // namespace hematch

#endif  // HEMATCH_CORE_MATCHING_CONTEXT_H_
