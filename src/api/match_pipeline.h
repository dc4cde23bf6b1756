#ifndef HEMATCH_API_MATCH_PIPELINE_H_
#define HEMATCH_API_MATCH_PIPELINE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/match_result.h"
#include "core/mapping_scorer.h"
#include "core/matcher.h"
#include "exec/budget.h"
#include "exec/portfolio.h"
#include "log/event_log.h"
#include "obs/search_tracer.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "pattern/pattern.h"

namespace hematch {

/// Which matching algorithm the one-call facade runs.
enum class MatchMethod : std::uint8_t {
  kPatternTight,        ///< Exact A*, tight bound (default).
  kPatternSimple,       ///< Exact A*, simple bound.
  kParallelAStar,       ///< Parallel exact A* (HDA*), bitmap-tight bound.
  kHeuristicSimple,     ///< Greedy expansion.
  kHeuristicAdvanced,   ///< Algorithms 3 & 4.
  kVertex,              ///< Kang & Naughton, vertex form.
  kVertexEdge,          ///< Kang & Naughton, vertex+edge form.
  kIterative,           ///< Nejati et al., similarity propagation.
  kEntropy,             ///< Entropy-only features.
};

/// Options for `MatchLogs`.
struct MatchPipelineOptions {
  MatchMethod method = MatchMethod::kPatternTight;
  /// Complex patterns over the *source* log (the smaller-vocabulary side
  /// after the pipeline's orientation step). Textual forms are parsed
  /// against that log's dictionary.
  std::vector<std::string> patterns;
  /// Additionally mine discriminative patterns from the source log.
  bool mine_patterns = false;
  double mine_min_support = 0.10;
  /// Expansion budget for the exact methods.
  std::uint64_t max_expansions = 50'000'000;
  /// Run-wide resource budget (deadline / expansions / memory). The
  /// governor of the run's context is armed with it before matching;
  /// a tripped budget yields an anytime result, not an error.
  exec::RunBudget budget;
  /// Optional cooperative cancellation; must outlive the call.
  const exec::CancelToken* cancel = nullptr;
  /// Graceful degradation for the exact methods: when their budget
  /// trips, fall back to the advanced then the simple heuristic with
  /// the remaining budget (recording the chain in the outcome). Set
  /// false to get the exact matcher's own anytime result instead.
  bool degrade = true;
  /// Hedged portfolio mode for the exact methods (see exec/portfolio.h):
  /// instead of laddering the method's rungs one after another, race
  /// all of them (`RaceCard`) on worker threads under the shared budget
  /// and return the first certified-optimal result or the
  /// best-by-objective at the deadline. Per-strategy outcomes land in
  /// `result.stages` and `portfolio.*` telemetry. Ignored for the
  /// heuristic/baseline methods (nothing to hedge). Off by default — the
  /// single-threaded paths are untouched when this is false.
  bool portfolio = false;
  /// Worker-thread cap for portfolio mode; 0 = one thread per strategy.
  int portfolio_threads = 0;
  /// Search threads for `kParallelAStar` (0 = hardware concurrency).
  /// Ignored by every other method.
  int search_threads = 0;
  /// Bound / existence-check / partial-mapping configuration. Setting
  /// `scorer.partial.unmapped_penalty` finite enables partial mappings
  /// in every method that understands them (exact A*, both heuristics,
  /// Vertex, Vertex+Edge, the fallback ladder, and the portfolio); the
  /// Iterative/Entropy baselines always produce total mappings.
  ScorerOptions scorer;
  /// Collect structured metrics for this run (`MatchPipelineOutcome::
  /// telemetry`). When false the run pays no metric bookkeeping and the
  /// outcome's snapshot is empty.
  bool telemetry = true;
  /// Optional live progress receiver (see obs/search_tracer.h); must
  /// outlive the call. Null = no tracing.
  obs::SearchTracer* tracer = nullptr;
  /// Optional span recorder (obs/trace.h): pattern prep, context build,
  /// matcher / ladder / portfolio spans all land here, exportable as a
  /// Chrome/Perfetto trace afterwards. Shared ownership because the
  /// portfolio path hands it to detached workers that may outlive the
  /// call. Null = zero tracing overhead.
  std::shared_ptr<obs::TraceRecorder> trace_recorder;
  /// Heartbeat: when positive (and `heartbeat` is set), a watchdog-
  /// thread clock snapshots the run's telemetry every `heartbeat_ms`
  /// and hands it to `heartbeat` with a 0-based sequence number —
  /// periodic evidence from runs that hang or blow their budget. The
  /// callback runs on that clock's thread and must not block for long.
  double heartbeat_ms = 0.0;
  std::function<void(std::uint64_t seq, const obs::TelemetrySnapshot&)>
      heartbeat;
};

/// Outcome of the facade: the mapping plus the information callers
/// invariably want next.
struct MatchPipelineOutcome {
  MatchResult result;
  /// True when the pipeline swapped the logs so that |V1| <= |V2|; the
  /// returned mapping is then from `log2`'s events to `log1`'s.
  bool swapped = false;
  /// Convenience mirror of `result.termination`: how the run stopped.
  exec::TerminationReason termination = exec::TerminationReason::kCompleted;
  /// True when the fallback ladder had to run more than one stage
  /// (`result.stages` then records the chain with per-stage termination
  /// reasons).
  bool degraded = false;
  /// The patterns actually used (textual, over the source vocabulary) —
  /// provided plus mined.
  std::vector<std::string> used_patterns;
  /// Structured metrics of the run: the matcher's counters under its
  /// method slug (e.g. `pattern_tight.mappings_processed`), frequency
  /// cache/index counters under `freq1.`/`freq2.`, existence-pruning
  /// counters under `existence.`. Empty when `options.telemetry` was
  /// false. See docs/OBSERVABILITY.md for the taxonomy.
  obs::TelemetrySnapshot telemetry;
};

/// The matchers `options.method` runs, in degrade order. An exact
/// method (`kPatternTight`, `kPatternSimple`, `kParallelAStar`) yields
/// its exact rung, then the advanced heuristic, then the simple one —
/// only the exact rung when `options.degrade` is false. The heuristic
/// rungs score with the method's bound: simple for `kPatternSimple`,
/// tight otherwise. Any other method yields just its own matcher.
/// `skip` drops that many leading rungs, but never the last one (serve
/// sheds load this way). This is the one place the exact → heuristic
/// order is written down: `MatchLogs` ladders or races it, serve sheds
/// from it, and the CLI runs it.
std::vector<std::unique_ptr<Matcher>> MatcherRungs(
    const MatchPipelineOptions& options, std::size_t skip = 0);

/// `MatcherRungs(options)` as one matcher: the lone rung itself, or a
/// `FallbackMatcher` ladder over the rungs under `options.budget` and
/// `options.cancel`. Null for an unknown method.
std::unique_ptr<Matcher> MakeMatcher(const MatchPipelineOptions& options);

/// The portfolio race card for `options.method`: every rung of
/// `MatcherRungs`, degradation on or off, each named after its matcher.
std::vector<exec::PortfolioStrategy> RaceCard(
    const MatchPipelineOptions& options);

/// One-call convenience API: orient the logs (injective mappings need
/// |V1| <= |V2|), assemble the pattern set (vertices + edges + provided
/// + optionally mined patterns), build the context, and run the selected
/// matcher. Library users composing several runs should use
/// `MatchingContext` + a `Matcher` directly to share caches; this facade
/// is for the "just match these two logs" case.
Result<MatchPipelineOutcome> MatchLogs(
    const EventLog& log1, const EventLog& log2,
    const MatchPipelineOptions& options = {});

}  // namespace hematch

#endif  // HEMATCH_API_MATCH_PIPELINE_H_
