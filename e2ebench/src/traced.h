#ifndef E2EBENCH_TRACED_H_
#define E2EBENCH_TRACED_H_

/// \file
/// The traced pass: `MatchLogs`' sequential path called phase by phase
/// from the benchmark, with a span around each public call, and the
/// per-layer times read back from the recorded spans.

#include <map>
#include <string>

#include "api/match_pipeline.h"
#include "common/result.h"
#include "core/match_result.h"
#include "log/event_log.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "workloads.h"

namespace e2ebench {

/// Span names of the phases, shared with the per-layer metric code.
inline constexpr const char* kSpanJob = "job";
inline constexpr const char* kSpanPatternParse = "pattern.parse";
inline constexpr const char* kSpanGraphBuild = "graph.build";
inline constexpr const char* kSpanPatternSet = "pattern.set";
inline constexpr const char* kSpanContextBuild = "context.build";
inline constexpr const char* kSpanSearch = "search";
inline constexpr const char* kSpanHeuristic = "heuristic";

/// What `MatchLogs(log1, log2, options)` does for the sequential exact
/// ladder and the advanced heuristic, one public call at a time:
/// `ParsePattern`, `DependencyGraph::Build`, `BuildPatternSet`, the
/// `MatchingContext` constructor, then the matcher's `Match` (span
/// "search" for the exact ladder, "heuristic" for the heuristic). The
/// logs must not need swapping. `telemetry` receives the context's
/// counters (frequency memo, existence pruning).
hematch::Result<hematch::MatchResult> TracedMatch(
    hematch::obs::TraceRecorder* recorder, const hematch::EventLog& log1,
    const hematch::EventLog& log2,
    const hematch::MatchPipelineOptions& options,
    hematch::obs::TelemetrySnapshot* telemetry);

/// Aggregate of the spans of one name.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;  ///< Total minus the time in child spans.
};

/// A recorder large enough that no traced run drops a span.
hematch::obs::TraceRecorder MakeRecorder();

/// Writes `recorder`'s spans as a Chrome/Perfetto trace into the run's
/// output directory and names the file in the record.
void WriteTrace(const RunConfig& config,
                const hematch::obs::TraceRecorder& recorder,
                WorkloadResult& out);

/// Per-name totals of every span `recorder` holds.
std::map<std::string, SpanTotals> SpanTotalsByName(
    const hematch::obs::TraceRecorder& recorder);

/// Summed counters of the context snapshots of traced jobs.
struct ContextCounters {
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  std::uint64_t traces_scanned = 0;
  std::uint64_t existence_checks = 0;
  std::uint64_t existence_pruned = 0;

  void Add(const hematch::obs::TelemetrySnapshot& snapshot);
};

/// What the traced exact jobs of a batch workload add up to.
struct TracedJobs {
  std::size_t jobs = 0;
  double untraced_job_ms = 0.0;  ///< Summed wall time of the same jobs untraced.
  std::uint64_t mappings = 0;
  std::uint64_t nodes = 0;
  std::uint64_t fallbacks = 0;     ///< Jobs whose ladder ran > 1 stage.
  ContextCounters counters;
};

/// The per-layer metrics of the `MatchLogs` phases (graph, pattern,
/// context, search, freq, ladder, tracing overhead) from the
/// spans of traced jobs, plus every span name's count, total and self
/// time into the record. `api.remainder_ms` is the job spans' self time:
/// the part of a job no phase span covers.
void AddPhaseLayerMetrics(const TracedJobs& t,
                          const std::map<std::string, SpanTotals>& spans,
                          WorkloadResult& out);

}  // namespace e2ebench

#endif  // E2EBENCH_TRACED_H_
