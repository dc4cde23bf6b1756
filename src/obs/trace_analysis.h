#ifndef HEMATCH_OBS_TRACE_ANALYSIS_H_
#define HEMATCH_OBS_TRACE_ANALYSIS_H_

/// \file
/// Reads back the Chrome trace-event JSON that `TraceRecorder` emits and
/// turns it into a profile: self/total time per span name, the critical
/// path from the run root, and per-thread utilization. Shared by the
/// `hematch_trace` CLI tool and the round-trip tests, so "parse what we
/// emit" is enforced in CI rather than promised in a comment.
///
/// The parser accepts the general trace-event dialect (an object with a
/// `traceEvents` array, or a bare array of events), not just our own
/// writer's output, so traces lightly edited by other tools still load.
/// The JSON itself is read by `obs/json.h`, included here so callers of
/// this header keep seeing `JsonValue` and `ParseJson`.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "obs/json.h"
#include "obs/trace.h"

namespace hematch::obs {

/// A trace file decoded back into recorder events.
struct ParsedTrace {
  std::vector<TraceEvent> events;  ///< Spans, instants, counters.
  std::map<std::uint32_t, std::string> thread_names;
  std::uint64_t dropped_events = 0;
};

/// Decodes Chrome trace-event JSON ("X"/"i"/"C" events plus
/// `thread_name` metadata). Unknown phases are skipped.
Result<ParsedTrace> ParseChromeTrace(std::string_view json);

/// Aggregate timing for one span name.
struct SpanNameStats {
  std::string name;
  std::uint64_t count = 0;
  double total_us = 0.0;  ///< Sum of span durations.
  double self_us = 0.0;   ///< Total minus time in child spans.
  double max_us = 0.0;    ///< Longest single span.
};

/// One hop of the critical path, root first.
struct CriticalPathStep {
  std::string name;
  SpanId id = 0;
  std::uint32_t tid = 0;
  double start_us = 0.0;
  double dur_us = 0.0;
};

/// Busy time per thread (union of its span intervals, so nested spans
/// are not double-counted).
struct ThreadUtilization {
  std::uint32_t tid = 0;
  std::string name;
  std::uint64_t spans = 0;
  double busy_us = 0.0;
  double utilization = 0.0;  ///< busy_us / trace wall time.
};

/// The full profile for one trace.
struct TraceReport {
  double wall_us = 0.0;  ///< First event start to last span end.
  std::vector<SpanNameStats> by_name;  ///< Sorted by self time, descending.
  std::vector<CriticalPathStep> critical_path;
  std::vector<ThreadUtilization> threads;
  std::uint64_t span_count = 0;
  std::uint64_t instant_count = 0;
  std::uint64_t counter_count = 0;
  std::uint64_t dropped_events = 0;
};

/// Computes the profile. Critical path: starting from the longest root
/// span, repeatedly descend into the child span that finishes last —
/// the chain that bounded this run's wall-clock.
TraceReport AnalyzeTrace(const ParsedTrace& trace);

/// Human-readable rendering (the `hematch_trace` output): hottest spans
/// by self time (top `top_n`), the critical path, and thread
/// utilization.
std::string FormatTraceReport(const TraceReport& report,
                              std::size_t top_n = 15);

/// Keeps the spans belonging to one served request: every span carrying
/// a `request_id` arg equal to `request_id`, plus all their transitive
/// descendants (via parent links), plus instants/counters that fall
/// inside any kept span's interval on the same thread. Thread names and
/// the dropped-event count carry over. An id nobody carries yields an
/// empty event list — callers should treat that as "request not in this
/// trace".
ParsedTrace FilterTraceByRequest(const ParsedTrace& trace,
                                 std::uint64_t request_id);

/// Renders the request's spans as an indented tree (children under
/// parents, siblings in start order), one line per span with start
/// offset and duration — the drill-down view for
/// `hematch_trace --request`. Orphaned spans (parent outside the
/// filtered set) root the tree alongside true roots.
std::string FormatSpanTree(const ParsedTrace& trace);

}  // namespace hematch::obs

#endif  // HEMATCH_OBS_TRACE_ANALYSIS_H_
