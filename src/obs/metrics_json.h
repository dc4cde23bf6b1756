#ifndef HEMATCH_OBS_METRICS_JSON_H_
#define HEMATCH_OBS_METRICS_JSON_H_

// JSON (de)serialization of telemetry snapshots. The schema is documented
// in docs/OBSERVABILITY.md:
//
//   {
//     "schema": "hematch.telemetry.v1",
//     "counters":   { "<name>": <uint>, ... },
//     "gauges":     { "<name>": <double>, ... },
//     "histograms": { "<name>": { "bounds": [..], "counts": [..],
//                                 "sum": <double> }, ... }
//   }
//
// `TelemetryFromJson` parses exactly what `TelemetryToJson` emits, so
// snapshots round-trip; it is deliberately strict about the schema but
// tolerant of whitespace and key order. It walks the shared `obs/json.h`
// DOM, which this header also brings in for `JsonEscape`/`JsonNumber`.

#include <string>
#include <string_view>

#include "common/result.h"
#include "obs/json.h"
#include "obs/telemetry.h"

namespace hematch::obs {

/// Serializes `snapshot` as a pretty-printed JSON object. `depth` shifts
/// the whole object right by `depth * indent` spaces (for embedding into
/// a larger document); the first line is not indented so the object can
/// follow a key on the same line.
std::string TelemetryToJson(const TelemetrySnapshot& snapshot, int indent = 2,
                            int depth = 0);

/// Parses a snapshot serialized by `TelemetryToJson`. Unknown keys are
/// ignored; malformed JSON, a top level that is not an object, a counter
/// or bucket count that is not an exact non-negative integer, any other
/// mistyped value, or a histogram without `bounds.size()+1` counts is a
/// ParseError.
Result<TelemetrySnapshot> TelemetryFromJson(std::string_view json);

/// Writes `TelemetryToJson(snapshot)` to `path` (with a trailing
/// newline), creating or truncating the file.
Status WriteTelemetryJson(const TelemetrySnapshot& snapshot,
                          const std::string& path);

/// One heartbeat record as a single JSON line (no trailing newline),
/// for JSONL streams emitted during long runs:
///
///   { "schema": "hematch.heartbeat.v1", "seq": <n>,
///     "elapsed_ms": <double>, "counters": {..}, "gauges": {..},
///     "percentiles": { "<hist>": {"p50":..,"p95":..,"p99":..}, .. } }
///
/// Histograms are reduced to their percentile views to keep lines
/// short; the final full snapshot still carries the buckets.
///
/// When `windowed` is non-null its entries are folded into the same
/// maps with a `_w60` suffix (e.g. `serve.latency_ms_w60`), so a
/// long-running server reports trailing-window percentiles alongside
/// the frozen lifetime ones.
std::string TelemetryToHeartbeatLine(const TelemetrySnapshot& snapshot,
                                     std::uint64_t seq, double elapsed_ms,
                                     const TelemetrySnapshot* windowed =
                                         nullptr);

}  // namespace hematch::obs

#endif  // HEMATCH_OBS_METRICS_JSON_H_
