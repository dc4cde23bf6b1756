#ifndef HEMATCH_LOG_XES_IO_H_
#define HEMATCH_LOG_XES_IO_H_

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>

#include "common/result.h"
#include "log/event_log.h"

namespace hematch {

/// XES (IEEE 1849, the standard process-mining event-log interchange
/// format) support — the practical route by which real ERP/BPM logs
/// would reach this library.
///
/// Reading extracts, per `<trace>`, the sequence of `<event>` elements
/// ordered as they appear (XES events are stored in order; an explicit
/// `time:timestamp` attribute, when present on every event of a trace,
/// re-sorts that trace). The event name is the `concept:name` string
/// attribute. Traces with no named events are dropped. All other
/// attributes, extensions, classifiers, and globals are ignored.
///
/// Writing produces a minimal valid XES document with `concept:name`
/// trace and event attributes.

/// How forgiving the XES reader is about malformed input. Real-world
/// exports are frequently truncated (killed jobs, full disks) or carry
/// junk attributes; the default lenient mode salvages every trace that
/// was completely read before the first defect. Either way the reader
/// never crashes on malformed input — defects surface as ParseError
/// Status values or as salvage, never as UB (`xes_fuzz.cc` enforces
/// this continuously).
struct XesReadOptions {
  /// Strict mode fails with ParseError on any structural defect:
  /// truncated documents, mismatched end tags, nested <trace>/<event>
  /// elements, events missing `concept:name`, and name/timestamp
  /// attributes missing their `value`. Lenient mode (default) keeps
  /// the traces completed before the defect, skips unnamed events, and
  /// tolerates mismatched end tags.
  bool strict = false;
  /// Hard ceiling on element nesting depth, guarding stack and memory
  /// against hostile or corrupt inputs. Exceeding it is a ParseError
  /// in strict mode and stops reading (salvaging prior traces) in
  /// lenient mode.
  std::size_t max_depth = 64;
};

/// Parses the XES document `document`.
Result<EventLog> ParseXesLog(std::string_view document,
                             const XesReadOptions& options = {});

/// Parses an XES document from `input`.
Result<EventLog> ReadXesLog(std::istream& input,
                            const XesReadOptions& options = {});

/// Parses the XES file at `path`.
Result<EventLog> ReadXesLogFile(const std::string& path,
                                const XesReadOptions& options = {});

/// Writes `log` as minimal XES.
Status WriteXesLog(const EventLog& log, std::ostream& output);

}  // namespace hematch

#endif  // HEMATCH_LOG_XES_IO_H_
