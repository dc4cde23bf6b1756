#ifndef HEMATCH_LOG_EVENT_LOG_H_
#define HEMATCH_LOG_EVENT_LOG_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "log/event_dictionary.h"
#include "log/trace.h"

namespace hematch {

/// An event log: a collection of traces over one vocabulary of events.
///
/// This is the central data container of the library (Section 2.1 of the
/// paper). The dictionary is owned by the log; traces store dense
/// `EventId`s, so all downstream statistics (dependency graph, pattern
/// frequencies, inverted indices) are integer-indexed. Logs are plain
/// values: projection copies them, builders move them.
class EventLog {
 public:
  /// Appends a trace of already-interned event ids.
  /// All ids must be valid for this log's dictionary.
  void AddTrace(Trace trace);

  /// Interns `names` in order and appends the resulting trace.
  void AddTraceByNames(const std::vector<std::string>& names);

  /// Interns an event name without requiring it to occur in a trace
  /// (useful for declaring the vocabulary up front so that id order is
  /// controlled by the caller, not by trace order).
  EventId InternEvent(std::string_view name) { return dict_.Intern(name); }

  const EventDictionary& dictionary() const { return dict_; }

  const std::vector<Trace>& traces() const { return traces_; }
  std::size_t num_traces() const { return traces_.size(); }
  std::size_t num_events() const { return dict_.size(); }
  bool empty() const { return traces_.empty(); }

  /// Total number of event occurrences across all traces.
  std::size_t TotalLength() const;

  /// Renders one trace as space-separated event names (debugging / docs).
  std::string TraceToString(const Trace& trace) const;

 private:
  EventDictionary dict_;
  std::vector<Trace> traces_;
};

}  // namespace hematch

#endif  // HEMATCH_LOG_EVENT_LOG_H_
