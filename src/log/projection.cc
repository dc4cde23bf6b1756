#include "log/projection.h"

#include <algorithm>

namespace hematch {

EventLog ProjectFirstEvents(const EventLog& log, std::size_t num_events) {
  // A prefix of the ids, re-interned in order, keeps every id as it was.
  std::vector<bool> keep(log.num_events(), false);
  std::fill_n(keep.begin(), std::min(num_events, log.num_events()), true);
  return ProjectEventSubset(log, keep);
}

EventLog ProjectEventSubset(const EventLog& log, const std::vector<bool>& keep,
                            std::vector<EventId>* old_to_new) {
  EventLog out;
  std::vector<EventId> translate(log.num_events(), kInvalidEventId);
  for (EventId id = 0; id < log.num_events(); ++id) {
    if (id < keep.size() && keep[id]) {
      translate[id] = out.InternEvent(log.dictionary().Name(id));
    }
  }
  for (const Trace& trace : log.traces()) {
    Trace projected;
    for (EventId id : trace) {
      if (translate[id] != kInvalidEventId) {
        projected.push_back(translate[id]);
      }
    }
    if (!projected.empty()) {
      out.AddTrace(std::move(projected));
    }
  }
  if (old_to_new != nullptr) {
    *old_to_new = std::move(translate);
  }
  return out;
}

EventLog SelectFirstTraces(const EventLog& log, std::size_t num_traces) {
  EventLog out;
  for (EventId id = 0; id < log.num_events(); ++id) {
    out.InternEvent(log.dictionary().Name(id));
  }
  const std::size_t kept = std::min(num_traces, log.num_traces());
  for (std::size_t i = 0; i < kept; ++i) {
    out.AddTrace(log.traces()[i]);
  }
  return out;
}

}  // namespace hematch
