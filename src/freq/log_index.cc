#include "freq/log_index.h"

namespace hematch {

LogIndex::LogIndex(const EventLog& log)
    : log_(&log),
      postings_(log.num_events(), log.num_traces()),
      bitmap_(log.num_events(), log.num_traces()),
      graph_(DependencyGraph::Build(log, [this](std::uint32_t t, EventId v) {
        postings_.Add(t, v);
        bitmap_.Add(t, v);
      })) {}

}  // namespace hematch
