#include "graph/incremental_dependency_graph.h"

#include <algorithm>

#include "common/check.h"

namespace hematch {

void IncrementalDependencyGraph::EnsureEvents(std::size_t num_events) {
  if (num_events > vertex_support_.size()) {
    vertex_support_.resize(num_events, 0);
    seen_stamp_.resize(num_events, 0);
  }
}

void IncrementalDependencyGraph::AddTrace(const Trace& trace) {
  for (EventId v : trace) {
    EnsureEvents(static_cast<std::size_t>(v) + 1);
  }
  ++num_traces_;
  // Stamp-based "seen" marking avoids clearing a bitmap per trace.
  ++stamp_;
  seen_pairs_.clear();
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const EventId v = trace[i];
    if (seen_stamp_[v] != stamp_) {
      seen_stamp_[v] = stamp_;
      ++vertex_support_[v];
    }
    if (i + 1 < trace.size()) {
      const std::uint64_t key = PairKey(v, trace[i + 1]);
      if (seen_pairs_.insert(key).second) {
        ++edge_support_[key];
      }
    }
  }
}

void IncrementalDependencyGraph::AddLog(const EventLog& log) {
  EnsureEvents(log.num_events());
  for (const Trace& trace : log.traces()) {
    AddTrace(trace);
  }
}

double IncrementalDependencyGraph::VertexFrequency(EventId v) const {
  if (num_traces_ == 0 || v >= vertex_support_.size()) {
    return 0.0;
  }
  return static_cast<double>(vertex_support_[v]) /
         static_cast<double>(num_traces_);
}

double IncrementalDependencyGraph::EdgeFrequency(EventId u, EventId v) const {
  if (num_traces_ == 0) {
    return 0.0;
  }
  auto it = edge_support_.find(PairKey(u, v));
  if (it == edge_support_.end()) {
    return 0.0;
  }
  return static_cast<double>(it->second) /
         static_cast<double>(num_traces_);
}

std::size_t IncrementalDependencyGraph::EdgeSupport(EventId u,
                                                    EventId v) const {
  auto it = edge_support_.find(PairKey(u, v));
  return it == edge_support_.end() ? 0 : it->second;
}

DependencyGraph IncrementalDependencyGraph::Snapshot() const {
  return DependencyGraph::FromSupports(num_traces_, vertex_support_,
                                       edge_support_);
}

}  // namespace hematch
