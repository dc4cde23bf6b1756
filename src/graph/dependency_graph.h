#ifndef HEMATCH_GRAPH_DEPENDENCY_GRAPH_H_
#define HEMATCH_GRAPH_DEPENDENCY_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "log/event_log.h"

namespace hematch {

/// The event dependency graph of an event log (Definition 1).
///
/// Vertices are the log's events. The labeling function `f` assigns:
///  * `f(v, v)`   — the fraction of traces containing event `v`;
///  * `f(u, v)`   — the fraction of traces in which `u` is immediately
///                  followed by `v` at least once.
/// Pairs that never occur consecutively carry frequency 0 and are not
/// edges of the graph ("we ignore those edges with frequency 0").
class DependencyGraph {
 public:
  /// Builds the dependency graph of `log` in one walk over its traces
  /// (O(total log length)).
  static DependencyGraph Build(const EventLog& log) {
    return Build(log, [](std::uint32_t, EventId) {});
  }

  /// The same walk, calling `on_first(t, v)` once for each trace `t` and
  /// each distinct event `v` of it, in trace order. `LogIndex`
  /// (freq/log_index.h) fills its posting lists and bitmap rows from
  /// this hook, so one walk over the log serves every per-log structure.
  template <typename OnFirstOccurrence>
  static DependencyGraph Build(const EventLog& log,
                               OnFirstOccurrence&& on_first);

  /// Number of events (vertices).
  std::size_t num_vertices() const { return vertex_freq_.size(); }
  /// Number of edges with non-zero frequency.
  std::size_t num_edges() const { return edge_list_.size(); }

  /// Normalized frequency of event `v` (0 for out-of-range ids).
  double VertexFrequency(EventId v) const;

  /// Normalized frequency of the consecutive pair `u v` (0 when absent).
  double EdgeFrequency(EventId u, EventId v) const;

  /// True when `u v` occurs consecutively in at least one trace.
  bool HasEdge(EventId u, EventId v) const {
    return EdgeFrequency(u, v) > 0.0;
  }

  /// Successors of `u` (targets of positive-frequency edges), ascending.
  const std::vector<EventId>& OutNeighbors(EventId u) const;

  /// Predecessors of `u` (sources of positive-frequency edges).
  const std::vector<EventId>& InNeighbors(EventId u) const;

  /// The edges touching `u` either way (a self-loop once) as (other
  /// endpoint, frequency), by descending frequency: the first one found
  /// here with its other endpoint in a set is `u`'s heaviest edge into it.
  const std::vector<std::pair<EventId, double>>& IncidentByFrequency(
      EventId u) const {
    return incident_[u];
  }

  /// All edges as (source, target) pairs, ascending.
  const std::vector<std::pair<EventId, EventId>>& edges() const {
    return edge_list_;
  }

  /// An edge with its frequency.
  struct WeightedEdge {
    EventId from, to;
    double frequency;
  };

  /// Every vertex by descending frequency (ties by id). The first vertex
  /// of a set found in this order carries the set's largest frequency.
  const std::vector<EventId>& vertices_by_frequency() const {
    return vertices_by_frequency_;
  }

  /// Every edge, self-loops included, by descending frequency (ties by
  /// (from, to)). The first edge found here with both endpoints in a set
  /// is the heaviest edge of the subgraph that set induces.
  const std::vector<WeightedEdge>& edges_by_frequency() const {
    return edges_by_frequency_;
  }

  /// Largest vertex frequency among `vertices` (0 if the set is empty).
  double MaxVertexFrequency(const std::vector<EventId>& vertices) const;

  /// Largest edge frequency within the subgraph induced by `vertices`
  /// (0 if that subgraph has no edges): the from-scratch form of the
  /// tight bound's edge ceiling (core/bounding.h), by neighbour scan.
  double MaxInducedEdgeFrequency(const std::vector<EventId>& vertices) const;

 private:
  /// The walk's counting state. Each vertex and each distinct
  /// consecutive pair keeps its support and the stamp (trace id + 1) of
  /// the last trace that counted it, so a trace counts each once without
  /// a per-trace set. Pairs live in a flat open-addressing table keyed by
  /// `(u << 32) | v`, where `stamp == 0` marks an empty slot.
  struct Counter {
    struct Slot {
      std::uint64_t key = 0;
      std::uint32_t stamp = 0;
      std::uint32_t support = 0;
    };

    explicit Counter(std::size_t num_events);

    /// True the first time the trace stamped `stamp` counts `v`.
    bool CountVertex(EventId v, std::uint32_t stamp) {
      if (vertex_stamp[v] == stamp) return false;
      vertex_stamp[v] = stamp;
      ++vertex_support[v];
      return true;
    }

    void CountEdge(EventId u, EventId v, std::uint32_t stamp) {
      const std::uint64_t key = (std::uint64_t{u} << 32) | v;
      std::size_t i = Home(key);
      while (slots[i].stamp != 0 && slots[i].key != key) {
        i = (i + 1) & (slots.size() - 1);
      }
      Slot& slot = slots[i];
      if (slot.stamp == 0) {
        slot = {key, stamp, 1};
        if (2 * ++used > slots.size()) Grow();
      } else if (slot.stamp != stamp) {
        slot.stamp = stamp;
        ++slot.support;
      }
    }

    /// Fibonacci hashing: the top bits of `key * 2^64 / phi`.
    std::size_t Home(std::uint64_t key) const {
      return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift);
    }

    /// Doubles the table once it is more than half full.
    void Grow();

    std::vector<std::uint32_t> vertex_stamp;
    std::vector<std::uint32_t> vertex_support;
    std::vector<Slot> slots;
    int shift = 0;
    std::size_t used = 0;
  };

  DependencyGraph() = default;

  /// The graph of a walk over `num_traces` traces: every per-vertex
  /// vector is sized from the counted degrees before it is filled.
  static DependencyGraph FromCounts(std::size_t num_traces, Counter counts);

  std::vector<double> vertex_freq_;
  std::vector<std::vector<EventId>> out_;
  std::vector<std::vector<double>> out_freq_;  // Beside out_.
  std::vector<std::vector<EventId>> in_;
  std::vector<std::vector<std::pair<EventId, double>>> incident_;
  std::vector<std::pair<EventId, EventId>> edge_list_;
  std::vector<EventId> vertices_by_frequency_;
  std::vector<WeightedEdge> edges_by_frequency_;
};

template <typename OnFirstOccurrence>
DependencyGraph DependencyGraph::Build(const EventLog& log,
                                       OnFirstOccurrence&& on_first) {
  const std::vector<Trace>& traces = log.traces();
  Counter counter(log.num_events());
  for (std::uint32_t t = 0; t < traces.size(); ++t) {
    const Trace& trace = traces[t];
    const std::uint32_t stamp = t + 1;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      if (counter.CountVertex(trace[i], stamp)) {
        on_first(t, trace[i]);
      }
      if (i + 1 < trace.size()) {
        counter.CountEdge(trace[i], trace[i + 1], stamp);
      }
    }
  }
  return FromCounts(traces.size(), std::move(counter));
}

}  // namespace hematch

#endif  // HEMATCH_GRAPH_DEPENDENCY_GRAPH_H_
