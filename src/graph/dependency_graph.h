#ifndef HEMATCH_GRAPH_DEPENDENCY_GRAPH_H_
#define HEMATCH_GRAPH_DEPENDENCY_GRAPH_H_

#include <cstddef>
#include <unordered_map>
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
  /// Builds the dependency graph of `log` in one pass
  /// (O(total log length)) through `IncrementalDependencyGraph`.
  static DependencyGraph Build(const EventLog& log);

  /// Builds a graph directly from per-trace supports: `vertex_support[v]`
  /// traces contain `v`; `edge_support[(u << 32) | v]` traces contain the
  /// consecutive pair `u v`. Used by the incremental maintenance path.
  static DependencyGraph FromSupports(
      std::size_t num_traces, const std::vector<std::size_t>& vertex_support,
      const std::unordered_map<std::uint64_t, std::size_t>& edge_support);

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
  DependencyGraph() = default;

  std::vector<double> vertex_freq_;
  std::vector<std::vector<EventId>> out_;
  std::vector<std::vector<double>> out_freq_;  // Beside out_.
  std::vector<std::vector<EventId>> in_;
  std::vector<std::vector<std::pair<EventId, double>>> incident_;
  std::vector<std::pair<EventId, EventId>> edge_list_;
  std::vector<EventId> vertices_by_frequency_;
  std::vector<WeightedEdge> edges_by_frequency_;
};

}  // namespace hematch

#endif  // HEMATCH_GRAPH_DEPENDENCY_GRAPH_H_
