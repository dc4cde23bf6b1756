#ifndef HEMATCH_GRAPH_INCREMENTAL_DEPENDENCY_GRAPH_H_
#define HEMATCH_GRAPH_INCREMENTAL_DEPENDENCY_GRAPH_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "graph/dependency_graph.h"
#include "log/event_log.h"

namespace hematch {

/// A dependency graph (Definition 1) maintained *incrementally* as traces
/// arrive — the online counterpart of `DependencyGraph::Build` for the
/// streaming/CEP settings the paper's introduction motivates (matching
/// live systems whose logs keep growing).
///
/// Supports O(trace length) ingestion per trace and O(1) frequency
/// queries at any point; `Snapshot()` materializes an immutable
/// `DependencyGraph`-equivalent view for the matchers (they consume
/// normalized frequencies, which change with every ingested trace).
///
/// The vocabulary may grow over time: unseen ids are admitted by
/// `EnsureEvents`, or implicitly by `AddTrace` over a log whose
/// dictionary already interned them.
class IncrementalDependencyGraph {
 public:
  IncrementalDependencyGraph() = default;

  /// Grows the vertex set to at least `num_events`.
  void EnsureEvents(std::size_t num_events);

  /// Ingests one trace: per-trace vertex supports and distinct
  /// consecutive-pair supports, exactly as in Definition 1.
  void AddTrace(const Trace& trace);

  /// Ingests every trace of `log` (and adopts its vocabulary size).
  void AddLog(const EventLog& log);

  std::size_t num_traces() const { return num_traces_; }
  std::size_t num_events() const { return vertex_support_.size(); }

  /// Current normalized frequencies (0 when nothing ingested).
  double VertexFrequency(EventId v) const;
  double EdgeFrequency(EventId u, EventId v) const;

  /// Raw supports (trace counts).
  std::size_t EdgeSupport(EventId u, EventId v) const;

  /// Materializes the equivalent batch `DependencyGraph` (by replaying
  /// into an `EventLog`-free constructor path): frequencies, adjacency,
  /// and edge lists match `DependencyGraph::Build` over the same traces
  /// (property-tested).
  DependencyGraph Snapshot() const;

 private:
  static std::uint64_t PairKey(EventId u, EventId v) {
    return (static_cast<std::uint64_t>(u) << 32) | v;
  }

  std::size_t num_traces_ = 0;
  std::vector<std::size_t> vertex_support_;
  std::unordered_map<std::uint64_t, std::size_t> edge_support_;
  // Scratch buffers reused across AddTrace calls.
  mutable std::vector<std::uint32_t> seen_stamp_;
  mutable std::uint32_t stamp_ = 0;
  mutable std::unordered_set<std::uint64_t> seen_pairs_;
};

}  // namespace hematch

#endif  // HEMATCH_GRAPH_INCREMENTAL_DEPENDENCY_GRAPH_H_
