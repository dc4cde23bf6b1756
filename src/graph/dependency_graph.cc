#include "graph/dependency_graph.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"
#include "graph/incremental_dependency_graph.h"

namespace hematch {

DependencyGraph DependencyGraph::Build(const EventLog& log) {
  IncrementalDependencyGraph supports;
  supports.AddLog(log);
  return supports.Snapshot();
}

DependencyGraph DependencyGraph::FromSupports(
    std::size_t num_traces, const std::vector<std::size_t>& vertex_support,
    const std::unordered_map<std::uint64_t, std::size_t>& edge_support) {
  DependencyGraph g;
  const std::size_t n = vertex_support.size();
  g.vertex_freq_.assign(n, 0.0);
  g.out_.assign(n, {});
  g.out_freq_.assign(n, {});
  g.in_.assign(n, {});
  g.incident_.assign(n, {});
  g.vertices_by_frequency_.resize(n);
  std::iota(g.vertices_by_frequency_.begin(), g.vertices_by_frequency_.end(),
            EventId{0});
  if (num_traces == 0) {
    return g;
  }
  const double inv = 1.0 / static_cast<double>(num_traces);
  for (EventId v = 0; v < n; ++v) {
    g.vertex_freq_[v] = vertex_support[v] * inv;
  }
  // Hash iteration order is nondeterministic; visiting the pairs in
  // (u, v) order makes every neighbour list come out ascending.
  std::vector<std::pair<std::uint64_t, std::size_t>> pairs(
      edge_support.begin(), edge_support.end());
  std::sort(pairs.begin(), pairs.end());
  for (const auto& [key, support] : pairs) {
    if (support == 0) {
      continue;  // Zero-frequency pairs are not edges.
    }
    const EventId u = static_cast<EventId>(key >> 32);
    const EventId v = static_cast<EventId>(key & 0xffffffffULL);
    HEMATCH_CHECK(u < n && v < n, "edge support references unknown events");
    const double freq = support * inv;
    g.out_[u].push_back(v);
    g.out_freq_[u].push_back(freq);
    g.in_[v].push_back(u);
    g.incident_[u].emplace_back(v, freq);
    if (u != v) {
      g.incident_[v].emplace_back(u, freq);
    }
    g.edge_list_.emplace_back(u, v);
    g.edges_by_frequency_.push_back({u, v, freq});
  }
  std::stable_sort(g.vertices_by_frequency_.begin(),
                   g.vertices_by_frequency_.end(), [&g](EventId a, EventId b) {
                     return g.vertex_freq_[a] > g.vertex_freq_[b];
                   });
  std::stable_sort(g.edges_by_frequency_.begin(), g.edges_by_frequency_.end(),
                   [](const WeightedEdge& a, const WeightedEdge& b) {
                     return a.frequency > b.frequency;
                   });
  for (auto& incident : g.incident_) {
    std::stable_sort(incident.begin(), incident.end(),
                     [](const auto& a, const auto& b) {
                       return a.second > b.second;
                     });
  }
  return g;
}

double DependencyGraph::VertexFrequency(EventId v) const {
  if (v >= vertex_freq_.size()) {
    return 0.0;
  }
  return vertex_freq_[v];
}

double DependencyGraph::EdgeFrequency(EventId u, EventId v) const {
  if (u >= out_.size()) {
    return 0.0;
  }
  const std::vector<EventId>& out = out_[u];
  const auto it = std::lower_bound(out.begin(), out.end(), v);
  return it == out.end() || *it != v ? 0.0 : out_freq_[u][it - out.begin()];
}

const std::vector<EventId>& DependencyGraph::OutNeighbors(EventId u) const {
  HEMATCH_CHECK(u < out_.size(),
                "DependencyGraph::OutNeighbors vertex out of range");
  return out_[u];
}

const std::vector<EventId>& DependencyGraph::InNeighbors(EventId u) const {
  HEMATCH_CHECK(u < in_.size(),
                "DependencyGraph::InNeighbors vertex out of range");
  return in_[u];
}

double DependencyGraph::MaxVertexFrequency(
    const std::vector<EventId>& vertices) const {
  double best = 0.0;
  for (EventId v : vertices) {
    best = std::max(best, VertexFrequency(v));
  }
  return best;
}

double DependencyGraph::MaxInducedEdgeFrequency(
    const std::vector<EventId>& vertices) const {
  std::vector<char> in_set(num_vertices(), 0);
  for (EventId v : vertices) {
    if (v < in_set.size()) in_set[v] = 1;
  }
  double best = 0.0;
  for (EventId u : vertices) {
    if (u >= out_.size()) continue;
    for (std::size_t i = 0; i < out_[u].size(); ++i) {
      if (in_set[out_[u][i]] != 0) {
        best = std::max(best, out_freq_[u][i]);
      }
    }
  }
  return best;
}

}  // namespace hematch
