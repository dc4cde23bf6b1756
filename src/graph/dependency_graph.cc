#include "graph/dependency_graph.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "common/check.h"

namespace hematch {

// The pair table starts with room for two pairs per event at half load.
DependencyGraph::Counter::Counter(std::size_t num_events)
    : vertex_stamp(num_events, 0),
      vertex_support(num_events, 0),
      slots(std::bit_ceil(std::max<std::size_t>(16, 4 * num_events))),
      shift(64 - std::countr_zero(slots.size())) {}

void DependencyGraph::Counter::Grow() {
  std::vector<Slot> old(2 * slots.size());
  old.swap(slots);
  --shift;
  for (const Slot& slot : old) {
    if (slot.stamp == 0) continue;
    std::size_t i = Home(slot.key);
    while (slots[i].stamp != 0) i = (i + 1) & (slots.size() - 1);
    slots[i] = slot;
  }
}

DependencyGraph DependencyGraph::FromCounts(std::size_t num_traces,
                                            Counter counts) {
  DependencyGraph g;
  const std::size_t n = counts.vertex_support.size();
  g.vertex_freq_.assign(n, 0.0);
  g.out_.resize(n);
  g.out_freq_.resize(n);
  g.in_.resize(n);
  g.incident_.resize(n);
  g.vertices_by_frequency_.resize(n);
  std::iota(g.vertices_by_frequency_.begin(), g.vertices_by_frequency_.end(),
            EventId{0});
  if (num_traces == 0) {
    return g;
  }
  const double inv = 1.0 / static_cast<double>(num_traces);
  for (EventId v = 0; v < n; ++v) {
    g.vertex_freq_[v] = counts.vertex_support[v] * inv;
  }
  // Visiting the pairs in (u, v) order makes every neighbour list come
  // out ascending.
  std::vector<Counter::Slot>& pairs = counts.slots;
  std::erase_if(pairs, [](const Counter::Slot& s) { return s.stamp == 0; });
  std::sort(pairs.begin(), pairs.end(),
            [](const auto& a, const auto& b) { return a.key < b.key; });
  std::vector<std::uint32_t> out_degree(n, 0);
  std::vector<std::uint32_t> in_degree(n, 0);
  std::vector<std::uint32_t> incident_degree(n, 0);  // A self-loop once.
  for (const Counter::Slot& pair : pairs) {
    const auto u = static_cast<EventId>(pair.key >> 32);
    const auto v = static_cast<EventId>(pair.key);
    ++out_degree[u];
    ++in_degree[v];
    ++incident_degree[u];
    incident_degree[v] += u != v ? 1 : 0;
  }
  for (EventId v = 0; v < n; ++v) {
    g.out_[v].reserve(out_degree[v]);
    g.out_freq_[v].reserve(out_degree[v]);
    g.in_[v].reserve(in_degree[v]);
    g.incident_[v].reserve(incident_degree[v]);
  }
  g.edge_list_.reserve(pairs.size());
  g.edges_by_frequency_.reserve(pairs.size());
  for (const Counter::Slot& pair : pairs) {
    const auto u = static_cast<EventId>(pair.key >> 32);
    const auto v = static_cast<EventId>(pair.key);
    const double freq = pair.support * inv;
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
