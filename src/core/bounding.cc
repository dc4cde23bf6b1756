#include "core/bounding.h"

#include <algorithm>

namespace hematch {

FrequencyCeilings ComputeCeilings(const DependencyGraph& g2,
                                  const std::vector<EventId>& targets) {
  FrequencyCeilings ceilings;
  ceilings.max_vertex = g2.MaxVertexFrequency(targets);
  ceilings.max_edge = g2.MaxInducedEdgeFrequency(targets);
  return ceilings;
}

FrequencyCeilings UnusedTargetCeilings(const DependencyGraph& g2,
                                       const Mapping& m) {
  FrequencyCeilings ceilings;
  for (EventId v : g2.vertices_by_frequency()) {
    if (IsUnusedTarget(m, v)) {
      ceilings.max_vertex = g2.VertexFrequency(v);
      break;
    }
  }
  for (const DependencyGraph::WeightedEdge& e : g2.edges_by_frequency()) {
    if (IsUnusedTarget(m, e.from) && IsUnusedTarget(m, e.to)) {
      ceilings.max_edge = e.frequency;
      break;
    }
  }
  return ceilings;
}

double TightUpperBound(const Pattern& pattern, double f1,
                       const FrequencyCeilings& ceilings, double f2_cap) {
  if (f1 <= 0.0) {
    return 0.0;  // d(p) is 0 for any f2 under the zero-frequency convention.
  }
  double f_min = ceilings.max_vertex;  // Table 2 case 1: general pattern.
  if (pattern.size() >= 2) {
    // Table 2 cases 2-4: any match contributes a consecutive pair inside
    // the target set per allowed order, so f2 <= w(p) * fe.
    const double omega = static_cast<double>(pattern.NumLinearizations());
    f_min = std::min(f_min, omega * ceilings.max_edge);
  }
  f_min = std::min(f_min, f2_cap);
  if (f_min < f1) {
    return 1.0 - (f1 - f_min) / (f1 + f_min);
  }
  return 1.0;
}

double PatternUpperBound(const Pattern& pattern, double f1,
                         const std::vector<EventId>& targets,
                         const DependencyGraph& g2) {
  if (pattern.size() > targets.size()) {
    return 0.0;  // The pattern cannot be mapped into `targets` at all.
  }
  return TightUpperBound(pattern, f1, ComputeCeilings(g2, targets));
}

}  // namespace hematch
