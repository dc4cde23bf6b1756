#include "baselines/vertex_edge_matcher.h"

#include "core/astar_matcher.h"
#include "core/pattern_set.h"

namespace hematch {

VertexEdgeMatcher::VertexEdgeMatcher(VertexEdgeOptions options)
    : options_(options) {}

Result<MatchResult> VertexEdgeMatcher::Match(MatchingContext& context) const {
  // Restricted instance: vertices + edges of G1 as the pattern set. The
  // sub-context borrows the caller's registry and tracer so the inner A*
  // run's telemetry (under the "vertex_edge." slug) lands in the same
  // place as every other method's.
  PatternSetOptions set_options;
  set_options.include_vertices = true;
  set_options.include_edges = true;
  ContextTelemetryOptions telemetry;
  telemetry.shared_registry = &context.metrics();
  telemetry.tracer = context.tracer();
  telemetry.shared_governor = &context.governor();
  telemetry.trace_recorder = context.trace_recorder();
  MatchingContext restricted(
      context.index1(), context.index2(),
      BuildPatternSet(context.graph1(), /*complex_patterns=*/{}, set_options),
      telemetry);

  AStarOptions astar_options;
  astar_options.scorer.bound = BoundKind::kTight;
  astar_options.scorer.partial = options_.partial;
  astar_options.max_expansions = options_.max_expansions;
  astar_options.name_override = name();
  const AStarMatcher astar(astar_options);
  return astar.Match(restricted);
}

}  // namespace hematch
