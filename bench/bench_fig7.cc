// Reproduces Fig. 7: evaluation of the exact approaches over various
// numbers of events (real-like workload, 3000 traces, events 2..11).
// Series: Pattern-Simple, Pattern-Tight, Pattern-Bitmap (the
// co-occurrence-capped tight bound), Vertex, Vertex+Edge, Iterative.
//
// Expected shapes (paper): the pattern approaches have the highest
// F-measure; Pattern-Simple and Pattern-Tight return identical mappings
// (both exact) but Pattern-Tight expands far fewer A* tree nodes — up to
// two orders of magnitude less time at the largest event counts.

#include <iostream>

#include "baselines/iterative_matcher.h"
#include "baselines/vertex_edge_matcher.h"
#include "baselines/vertex_matcher.h"
#include "bench_util.h"
#include "core/astar_matcher.h"
#include "gen/bus_process.h"

int main() {
  using namespace hematch;
  const MatchingTask full = MakeBusManufacturerTask({});

  AStarOptions simple_options;
  simple_options.scorer.bound = BoundKind::kSimple;
  const AStarMatcher pattern_simple(simple_options);
  const AStarMatcher pattern_tight;
  AStarOptions bitmap_options;
  bitmap_options.scorer.bound = BoundKind::kBitmapTight;
  const AStarMatcher pattern_bitmap(bitmap_options);
  const VertexMatcher vertex;
  const VertexEdgeMatcher vertex_edge;
  const IterativeMatcher iterative;
  const std::vector<const Matcher*> matchers = {
      &pattern_simple, &pattern_tight, &pattern_bitmap, &vertex, &vertex_edge,
      &iterative};

  std::cout << "Fig. 7: exact approaches over # of events ("
            << full.log1.num_traces() << " traces)\n";
  bench::FigureTables tables(bench::MakeHeader("# events", matchers));
  for (std::size_t events = 2; events <= full.log1.num_events(); ++events) {
    tables.AddRows(std::to_string(events), matchers,
                   ProjectTaskEvents(full, events));
  }
  tables.Print("Fig. 7", "# events");
  return 0;
}
