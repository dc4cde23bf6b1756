#ifndef HEMATCH_CORE_BOUNDING_H_
#define HEMATCH_CORE_BOUNDING_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "core/mapping.h"
#include "graph/dependency_graph.h"
#include "pattern/pattern.h"

namespace hematch {

/// Which upper bound `Δ(p, U2)` the search uses for the `h` function.
enum class BoundKind : std::uint8_t {
  /// Section 3.3: each remaining pattern may contribute up to 1.0
  /// (`h = |P \ P_M'|`). Cheap and very loose — the paper's
  /// "Pattern-Simple".
  kSimple,
  /// Section 4 / Algorithm 2 / Table 2: bound the reachable frequency by
  /// the maximum vertex frequency `fn` and `w(p)` times the maximum edge
  /// frequency `fe` among the events the pattern can still be mapped to —
  /// the paper's "Pattern-Tight".
  kTight,
  /// kTight further capped by pairwise trace co-occurrence ceilings from
  /// the bitmap index (freq/cooccurrence.h): a trace matches a pattern
  /// only if it contains every pattern event, so `f2` can never exceed
  /// the co-occurrence fraction of any event pair the translated pattern
  /// is forced to include. Strictly tighter than kTight (each extra cap
  /// is a true upper bound on the reachable `f2`), hence still
  /// admissible.
  kBitmapTight,
};

/// True for the bound kinds that need per-node frequency ceilings over
/// `U2` (everything except the Section 3.3 constant bound).
inline bool BoundUsesCeilings(BoundKind kind) {
  return kind != BoundKind::kSimple;
}

/// Frequency ceilings over a set of candidate target events: the largest
/// vertex frequency and the largest edge frequency of the induced
/// subgraph. These cap the frequency of any pattern mapped into the set.
struct FrequencyCeilings {
  double max_vertex = 0.0;
  double max_edge = 0.0;
};

/// Computes ceilings for the target set `targets` in `g2` from scratch
/// (O(|targets| + induced edges)). The reference form of
/// `UnusedTargetCeilings`.
FrequencyCeilings ComputeCeilings(const DependencyGraph& g2,
                                  const std::vector<EventId>& targets);

/// True when target `t` is in `U2`: inside `m`'s target range and unused.
inline bool IsUnusedTarget(const Mapping& m, EventId t) {
  return t < m.num_targets() && !m.IsTargetUsed(t);
}

/// The ceilings of `U2`, the targets `m` leaves unused, read off `g2`'s
/// frequency-sorted orders: `max_vertex` is the frequency of the first
/// unused vertex in `vertices_by_frequency()`, `max_edge` the frequency
/// of the first edge in `edges_by_frequency()` with both endpoints
/// unused. Each walk skips only used targets and their edges, so a node
/// of the search pays O(|M| + edges touching M), not O(|U2| + E).
/// Equal, bit for bit, to `ComputeCeilings(g2, m.UnusedTargets())`.
FrequencyCeilings UnusedTargetCeilings(const DependencyGraph& g2,
                                       const Mapping& m);

/// The tight upper bound of Algorithm 2 given precomputed ceilings:
///
///   f_min = min(fn, w(p) * fe)   for patterns with >= 2 events
///   f_min = fn                    for vertex patterns (no edges involved)
///   Δ     = 1 - (f1 - f_min)/(f1 + f_min)   when f_min < f1, else 1.0
///
/// `f1` is the pattern's source-log frequency. When `f1` is 0 the bound is
/// 0 (the contribution convention gives d(p) = 0 whenever f1 = 0).
///
/// Note: the journal text's Algorithm 2 lines 9-12 print the comparison
/// the wrong way around (as printed it would return a value above 1.0);
/// this implements the evidently intended direction, which is also the
/// direction that makes the bound admissible. See DESIGN.md.
///
/// `f2_cap` is an optional additional upper bound on the reachable
/// target frequency (kBitmapTight's co-occurrence ceiling); pass
/// +infinity to disable. `f_min` becomes `min(f_min, f2_cap)`.
double TightUpperBound(const Pattern& pattern, double f1,
                       const FrequencyCeilings& ceilings,
                       double f2_cap = std::numeric_limits<double>::infinity());

/// Full `Δ(p, U2)` (Problem 2): 0 when `|V(p)| > |targets|` (the pattern
/// no longer fits), otherwise `TightUpperBound` over the ceilings of
/// `targets`. This is the self-contained form used in tests; the matchers
/// use the two-step form to share ceilings across patterns.
double PatternUpperBound(const Pattern& pattern, double f1,
                         const std::vector<EventId>& targets,
                         const DependencyGraph& g2);

}  // namespace hematch

#endif  // HEMATCH_CORE_BOUNDING_H_
