#ifndef HEMATCH_CORE_MAPPING_SCORER_H_
#define HEMATCH_CORE_MAPPING_SCORER_H_

#include <limits>
#include <vector>

#include "core/bounding.h"
#include "core/mapping.h"
#include "core/matching_context.h"
#include "core/normal_distance.h"

namespace hematch {

/// Partial-mapping objective: any `v1` may map to ⊥ at a fixed
/// per-vertex penalty. The objective becomes
///
///   D^N_partial(M) = Σ_{p : V(p) fully mapped} d(p)
///                    − unmapped_penalty · |{v1 : M(v1) = ⊥}|
///
/// where a pattern containing a ⊥ event ("dead") contributes 0. The
/// default penalty of +∞ makes ⊥ never worthwhile and reproduces the
/// classic total-mapping objective bit-for-bit (all ⊥ branches are
/// disabled, not merely unattractive).
struct PartialMappingOptions {
  double unmapped_penalty = std::numeric_limits<double>::infinity();
  bool enabled() const {
    return unmapped_penalty < std::numeric_limits<double>::infinity();
  }
  friend bool operator==(const PartialMappingOptions& a,
                         const PartialMappingOptions& b) {
    return a.unmapped_penalty == b.unmapped_penalty;
  }
};

/// Options shared by every pattern-framework matcher.
struct ScorerOptions {
  /// Which `Δ(p, U2)` powers the `h` estimate.
  BoundKind bound = BoundKind::kTight;
  /// How Proposition 3 pruning is applied before frequency evaluation.
  ExistenceCheckMode existence = ExistenceCheckMode::kLinearization;
  /// Partial-mapping semantics (off by default: penalty = ∞).
  PartialMappingOptions partial;
};

/// Evaluates the two A* node values of Section 3 for arbitrary partial
/// mappings:
///
///  * `g(M)` — the pattern normal distance restricted to patterns whose
///    events are all mapped (Section 3.2);
///  * `h(M)` — an upper bound on what the remaining patterns can still
///    contribute (Section 3.3 simple bound, or Section 4 tight bound).
///
/// `g(M) + h(M)` is an upper bound on the pattern normal distance of any
/// completion of `M`; for a complete mapping `h = 0` and `g` is the exact
/// objective. One scorer instance is shared across a matcher run (and may
/// be shared across matchers) so that the context's frequency cache pays
/// off.
class MappingScorer {
 public:
  MappingScorer(MatchingContext& context, const ScorerOptions& options);

  /// Number of `patterns()[pid]`'s events mapped under `m`.
  std::size_t MappedEventCount(std::size_t pid, const Mapping& m) const;

  /// `d(p)` for a pattern all of whose events are mapped under `m`.
  double CompletedContribution(std::size_t pid, const Mapping& m);

  /// True when the pattern contains a ⊥ event under `m` (it can never
  /// contribute again). Always false when partial mappings are off.
  bool IsPatternDead(std::size_t pid, const Mapping& m) const;

  /// `CompletedContribution` that tolerates dead patterns (returns 0 for
  /// them). Use where every event of the pattern is *decided* — mapped
  /// or ⊥ — rather than necessarily mapped.
  double CompletedOrDeadContribution(std::size_t pid, const Mapping& m);

  /// `unmapped_penalty · |null sources|` of `m` (0 when partial is off).
  double NullPenalty(const Mapping& m) const;

  /// Penalty already forced on every completion of `m`: with `u`
  /// undecided sources and only `t` unused targets, at least `u - t`
  /// sources must still go to ⊥. 0 when partial is off.
  double ForcedNullPenalty(const Mapping& m, std::size_t num_unused) const;

  /// `g(M)`: sum of `d(p)` over fully-mapped patterns.
  double ComputeG(const Mapping& m);

  /// `h(M)`: sum of `Δ(p, M(V(p) \ U1) ∪ U2)` over the other patterns.
  double ComputeH(const Mapping& m);

  /// `h(M)` restricted to an explicit list of pattern ids known by the
  /// caller to be incomplete under `m` (the A* search tracks these per
  /// depth and skips the completeness rescans).
  double ComputeHForRemaining(const Mapping& m,
                              const std::vector<std::uint32_t>& remaining);

  /// `g + h`, each as `ComputeG` and `ComputeH` return it.
  struct Score {
    double g = 0.0;
    double h = 0.0;
    double total() const { return g + h; }
  };
  Score ComputeScore(const Mapping& m);

  MatchingContext& context() { return *context_; }
  const ScorerOptions& options() const { return options_; }

  /// Cumulative evaluation counters, shared with the context's registry
  /// (`scorer.g_evaluations` / `scorer.h_evaluations`).
  std::uint64_t g_evaluations() const { return g_evals_->value(); }
  std::uint64_t h_evaluations() const { return h_evals_->value(); }

 private:
  // The setup every h evaluation shares: counts it, and derives |U2|,
  // the ceilings of U2 and (kBitmapTight) the co-occurrence caps from
  // `m` into the members below. The caps are the best pair among the
  // unused targets and, for every target, its best co-occurrence with an
  // unused one: O(num_targets * |U2|) per node, O(|fixed|) per pattern.
  void PrepareH(const Mapping& m);

  // Δ for one incomplete pattern under the state `PrepareH(m)` left.
  double IncompleteBound(std::size_t pid, const Mapping& m);

  MatchingContext* context_;
  ScorerOptions options_;
  // Pairwise co-occurrence ceilings, bound at construction when the
  // bound kind is kBitmapTight (pays the context's one-time build).
  const CooccurrenceIndex* cooc_ = nullptr;
  // Per-evaluation state, rewritten by PrepareH; buffers keep their
  // capacity, so an evaluation allocates nothing once warm. This makes
  // a scorer single-threaded: each search thread builds its own.
  std::size_t num_unused_ = 0;
  FrequencyCeilings u2_ceilings_;
  std::vector<EventId> fixed_;  // Targets of one pattern's mapped events.
  // kBitmapTight only.
  std::vector<EventId> unused_;
  double max_unused_pair_ = 0.0;
  std::vector<double> best_with_unused_;
  obs::Counter* g_evals_;
  obs::Counter* h_evals_;
  obs::Counter* completed_contributions_;
};

}  // namespace hematch

#endif  // HEMATCH_CORE_MAPPING_SCORER_H_
