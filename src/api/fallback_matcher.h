#ifndef HEMATCH_API_FALLBACK_MATCHER_H_
#define HEMATCH_API_FALLBACK_MATCHER_H_

/// \file
/// Graceful degradation: a ladder of matchers run under one shared
/// budget.  The primary (typically exact A*) runs first; if its budget
/// trips, each fallback rung runs with whatever budget remains, and the
/// best complete mapping across all stages is returned.  The result
/// records the full fallback chain (`MatchResult::stages`) and keeps
/// the *first* trip reason as its termination — "this run degraded
/// because the deadline fired" — even though a fallback completed.
///
/// See docs/ROBUSTNESS.md for the ladder semantics and exit-code
/// conventions.

#include <memory>
#include <string>
#include <vector>

#include "core/astar_matcher.h"
#include "core/matcher.h"
#include "exec/budget.h"

namespace hematch {

/// Budget shared by the whole ladder.
struct FallbackOptions {
  exec::RunBudget budget;
  /// Optional cooperative cancellation; must outlive the call.
  const exec::CancelToken* cancel = nullptr;
};

/// Runs a ladder of matchers under one budget, degrading down the rungs
/// as stages exhaust it.  `name()` is the primary rung's name, so
/// method slugs, CLI tables, and JSON stay stable whether or not the
/// run degraded; per-stage telemetry lands under each rung's own slug.
class FallbackMatcher : public Matcher {
 public:
  /// `ladder` must be non-empty; rung 0 is the primary.
  FallbackMatcher(std::vector<std::unique_ptr<Matcher>> ladder,
                  FallbackOptions options = {});

  /// The canonical ladder: exact A* with the given options, degrading
  /// down the heuristic rungs of `MatcherRungs` (api/match_pipeline.h)
  /// for the pattern method of the same bound — simple for a simple
  /// bound, tight for any other.
  static std::unique_ptr<FallbackMatcher> ExactWithHeuristicFallbacks(
      const AStarOptions& astar, FallbackOptions options = {});

  std::string name() const override;
  Result<MatchResult> Match(MatchingContext& context) const override;

 private:
  std::vector<std::unique_ptr<Matcher>> ladder_;
  FallbackOptions options_;
};

}  // namespace hematch

#endif  // HEMATCH_API_FALLBACK_MATCHER_H_
