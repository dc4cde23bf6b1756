#include "core/mapping_scorer.h"

#include <algorithm>

#include "common/check.h"

namespace hematch {

MappingScorer::MappingScorer(MatchingContext& context,
                             const ScorerOptions& options)
    : context_(&context),
      options_(options),
      g_evals_(context.metrics().GetCounter("scorer.g_evaluations")),
      h_evals_(context.metrics().GetCounter("scorer.h_evaluations")),
      completed_contributions_(
          context.metrics().GetCounter("scorer.completed_contributions")) {
  if (options_.bound == BoundKind::kBitmapTight) {
    cooc_ = &context.cooccurrence2();
  }
}

std::size_t MappingScorer::MappedEventCount(std::size_t pid,
                                            const Mapping& m) const {
  const Pattern& p = context_->patterns()[pid];
  std::size_t mapped = 0;
  for (EventId v : p.events()) {
    if (m.IsSourceMapped(v)) {
      ++mapped;
    }
  }
  return mapped;
}

double MappingScorer::CompletedContribution(std::size_t pid,
                                            const Mapping& m) {
  completed_contributions_->Increment();
  const Pattern& p = context_->patterns()[pid];
  const double f1 = context_->PatternFrequency1(pid);
  // Vertex and edge patterns dominate the pattern set; their translated
  // frequencies are dependency-graph labels, so skip building the
  // translated pattern object entirely.
  if (p.IsVertexPattern()) {
    const EventId t = m.TargetOf(p.event());
    HEMATCH_DCHECK(t != kInvalidEventId, "pattern event unmapped");
    return FrequencySimilarity(f1, context_->graph2().VertexFrequency(t));
  }
  if (p.IsEdgePattern()) {
    const EventId tu = m.TargetOf(p.events()[0]);
    const EventId tv = m.TargetOf(p.events()[1]);
    HEMATCH_DCHECK(tu != kInvalidEventId && tv != kInvalidEventId,
                   "pattern event unmapped");
    return FrequencySimilarity(f1, context_->graph2().EdgeFrequency(tu, tv));
  }
  std::optional<Pattern> translated = m.TranslatePattern(p);
  HEMATCH_CHECK(translated.has_value(),
                "CompletedContribution on a pattern with unmapped events");
  const double f2 =
      context_->PatternFrequency2(*translated, options_.existence);
  return FrequencySimilarity(f1, f2);
}

bool MappingScorer::IsPatternDead(std::size_t pid, const Mapping& m) const {
  if (!options_.partial.enabled() || m.num_null_sources() == 0) {
    return false;
  }
  const Pattern& p = context_->patterns()[pid];
  for (EventId v : p.events()) {
    if (m.IsSourceNull(v)) {
      return true;
    }
  }
  return false;
}

double MappingScorer::CompletedOrDeadContribution(std::size_t pid,
                                                  const Mapping& m) {
  if (IsPatternDead(pid, m)) {
    return 0.0;
  }
  return CompletedContribution(pid, m);
}

double MappingScorer::NullPenalty(const Mapping& m) const {
  if (!options_.partial.enabled() || m.num_null_sources() == 0) {
    return 0.0;
  }
  return options_.partial.unmapped_penalty *
         static_cast<double>(m.num_null_sources());
}

double MappingScorer::ForcedNullPenalty(const Mapping& m,
                                        std::size_t num_unused) const {
  if (!options_.partial.enabled()) {
    return 0.0;
  }
  const std::size_t undecided =
      m.num_sources() - m.size() - m.num_null_sources();
  if (undecided <= num_unused) {
    return 0.0;
  }
  return options_.partial.unmapped_penalty *
         static_cast<double>(undecided - num_unused);
}

double MappingScorer::ComputeG(const Mapping& m) {
  g_evals_->Increment();
  double g = 0.0;
  for (std::size_t pid = 0; pid < context_->num_patterns(); ++pid) {
    const Pattern& p = context_->patterns()[pid];
    if (MappedEventCount(pid, m) == p.size()) {
      g += CompletedContribution(pid, m);
    }
  }
  return g - NullPenalty(m);
}

void MappingScorer::PrepareH(const Mapping& m) {
  h_evals_->Increment();
  // Each mapped pair consumes one target; ⊥ sources consume none.
  num_unused_ = m.num_targets() - m.size();
  if (!BoundUsesCeilings(options_.bound)) {
    return;
  }
  u2_ceilings_ = UnusedTargetCeilings(context_->graph2(), m);
  if (cooc_ == nullptr) {
    return;
  }
  unused_.clear();
  for (EventId t = 0; t < m.num_targets(); ++t) {
    if (!m.IsTargetUsed(t)) {
      unused_.push_back(t);
    }
  }
  max_unused_pair_ = cooc_->MaxPairAmong(unused_);
  best_with_unused_.assign(context_->num_targets(), 0.0);
  for (EventId t = 0; t < best_with_unused_.size(); ++t) {
    double best = 0.0;
    for (EventId u : unused_) {
      best = std::max(best, cooc_->At(t, u));
    }
    best_with_unused_[t] = best;
  }
}

double MappingScorer::IncompleteBound(std::size_t pid, const Mapping& m) {
  // A pattern with a ⊥ event contributes 0 to every completion; this is
  // both required for admissibility bookkeeping and strictly tighter
  // than either Δ estimate.
  if (IsPatternDead(pid, m)) {
    return 0.0;
  }
  if (options_.bound == BoundKind::kSimple) {
    return 1.0;  // Section 3.3: each remaining pattern contributes <= 1.
  }
  const Pattern& p = context_->patterns()[pid];

  // Collect the targets already fixed for this pattern's mapped events.
  fixed_.clear();
  for (EventId v : p.events()) {
    const EventId t = m.TargetOf(v);
    if (t != kInvalidEventId) {
      fixed_.push_back(t);
    }
  }
  // Δ = 0 when the pattern no longer fits into M(V(p) \ U1) ∪ U2.
  if (p.size() > num_unused_ + fixed_.size()) {
    return 0.0;
  }

  // Extend the U2 ceilings with the fixed targets: vertices directly,
  // edges by walking each fixed target's incident edges, heaviest first,
  // to the first whose other endpoint lies in the union (U2 ∪ fixed), or
  // to the first no heavier than the ceiling so far. This yields exactly
  // the induced-subgraph ceilings of Algorithm 2 for the set
  // M(V(p) \ U1) ∪ U2 in O(|p| * degree) instead of O(|U2| + E).
  FrequencyCeilings ceilings = u2_ceilings_;
  const DependencyGraph& g2 = context_->graph2();
  for (EventId t : fixed_) {
    ceilings.max_vertex = std::max(ceilings.max_vertex, g2.VertexFrequency(t));
    for (const auto& [w, freq] : g2.IncidentByFrequency(t)) {
      if (freq <= ceilings.max_edge) {
        break;
      }
      if (IsUnusedTarget(m, w) ||
          std::find(fixed_.begin(), fixed_.end(), w) != fixed_.end()) {
        ceilings.max_edge = freq;
        break;
      }
    }
  }

  // kBitmapTight: cap the reachable f2 by pairwise trace co-occurrence.
  // Every completion translates the pattern to `fixed ∪ (free events
  // drawn from U2)`, and a trace matches only if it contains all of
  // them — so each forced pair yields a valid ceiling, and the minimum
  // over the pair families below stays a true upper bound (Δ remains
  // admissible).
  double f2_cap = std::numeric_limits<double>::infinity();
  if (cooc_ != nullptr && p.size() >= 2) {
    for (std::size_t i = 0; i < fixed_.size(); ++i) {
      for (std::size_t j = i + 1; j < fixed_.size(); ++j) {
        f2_cap = std::min(f2_cap, cooc_->At(fixed_[i], fixed_[j]));
      }
    }
    const std::size_t free_slots = p.size() - fixed_.size();
    if (free_slots >= 1 && !fixed_.empty()) {
      // Each fixed target must co-occur with at least one unused target.
      double worst = std::numeric_limits<double>::infinity();
      for (EventId t : fixed_) {
        worst = std::min(worst, best_with_unused_[t]);
      }
      f2_cap = std::min(f2_cap, worst);
    }
    if (free_slots >= 2) {
      // At least one pair lies entirely inside the unused targets.
      f2_cap = std::min(f2_cap, max_unused_pair_);
    }
  }
  return TightUpperBound(p, context_->PatternFrequency1(pid), ceilings,
                         f2_cap);
}

double MappingScorer::ComputeH(const Mapping& m) {
  PrepareH(m);
  double h = 0.0;
  for (std::size_t pid = 0; pid < context_->num_patterns(); ++pid) {
    if (MappedEventCount(pid, m) != context_->patterns()[pid].size()) {
      h += IncompleteBound(pid, m);  // Complete patterns count in g.
    }
  }
  return h - ForcedNullPenalty(m, num_unused_);
}

double MappingScorer::ComputeHForRemaining(
    const Mapping& m, const std::vector<std::uint32_t>& remaining) {
  PrepareH(m);
  double h = 0.0;
  for (std::uint32_t pid : remaining) {
    h += IncompleteBound(pid, m);
  }
  return h - ForcedNullPenalty(m, num_unused_);
}

MappingScorer::Score MappingScorer::ComputeScore(const Mapping& m) {
  // Both passes visit the patterns in id order, so each sum is the one a
  // lone ComputeG or ComputeH would return.
  return Score{ComputeG(m), ComputeH(m)};
}

}  // namespace hematch
