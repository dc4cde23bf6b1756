#include "core/one_to_n.h"

#include <algorithm>

#include "common/check.h"
#include "core/matching_context.h"

namespace hematch {

namespace {

// Rewrites `log2` renaming each event to its group representative and
// collapsing adjacent duplicates (a split step logging consecutive
// records becomes one occurrence of the merged event).
EventLog BuildMergedLog(const EventLog& log2,
                        const std::vector<EventId>& representative) {
  EventLog merged;
  for (EventId v = 0; v < log2.num_events(); ++v) {
    merged.InternEvent(log2.dictionary().Name(v));  // Keep the vocabulary.
  }
  for (const Trace& trace : log2.traces()) {
    Trace rewritten;
    rewritten.reserve(trace.size());
    for (EventId e : trace) {
      const EventId r = representative[e];
      if (!rewritten.empty() && rewritten.back() == r) {
        continue;
      }
      rewritten.push_back(r);
    }
    merged.AddTrace(std::move(rewritten));
  }
  return merged;
}

/// `index1` is built once per extension: only the target side changes
/// between candidate merges.
double ScoreAgainstMerged(const std::shared_ptr<const LogIndex>& index1,
                          const EventLog& merged,
                          const std::vector<Pattern>& patterns,
                          const Mapping& base, const ScorerOptions& scorer) {
  MatchingContext context(index1, std::make_shared<const LogIndex>(merged),
                          patterns);
  MappingScorer mapping_scorer(context, scorer);
  return mapping_scorer.ComputeG(base);
}

}  // namespace

Result<GroupMapping> ExtendToOneToN(const EventLog& log1,
                                    const EventLog& log2,
                                    const std::vector<Pattern>& patterns,
                                    const Mapping& base,
                                    const OneToNOptions& options) {
  if (!base.IsComplete() || base.num_sources() != log1.num_events() ||
      base.num_targets() != log2.num_events()) {
    return Status::InvalidArgument(
        "ExtendToOneToN requires a complete base mapping over the logs");
  }

  // representative[e] = the target event e currently counts as.
  std::vector<EventId> representative(log2.num_events());
  for (EventId e = 0; e < log2.num_events(); ++e) {
    representative[e] = e;
  }

  const auto index1 = std::make_shared<const LogIndex>(log1);
  GroupMapping result;
  result.base_objective = ScoreAgainstMerged(
      index1, BuildMergedLog(log2, representative), patterns, base,
      options.scorer);
  result.objective = result.base_objective;

  bool tripped = false;
  while (result.merges < options.max_merges && !tripped) {
    if (options.governor != nullptr && !options.governor->Poll()) {
      tripped = true;
      break;
    }
    // Candidates: targets that are neither matched nor absorbed.
    std::vector<EventId> free_targets;
    for (EventId e = 0; e < log2.num_events(); ++e) {
      if (!base.IsTargetUsed(e) && representative[e] == e) {
        bool absorbed_someone = false;
        for (EventId other = 0; other < log2.num_events(); ++other) {
          if (other != e && representative[other] == e) {
            absorbed_someone = true;
            break;
          }
        }
        // A free target that already absorbed events cannot happen
        // (absorption targets are matched ones), but keep the guard
        // self-explanatory.
        if (!absorbed_someone) {
          free_targets.push_back(e);
        }
      }
    }
    if (free_targets.empty()) {
      break;
    }

    double best_score = result.objective + options.min_gain;
    EventId best_free = kInvalidEventId;
    EventId best_into = kInvalidEventId;
    for (EventId u : free_targets) {
      if (tripped) break;
      for (EventId v1 = 0; v1 < base.num_sources(); ++v1) {
        if (options.governor != nullptr &&
            !options.governor->CheckExpansions(1)) {
          tripped = true;
          break;
        }
        const EventId t = base.TargetOf(v1);
        representative[u] = t;
        const double score = ScoreAgainstMerged(
            index1, BuildMergedLog(log2, representative), patterns, base,
            options.scorer);
        representative[u] = u;
        if (score > best_score) {
          best_score = score;
          best_free = u;
          best_into = t;
        }
      }
    }
    if (best_free == kInvalidEventId) {
      break;  // No merge gains enough.
    }
    representative[best_free] = best_into;
    result.objective = best_score;
    ++result.merges;
  }

  if (tripped) {
    result.termination = options.governor->reason();
  }
  result.merged_log2 = BuildMergedLog(log2, representative);
  result.groups.assign(base.num_sources(), {});
  for (EventId v1 = 0; v1 < base.num_sources(); ++v1) {
    const EventId t = base.TargetOf(v1);
    result.groups[v1].push_back(t);
    for (EventId e = 0; e < log2.num_events(); ++e) {
      if (e != t && representative[e] == t) {
        result.groups[v1].push_back(e);
      }
    }
  }
  return result;
}

std::string GroupsToString(const GroupMapping& result, const EventLog& log1,
                           const EventLog& log2, bool include_singletons) {
  std::string out;
  for (EventId v1 = 0; v1 < result.groups.size(); ++v1) {
    const std::vector<EventId>& group = result.groups[v1];
    if (group.size() <= 1 && !include_singletons) {
      continue;
    }
    if (!out.empty()) {
      out += ", ";
    }
    out += log1.dictionary().Name(v1);
    out += " -> {";
    for (std::size_t i = 0; i < group.size(); ++i) {
      if (i > 0) {
        out += ", ";
      }
      out += log2.dictionary().Name(group[i]);
    }
    out += '}';
  }
  return out;
}

}  // namespace hematch
