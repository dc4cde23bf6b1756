#include "gen/pattern_miner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>

#include "freq/frequency_evaluator.h"

namespace hematch {

namespace {

struct Candidate {
  Pattern pattern;
  double frequency = 0.0;
  double discriminativeness = 0.0;
};

// Shape key: the pattern's structure with event identities erased, e.g.
// SEQ(_,AND(_,_),_). Patterns with equal keys compete for the same
// structural "niche".
std::string ShapeKey(const Pattern& p) {
  if (p.is_event()) {
    return "_";
  }
  std::string key = p.kind() == Pattern::Kind::kSeq ? "SEQ(" : "AND(";
  for (std::size_t i = 0; i < p.children().size(); ++i) {
    if (i > 0) key += ',';
    key += ShapeKey(p.children()[i]);
  }
  key += ')';
  return key;
}

}  // namespace

std::vector<Pattern> MineDiscriminativePatterns(
    const EventLog& log, const PatternMinerOptions& options) {
  const auto index = std::make_shared<const LogIndex>(log);
  const DependencyGraph& graph = index->graph();
  FrequencyEvaluator evaluator(index);
  std::vector<Candidate> candidates;

  // --- SEQ chains, Apriori-style over dependency edges. ---
  // Level 2 seeds: frequent edges (kept as growth frontier only; the
  // matcher already includes edge patterns).
  std::vector<std::vector<EventId>> frontier;
  for (const auto& [u, v] : graph.edges()) {
    if (u != v && graph.EdgeFrequency(u, v) >= options.min_support) {
      frontier.push_back({u, v});
    }
  }
  for (std::size_t size = 3; size <= options.max_events; ++size) {
    std::vector<std::vector<EventId>> next;
    for (const std::vector<EventId>& chain : frontier) {
      for (EventId w : graph.OutNeighbors(chain.back())) {
        if (graph.EdgeFrequency(chain.back(), w) < options.min_support) {
          continue;
        }
        if (std::find(chain.begin(), chain.end(), w) != chain.end()) {
          continue;  // Pattern events must be distinct.
        }
        std::vector<EventId> extended = chain;
        extended.push_back(w);
        const Pattern p = Pattern::SeqOfEvents(extended);
        const double freq = evaluator.Frequency(p);
        if (freq >= options.min_support) {
          candidates.push_back({p, freq, 0.0});
          next.push_back(std::move(extended));
        }
      }
    }
    frontier = std::move(next);
  }

  // --- AND pairs and triples from mutually bidirectional edges. ---
  auto bidirectional = [&](EventId u, EventId v) {
    return graph.EdgeFrequency(u, v) >= options.min_support / 2.0 &&
           graph.EdgeFrequency(v, u) >= options.min_support / 2.0;
  };
  const std::size_t n = log.num_events();
  for (EventId u = 0; u < n && options.max_events >= 2; ++u) {
    for (EventId v = u + 1; v < n; ++v) {
      if (!bidirectional(u, v)) {
        continue;
      }
      const Pattern pair = Pattern::AndOfEvents({u, v});
      const double pair_freq = evaluator.Frequency(pair);
      if (pair_freq >= options.min_support) {
        candidates.push_back({pair, pair_freq, 0.0});
      }
      for (EventId w = v + 1; w < n && options.max_events >= 3; ++w) {
        if (bidirectional(u, w) && bidirectional(v, w)) {
          const Pattern triple = Pattern::AndOfEvents({u, v, w});
          const double freq = evaluator.Frequency(triple);
          if (freq >= options.min_support) {
            candidates.push_back({triple, freq, 0.0});
          }
        }
      }
    }
  }

  // --- Rank by within-shape frequency separation. ---
  std::map<std::string, std::vector<std::size_t>> by_shape;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    by_shape[ShapeKey(candidates[i].pattern)].push_back(i);
  }
  for (const auto& [shape, members] : by_shape) {
    for (std::size_t i : members) {
      double gap = std::numeric_limits<double>::infinity();
      for (std::size_t j : members) {
        if (i != j) {
          gap = std::min(gap, std::fabs(candidates[i].frequency -
                                        candidates[j].frequency));
        }
      }
      candidates[i].discriminativeness = gap;
    }
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     if (a.discriminativeness != b.discriminativeness) {
                       return a.discriminativeness > b.discriminativeness;
                     }
                     return a.pattern.size() > b.pattern.size();
                   });

  std::vector<Pattern> out;
  for (const Candidate& c : candidates) {
    if (out.size() >= options.max_patterns) {
      break;
    }
    out.push_back(c.pattern);
  }
  return out;
}

}  // namespace hematch
