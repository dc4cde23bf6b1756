#ifndef HEMATCH_FREQ_INVERTED_INDEX_H_
#define HEMATCH_FREQ_INVERTED_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "log/event_log.h"

namespace hematch {

/// The trace inverted index `It` of Section 3.2.3: for each event `v`, the
/// sorted list of trace ids containing `v`. Pattern frequency evaluation
/// scans only the intersection of the posting lists of the pattern's
/// events instead of the whole log. Built by `LogIndex`
/// (freq/log_index.h) in its one walk over the log; immutable after.
class TraceIndex {
 public:
  /// Posting list of `v` (sorted, deduplicated trace ids). Out-of-range
  /// events have an empty list.
  const std::vector<std::uint32_t>& Postings(EventId v) const;

  /// Trace ids containing *all* of `events` (sorted). An empty event set
  /// yields all trace ids.
  ///
  /// Intersection starts from the *shortest* posting list and advances
  /// through the longer lists (in ascending length order) with galloping
  /// (exponential probe + binary search), so a pattern with one rare
  /// event costs O(min_len * k * log(max_len / min_len)) instead of the
  /// sum of all list lengths a pairwise linear merge pays.
  std::vector<std::uint32_t> CandidateTraces(
      std::span<const EventId> events) const {
    std::vector<std::uint32_t> result;
    CandidateTracesInto(events, result);
    return result;
  }

  /// Allocation-free variant: writes the intersection into `out`
  /// (cleared first; storage reused across calls). The frequency
  /// evaluator's hot path uses this with a per-thread scratch buffer.
  /// When `postings_scanned` is given, adds the posting entries probed
  /// to it: with galloping advance these are binary-search probes, not
  /// whole lists.
  void CandidateTracesInto(std::span<const EventId> events,
                           std::vector<std::uint32_t>& out,
                           std::uint64_t* postings_scanned = nullptr) const;

 private:
  friend class LogIndex;

  TraceIndex(std::size_t num_events, std::size_t num_traces)
      : postings_(num_events), num_traces_(num_traces) {}

  /// Appends trace `t` to `v`'s list; called once per (trace, event), in
  /// trace order, so every list comes out sorted and deduplicated.
  void Add(std::uint32_t t, EventId v) { postings_[v].push_back(t); }

  std::vector<std::vector<std::uint32_t>> postings_;
  std::vector<std::uint32_t> empty_;
  std::size_t num_traces_ = 0;
};

/// The pattern inverted index `Ip` of Section 3.2.1: for each event `v`,
/// the list of pattern ids (indices into the caller's pattern vector) that
/// involve `v`.
class PatternIndex {
 public:
  /// `pattern_events[i]` must be the event set of pattern `i`.
  PatternIndex(std::size_t num_events,
               const std::vector<std::vector<EventId>>& pattern_events);

  /// Ids of patterns involving `v` (ascending).
  const std::vector<std::uint32_t>& PatternsInvolving(EventId v) const;

  /// Number of patterns involving `v` — the A* expansion order key
  /// ("select a vertex which is included by most of the patterns").
  std::size_t PatternCount(EventId v) const {
    return PatternsInvolving(v).size();
  }

 private:
  std::vector<std::vector<std::uint32_t>> by_event_;
  std::vector<std::uint32_t> empty_;
};

}  // namespace hematch

#endif  // HEMATCH_FREQ_INVERTED_INDEX_H_
