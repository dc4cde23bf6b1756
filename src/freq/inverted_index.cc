#include "freq/inverted_index.h"

#include <algorithm>

namespace hematch {

const std::vector<std::uint32_t>& TraceIndex::Postings(EventId v) const {
  if (v >= postings_.size()) {
    return empty_;
  }
  return postings_[v];
}

namespace {

/// First index in `[lo, list.size())` whose value is >= `target`:
/// exponential probe from `lo`, then binary search over the bracketed
/// range. `probes` counts list elements examined.
std::size_t GallopTo(const std::vector<std::uint32_t>& list, std::size_t lo,
                     std::uint32_t target, std::uint64_t& probes) {
  std::size_t step = 1;
  std::size_t hi = lo;
  while (hi < list.size() && list[hi] < target) {
    ++probes;
    lo = hi + 1;
    hi += step;
    step *= 2;
  }
  hi = std::min(hi, list.size());
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    ++probes;
    if (list[mid] < target) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

void TraceIndex::CandidateTracesInto(std::span<const EventId> events,
                                     std::vector<std::uint32_t>& out,
                                     std::uint64_t* postings_scanned) const {
  out.clear();
  if (events.empty()) {
    out.resize(num_traces_);
    for (std::uint32_t t = 0; t < num_traces_; ++t) {
      out[t] = t;
    }
    return;
  }
  // The shortest posting list seeds the candidate set; every other list
  // filters it with galloping advance. Each pass can only shrink the
  // candidates, so the intersection cost is bounded by the shortest
  // list's length times a logarithmic probe per longer list.
  std::size_t shortest_idx = 0;
  for (std::size_t i = 1; i < events.size(); ++i) {
    if (Postings(events[i]).size() < Postings(events[shortest_idx]).size()) {
      shortest_idx = i;
    }
  }
  const std::vector<std::uint32_t>& shortest = Postings(events[shortest_idx]);
  out = shortest;
  std::uint64_t probes = shortest.size();
  for (std::size_t i = 0; i < events.size() && !out.empty(); ++i) {
    if (i == shortest_idx) {
      continue;
    }
    const std::vector<std::uint32_t>& other = Postings(events[i]);
    // In-place filter: keep the candidates present in `other`, advancing
    // a galloping cursor (both sequences are sorted, so the cursor only
    // moves forward).
    std::size_t kept = 0;
    std::size_t pos = 0;
    for (std::uint32_t candidate : out) {
      pos = GallopTo(other, pos, candidate, probes);
      if (pos == other.size()) {
        break;
      }
      if (other[pos] == candidate) {
        out[kept++] = candidate;
        ++pos;
      }
    }
    out.resize(kept);
  }
  if (postings_scanned != nullptr) {
    *postings_scanned += probes;
  }
}

PatternIndex::PatternIndex(
    std::size_t num_events,
    const std::vector<std::vector<EventId>>& pattern_events) {
  by_event_.assign(num_events, {});
  for (std::uint32_t p = 0; p < pattern_events.size(); ++p) {
    for (EventId v : pattern_events[p]) {
      if (v < num_events) {
        by_event_[v].push_back(p);
      }
    }
  }
}

const std::vector<std::uint32_t>& PatternIndex::PatternsInvolving(
    EventId v) const {
  if (v >= by_event_.size()) {
    return empty_;
  }
  return by_event_[v];
}

}  // namespace hematch
