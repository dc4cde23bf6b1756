#ifndef HEMATCH_FREQ_BITMAP_INDEX_H_
#define HEMATCH_FREQ_BITMAP_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "log/event_log.h"

namespace hematch {

/// Word-level bitmap form of the trace inverted index `It` (Section
/// 3.2.3): for each event `v`, one bit per trace id, set when the trace
/// contains `v`. Candidate generation for a k-event pattern becomes k-1
/// bitwise ANDs over `words_per_row()` machine words followed by an
/// iterate-set-bits decode — cache-linear, branch-free work instead of
/// the element-by-element posting-list merge, and the dominant win of the
/// vectorized frequency engine on patterns whose events are common.
///
/// `LogIndex` (freq/log_index.h) builds it in the same walk as the
/// posting-list `TraceIndex` beside it: very sparse events (shortest
/// posting list much smaller than the row word count) are cheaper through
/// galloping intersection, and the two paths differential-test each other
/// (see tests/frequency_evaluator_test.cc).
///
/// Memory: `num_events * ceil(num_traces / 64)` words — one bit per
/// (event, trace) pair, an order of magnitude below the posting lists'
/// 32 bits per occurrence for all but ultra-sparse vocabularies.
class BitmapTraceIndex {
 public:
  std::size_t num_traces() const { return num_traces_; }
  /// Words per event row: `ceil(num_traces / 64)`.
  std::size_t words_per_row() const { return words_; }

  /// The bit row of `v` (`words_per_row()` words, trace `t` at word
  /// `t / 64`, bit `t % 64`). Out-of-vocabulary events yield an empty
  /// span (no trace contains them).
  std::span<const std::uint64_t> Row(EventId v) const;

  /// Intersects the rows of `events` into `out` (resized to
  /// `words_per_row()`). Returns true when the intersection is
  /// non-empty. An empty `events` span selects every trace; an
  /// out-of-vocabulary event clears `out` and returns false. When
  /// `words_anded` is given, adds the row words the ANDs touched to it.
  bool IntersectInto(std::span<const EventId> events,
                     std::vector<std::uint64_t>& out,
                     std::uint64_t* words_anded = nullptr) const;

 private:
  friend class LogIndex;

  BitmapTraceIndex(std::size_t num_events, std::size_t num_traces)
      : num_traces_(num_traces),
        num_events_(num_events),
        words_((num_traces + 63) / 64),
        bits_(num_events * words_, 0) {}

  /// Sets trace `t`'s bit in `v`'s row.
  void Add(std::uint32_t t, EventId v) {
    bits_[v * words_ + t / 64] |= 1ull << (t % 64);
  }

  std::size_t num_traces_ = 0;
  std::size_t num_events_ = 0;
  std::size_t words_ = 0;
  /// Row-major: event `v`'s row is `bits_[v * words_ .. (v+1) * words_)`.
  std::vector<std::uint64_t> bits_;
};

}  // namespace hematch

#endif  // HEMATCH_FREQ_BITMAP_INDEX_H_
