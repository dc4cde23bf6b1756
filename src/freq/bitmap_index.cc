#include "freq/bitmap_index.h"

#include <algorithm>

namespace hematch {

std::span<const std::uint64_t> BitmapTraceIndex::Row(EventId v) const {
  if (v >= num_events_) {
    return {};
  }
  return std::span<const std::uint64_t>(bits_.data() + v * words_, words_);
}

bool BitmapTraceIndex::IntersectInto(std::span<const EventId> events,
                                     std::vector<std::uint64_t>& out,
                                     std::uint64_t* words_anded) const {
  out.assign(words_, 0);
  if (events.empty()) {
    // Every trace: all bits up to num_traces_ set.
    std::fill(out.begin(), out.end(), ~0ull);
    const std::size_t tail = num_traces_ % 64;
    if (words_ > 0 && tail != 0) {
      out[words_ - 1] = (1ull << tail) - 1;
    }
    return num_traces_ > 0;
  }
  const std::span<const std::uint64_t> first = Row(events[0]);
  if (first.empty()) {
    return false;  // Out-of-vocabulary: no trace contains the event.
  }
  std::copy(first.begin(), first.end(), out.begin());
  std::uint64_t touched = words_;
  bool any = true;
  for (std::size_t i = 1; i < events.size() && any; ++i) {
    const std::span<const std::uint64_t> row = Row(events[i]);
    if (row.empty()) {
      std::fill(out.begin(), out.end(), 0);
      any = false;
      break;
    }
    std::uint64_t acc = 0;
    for (std::size_t w = 0; w < words_; ++w) {
      out[w] &= row[w];
      acc |= out[w];
    }
    touched += words_;
    any = acc != 0;
  }
  if (words_anded != nullptr) {
    *words_anded += touched;
  }
  return any;
}

}  // namespace hematch
