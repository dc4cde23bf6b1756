#include "freq/cooccurrence.h"

#include <bit>
#include <chrono>
#include <utility>

namespace hematch {

CooccurrenceIndex::CooccurrenceIndex(std::shared_ptr<const LogIndex> index)
    : index_(std::move(index)), num_events_(index_->log().num_events()) {}

void CooccurrenceIndex::EnsureBuilt() {
  std::call_once(build_once_, [this] {
    const auto start = std::chrono::steady_clock::now();
    const std::size_t n = num_events_;
    matrix_.assign(n * n, 0.0);
    const std::size_t traces = index_->num_traces();
    if (traces > 0 && n > 0) {
      const BitmapTraceIndex& bitmap = index_->bitmap();
      const double inv = 1.0 / static_cast<double>(traces);
      for (EventId a = 0; a < n; ++a) {
        const std::span<const std::uint64_t> row_a = bitmap.Row(a);
        for (EventId b = a; b < n; ++b) {
          const std::span<const std::uint64_t> row_b = bitmap.Row(b);
          std::uint64_t both = 0;
          const std::size_t words = std::min(row_a.size(), row_b.size());
          for (std::size_t w = 0; w < words; ++w) {
            both += static_cast<std::uint64_t>(
                std::popcount(row_a[w] & row_b[w]));
          }
          const double fraction = static_cast<double>(both) * inv;
          matrix_[a * n + b] = fraction;
          matrix_[b * n + a] = fraction;
        }
      }
    }
    build_ms_ = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    built_.store(true, std::memory_order_release);
  });
}

double CooccurrenceIndex::MaxPairAmong(
    const std::vector<EventId>& events) const {
  double best = 0.0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    for (std::size_t j = i + 1; j < events.size(); ++j) {
      const double c = At(events[i], events[j]);
      if (c > best) {
        best = c;
      }
    }
  }
  return best;
}

}  // namespace hematch
