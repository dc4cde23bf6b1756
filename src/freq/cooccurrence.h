#ifndef HEMATCH_FREQ_COOCCURRENCE_H_
#define HEMATCH_FREQ_COOCCURRENCE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "freq/log_index.h"

namespace hematch {

/// Normalized pairwise trace co-occurrence: `At(a, b)` is the fraction
/// of traces containing both `a` and `b` (the diagonal is the fraction
/// containing `a` at all).
///
/// A trace can match a pattern only if it contains every event of the
/// pattern, so for any pattern `q` with `{a, b} ⊆ V(q)`,
/// `f2(q) <= At(a, b)` — a per-pair frequency ceiling that is usually
/// far below the max-frequency relaxation of Table 2 (`fn`, `w(p)*fe`).
/// `BoundKind::kBitmapTight` folds these ceilings into `Δ(p, U2)`; the
/// bound stays admissible because every cap is a true upper bound on
/// the reachable `f2` (see core/bounding.h).
///
/// The matrix is `num_events^2` doubles, built once from the log index's
/// bitmap rows (one row-AND + popcount per pair). Construction
/// is lazy and thread-safe so portfolio/parallel-A* siblings can share
/// one instance via `MatchingContext`.
class CooccurrenceIndex {
 public:
  /// Binds to `index`; nothing is computed until `EnsureBuilt`.
  explicit CooccurrenceIndex(std::shared_ptr<const LogIndex> index);

  /// Builds the matrix on first call (thread-safe, idempotent).
  /// Subsequent `At` / `MaxPairAmong` calls are lock-free reads.
  void EnsureBuilt();

  bool built() const { return built_.load(std::memory_order_acquire); }

  std::size_t num_events() const { return num_events_; }

  /// Fraction of traces containing both events. Requires `EnsureBuilt`;
  /// out-of-vocabulary ids return 0 (no trace contains them).
  double At(EventId a, EventId b) const {
    if (a >= num_events_ || b >= num_events_) {
      return 0.0;
    }
    return matrix_[a * num_events_ + b];
  }

  /// Largest `At(a, b)` over distinct pairs drawn from `events`
  /// (O(|events|^2)); 0 when fewer than two events. Requires
  /// `EnsureBuilt`.
  double MaxPairAmong(const std::vector<EventId>& events) const;

  /// Milliseconds the one-time build took (0 before EnsureBuilt).
  double build_ms() const { return build_ms_; }

 private:
  std::shared_ptr<const LogIndex> index_;
  std::size_t num_events_ = 0;
  std::vector<double> matrix_;  // Row-major num_events_^2, in [0, 1].
  std::once_flag build_once_;
  std::atomic<bool> built_{false};
  double build_ms_ = 0.0;
};

}  // namespace hematch

#endif  // HEMATCH_FREQ_COOCCURRENCE_H_
