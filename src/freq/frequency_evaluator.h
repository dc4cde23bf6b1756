#ifndef HEMATCH_FREQ_FREQUENCY_EVALUATOR_H_
#define HEMATCH_FREQ_FREQUENCY_EVALUATOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>

#include "exec/budget.h"
#include "freq/log_index.h"
#include "freq/trace_matcher.h"
#include "log/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pattern/pattern.h"

namespace hematch {

/// Options controlling `FrequencyEvaluator`; the defaults are what the
/// paper's algorithms use, the off switches exist for the ablation bench
/// and for forcing a specific candidate path in the differential tests.
struct FrequencyEvaluatorOptions {
  /// Use the trace inverted index `It` to restrict the scan to traces
  /// containing every pattern event (Section 3.2.3). When false, every
  /// trace is scanned — the brute-force oracle of the differential tests.
  bool use_trace_index = true;
  /// Generate candidates from the word-level `BitmapTraceIndex` (bitwise
  /// row ANDs) instead of merging posting lists, except when the
  /// sparse-pattern heuristic below picks the posting lists. When false
  /// every indexed scan uses posting lists. This only steers the scan
  /// path: the shared `LogIndex` always builds the bitmap rows.
  bool use_bitmap_index = true;
  /// Candidate scans below which the posting-list path wins: when the
  /// shortest posting list times this ratio is smaller than the bitmap
  /// row word count, galloping intersection touches less memory than the
  /// row ANDs. 0 disables the fallback (every indexed scan uses the
  /// bitmap — used by tests to force the path).
  std::size_t postings_fallback_ratio = 4;
  /// Reuse a per-thread `PatternScratch` across traces (zero allocations
  /// in steady state). When false each trace runs the retained
  /// pre-vectorization matcher (`TraceMatchesPatternHashed`) — the
  /// honest "before" side of the ablation bench and an independent
  /// implementation for the differential tests.
  bool use_scratch = true;
  /// Memoize frequencies per structurally-distinct pattern. The A* search
  /// re-evaluates the same mapped pattern across many branches; caching
  /// makes those lookups O(1). Keys are 64-bit structural hashes
  /// (freq/pattern_key.h), so entries are fixed-size.
  bool use_cache = true;
  /// Retain the canonical string form beside each cached support and
  /// cross-check it on every hit, turning a hash collision into a loud
  /// check failure instead of a silently wrong frequency. Costs a string
  /// build per evaluation — debug/differential-test use only.
  bool debug_check_key_collisions = false;
  /// Upper bound on memo-table entries; 0 = unbounded. When an insert
  /// would exceed the cap the whole table is dropped (the access pattern
  /// is bursts of re-evaluations of a working set, so wholesale reset
  /// beats per-entry LRU bookkeeping) and `stats().cache_evictions`
  /// records how many entries were discarded.
  std::size_t max_cache_entries = 0;
  /// Approximate byte ceiling for the memo table; 0 = unbounded. Uses
  /// the same wholesale-reset policy as `max_cache_entries`. Set by
  /// `MatchingContext::ArmBudget` from `RunBudget::max_memory_bytes` so
  /// caches honor the run's memory ceiling instead of growing without
  /// bound.
  std::size_t max_cache_bytes = 0;
};

/// Computes normalized pattern frequencies `f(p)` over one event log
/// (Definition 4 and Section 3.2.3).
///
/// The evaluator reads two forms of the trace index from a shared
/// `LogIndex` — bitmap rows for dense events, posting lists for sparse
/// ones — and picks per query:
/// an empty posting list short-circuits to support 0, a very short one
/// routes through galloping posting-list intersection, everything else
/// through word-level bitmap ANDs. Candidate traces are then matched by
/// the zero-allocation sliding-window matcher using per-thread scratch.
/// Results are memoized under 64-bit structural hashes of the pattern.
///
/// Thread-safe: portfolio workers (see exec/portfolio.h) share one
/// evaluator, so the memo table is guarded by a mutex (held only for the
/// lookup and the insert, never across a scan — concurrent scans proceed
/// in parallel and the losing duplicate insert is dropped without
/// perturbing the byte accounting), scratch is thread-local, work
/// counters are relaxed atomics, and `freq.cache_evictions` stays exact
/// because eviction accounting happens under the same lock as the reset
/// it describes.
class FrequencyEvaluator {
 public:
  /// Evaluates over `index`'s log; the index is shared, never written.
  explicit FrequencyEvaluator(std::shared_ptr<const LogIndex> index,
                              FrequencyEvaluatorOptions options = {});

  /// Builds an index of `log` for this evaluator alone. `log` must
  /// outlive the evaluator.
  explicit FrequencyEvaluator(const EventLog& log,
                              FrequencyEvaluatorOptions options = {})
      : FrequencyEvaluator(std::make_shared<const LogIndex>(log), options) {}

  FrequencyEvaluator(const FrequencyEvaluator&) = delete;
  FrequencyEvaluator& operator=(const FrequencyEvaluator&) = delete;

  /// Fraction of traces matching `pattern` (in [0, 1]).
  double Frequency(const Pattern& pattern);

  /// Absolute number of traces matching `pattern`.
  std::size_t Support(const Pattern& pattern);

  /// Tuning for one `PrecomputeAll` pass.
  struct PrecomputeOptions {
    /// Worker threads; 0 = hardware concurrency (see exec::ParallelFor).
    int threads = 0;
    /// Below this many patterns the pass runs inline on the caller.
    std::size_t min_parallel_patterns = 4;
    /// Optional cooperative cancellation, checked between patterns; a
    /// cancelled pass stops claiming new patterns but lets in-flight
    /// evaluations finish. Must outlive the call.
    const exec::CancelToken* cancel = nullptr;
    /// Soft deadline in milliseconds from the start of the pass; 0 =
    /// none. Enforced between patterns only.
    double deadline_ms = 0.0;
  };

  /// What one `PrecomputeAll` pass did.
  struct PrecomputeStats {
    std::size_t patterns_requested = 0;
    std::size_t patterns_evaluated = 0;  ///< May be short on cancel/deadline.
    int threads_used = 1;
    double elapsed_ms = 0.0;
  };

  /// Evaluates (and memoizes) every pattern in `patterns`, sharded
  /// across worker threads — the batch form of `Support` used by
  /// `MatchingContext` to warm the memo table at build time so the
  /// search loops hit a populated cache. Safe to call concurrently with
  /// `Support`; duplicate patterns cost one scan (losers hit the memo).
  /// A no-op (beyond the returned stats) when caching is disabled, since
  /// nothing would be retained.
  PrecomputeStats PrecomputeAll(std::span<const Pattern> patterns,
                                const PrecomputeOptions& options);
  PrecomputeStats PrecomputeAll(std::span<const Pattern> patterns) {
    return PrecomputeAll(patterns, PrecomputeOptions());
  }

  /// Cooperative cancellation: long scans poll `cancel` every few dozen
  /// traces and return early (partial support, not cached) once it is
  /// set. Pass nullptr to disable; the token must outlive the evaluator
  /// otherwise. Only cancellation aborts scans — deadline/memory trips
  /// let in-flight scans finish so anytime objectives stay exact.
  void set_cancel_token(const exec::CancelToken* cancel) {
    cancel_.store(cancel, std::memory_order_release);
  }

  /// Live eviction counter (e.g. `freq.cache_evictions` in the owning
  /// context's MetricsRegistry); incremented by the number of entries
  /// dropped at each wholesale reset. Null disables the export.
  void set_eviction_counter(obs::Counter* counter) {
    evictions_metric_.store(counter, std::memory_order_release);
  }

  /// Span recorder for scan-level trace events: each cache miss emits a
  /// `freq.scan` instant carrying the path choice (bitmap / postings /
  /// full) and the traces touched, and `PrecomputeAll` wraps itself and
  /// its workers in spans. Null disables tracing (the default); the
  /// recorder must outlive the evaluator's last scan.
  void set_trace_recorder(obs::TraceRecorder* recorder) {
    trace_recorder_.store(recorder, std::memory_order_release);
  }

  /// Adjusts the byte ceiling after construction (used when a budget is
  /// armed on an existing context). Takes effect on the next insert.
  void set_max_cache_bytes(std::size_t bytes) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    options_.max_cache_bytes = bytes;
  }

  /// Approximate bytes currently held by the memo table.
  std::size_t cache_bytes() const {
    std::lock_guard<std::mutex> lock(cache_mu_);
    return cache_bytes_;
  }

  /// Work counters (cumulative since construction; relaxed atomics so
  /// concurrent evaluations never lose updates — read fields directly,
  /// the implicit conversion is an atomic load). `MatchingContext`
  /// promotes these into its telemetry snapshot under `freq1.` / `freq2.`.
  struct Stats {
    std::atomic<std::uint64_t> evaluations{0};      ///< Support() calls.
    std::atomic<std::uint64_t> cache_hits{0};       ///< Memo-table hits.
    std::atomic<std::uint64_t> cache_misses{0};     ///< Memo misses.
    std::atomic<std::uint64_t> cache_evictions{0};  ///< Dropped by caps.
    std::atomic<std::uint64_t> traces_scanned{0};   ///< Traces matched.
    std::atomic<std::uint64_t> windows_tested{0};   ///< Membership tests.
    std::atomic<std::uint64_t> scan_aborts{0};      ///< Cancelled scans.
    /// Scans answered 0 because some pattern event occurs in no trace.
    std::atomic<std::uint64_t> empty_shortcuts{0};
    std::atomic<std::uint64_t> bitmap_scans{0};    ///< Bitmap-AND candidates.
    std::atomic<std::uint64_t> postings_scans{0};  ///< Posting-list merges.
    std::atomic<std::uint64_t> full_scans{0};      ///< Unindexed scans.
    // Index lookup work, counted here so the shared index stays immutable.
    std::atomic<std::uint64_t> postings_probed{0};  ///< Galloping probes.
    std::atomic<std::uint64_t> candidates_yielded{0};  ///< Posting-path ids.
    std::atomic<std::uint64_t> words_anded{0};         ///< Bitmap words read.
  };
  const Stats& stats() const { return stats_; }

 private:
  /// Approximate resident size of one memo entry: 8-byte key and value
  /// plus node and bucket overhead of the unordered_map. Fixed — hashed
  /// keys make every entry the same size, so the cache's byte accounting
  /// is exact instead of tracking per-key string lengths.
  static constexpr std::size_t kCacheEntryBytes = 64;

  struct CacheEntry {
    std::size_t support = 0;
    /// Canonical form, retained only under `debug_check_key_collisions`.
    std::string debug_form;
  };

  /// Evicts (wholesale) if inserting would exceed either cap, then
  /// inserts. Takes `cache_mu_`; a racing duplicate insert (two workers
  /// scanning the same pattern) leaves the first value in place and does
  /// not double-count its bytes.
  void CacheInsert(std::uint64_t key, std::size_t support,
                   const Pattern& pattern);

  std::shared_ptr<const LogIndex> index_;
  FrequencyEvaluatorOptions options_;
  /// Guards `cache_`, `cache_bytes_`, and the cap fields of `options_`.
  /// Never held across a trace scan.
  mutable std::mutex cache_mu_;
  std::unordered_map<std::uint64_t, CacheEntry> cache_;
  std::size_t cache_bytes_ = 0;
  std::atomic<const exec::CancelToken*> cancel_{nullptr};
  std::atomic<obs::Counter*> evictions_metric_{nullptr};
  std::atomic<obs::TraceRecorder*> trace_recorder_{nullptr};
  Stats stats_;
};

}  // namespace hematch

#endif  // HEMATCH_FREQ_FREQUENCY_EVALUATOR_H_
