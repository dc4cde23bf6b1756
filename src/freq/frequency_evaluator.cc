#include "freq/frequency_evaluator.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/check.h"
#include "exec/parallel.h"
#include "freq/pattern_key.h"

namespace hematch {

namespace {

/// Traces between cancellation polls. Cheap enough to keep small: a
/// poll is one relaxed atomic load.
constexpr std::size_t kCancelPollStride = 64;

/// Per-thread reusable buffers for one Support() scan. Thread-local (and
/// shared across evaluator instances on the same thread, which is safe
/// because every scan re-Prepares before use): the evaluator is shared
/// by portfolio workers, so per-evaluator scratch would need locking the
/// hot loop, and per-call scratch would allocate — this does neither.
struct EvalScratch {
  PatternScratch pattern;
  std::vector<std::uint32_t> candidates;  ///< Posting-list path output.
  std::vector<std::uint64_t> words;       ///< Bitmap path intersection.
};

EvalScratch& ThreadScratch() {
  thread_local EvalScratch scratch;
  return scratch;
}

}  // namespace

FrequencyEvaluator::FrequencyEvaluator(std::shared_ptr<const LogIndex> index,
                                       FrequencyEvaluatorOptions options)
    : index_(std::move(index)), options_(options) {}

void FrequencyEvaluator::CacheInsert(std::uint64_t key, std::size_t support,
                                     const Pattern& pattern) {
  CacheEntry entry;
  entry.support = support;
  if (options_.debug_check_key_collisions) {
    entry.debug_form = pattern.ToString();
  }
  const std::size_t entry_bytes = kCacheEntryBytes + entry.debug_form.size();
  std::lock_guard<std::mutex> lock(cache_mu_);
  const bool over_entries = options_.max_cache_entries > 0 &&
                            cache_.size() >= options_.max_cache_entries;
  const bool over_bytes = options_.max_cache_bytes > 0 && !cache_.empty() &&
                          cache_bytes_ + entry_bytes > options_.max_cache_bytes;
  if (over_entries || over_bytes) {
    const std::size_t dropped = cache_.size();
    stats_.cache_evictions.fetch_add(dropped, std::memory_order_relaxed);
    if (obs::Counter* metric =
            evictions_metric_.load(std::memory_order_acquire)) {
      metric->Increment(dropped);
    }
    cache_.clear();
    cache_bytes_ = 0;
  }
  // A racing worker may have finished the same scan first; only charge
  // the bytes when this emplace actually lands, or `cache_bytes_` drifts
  // away from the table's real footprint.
  const auto [it, inserted] = cache_.emplace(key, std::move(entry));
  if (inserted) {
    cache_bytes_ += entry_bytes;
  }
}

std::size_t FrequencyEvaluator::Support(const Pattern& pattern) {
  stats_.evaluations.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t key = 0;
  if (options_.use_cache) {
    key = MakePatternKey(pattern).value;
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      if (options_.debug_check_key_collisions) {
        HEMATCH_CHECK(it->second.debug_form == pattern.ToString(),
                      "PatternKey collision: two structurally different "
                      "patterns share a memo key");
      }
      stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
      return it->second.support;
    }
    stats_.cache_misses.fetch_add(1, std::memory_order_relaxed);
  }

  const std::vector<EventId>& events = pattern.events();

  // Indexed paths only: a pattern event with an empty posting list
  // occurs in no trace, so no window anywhere can be a permutation of
  // V(p) — answer 0 without touching a single trace. The shortest list
  // found on the way drives the bitmap-vs-postings choice below. The
  // unindexed path skips this so it stays a genuinely independent
  // brute-force oracle for the differential tests.
  const TraceIndex& postings = index_->postings();
  const BitmapTraceIndex& bitmap = index_->bitmap();
  std::size_t shortest_len = 0;
  if (options_.use_trace_index) {
    shortest_len = index_->num_traces();
    for (EventId v : events) {
      shortest_len = std::min(shortest_len, postings.Postings(v).size());
    }
    if (!events.empty() && shortest_len == 0) {
      stats_.empty_shortcuts.fetch_add(1, std::memory_order_relaxed);
      if (options_.use_cache) {
        CacheInsert(key, 0, pattern);
      }
      return 0;
    }
  }

  std::size_t support = 0;
  bool aborted = false;
  std::size_t since_poll = 0;
  std::uint64_t scanned = 0;
  // Trace-event path code, mirroring the stats_ path counters:
  // 0 = full scan, 1 = bitmap AND, 2 = postings merge.
  int path_code = 0;
  const exec::CancelToken* cancel = cancel_.load(std::memory_order_acquire);
  const auto should_stop = [&]() {
    if (cancel == nullptr) return false;
    if (++since_poll < kCancelPollStride) return false;
    since_poll = 0;
    return cancel->cancelled();
  };

  TraceMatchStats match_stats;
  EvalScratch& scratch = ThreadScratch();
  if (options_.use_scratch) {
    scratch.pattern.Prepare(pattern);
  }
  const auto matches = [&](const Trace& trace) {
    return options_.use_scratch
               ? TraceMatchesPattern(trace, scratch.pattern, &match_stats)
               : TraceMatchesPatternHashed(trace, pattern, &match_stats);
  };
  const std::vector<Trace>& traces = index_->log().traces();

  if (!options_.use_trace_index) {
    stats_.full_scans.fetch_add(1, std::memory_order_relaxed);
    for (const Trace& trace : traces) {
      if (should_stop()) {
        aborted = true;
        break;
      }
      ++scanned;
      if (matches(trace)) {
        ++support;
      }
    }
  } else {
    // Bitmap unless the shortest posting list is so short that galloping
    // intersection touches less memory than the row ANDs.
    bool use_bitmap = options_.use_bitmap_index;
    if (use_bitmap && options_.postings_fallback_ratio > 0 &&
        shortest_len * options_.postings_fallback_ratio <
            bitmap.words_per_row()) {
      use_bitmap = false;
    }
    if (use_bitmap) {
      path_code = 1;
      stats_.bitmap_scans.fetch_add(1, std::memory_order_relaxed);
      std::uint64_t words_anded = 0;
      bitmap.IntersectInto(events, scratch.words, &words_anded);
      stats_.words_anded.fetch_add(words_anded, std::memory_order_relaxed);
      for (std::size_t w = 0; w < scratch.words.size() && !aborted; ++w) {
        std::uint64_t word = scratch.words[w];
        while (word != 0) {
          if (should_stop()) {
            aborted = true;
            break;
          }
          const std::uint32_t t =
              static_cast<std::uint32_t>(w * 64) +
              static_cast<std::uint32_t>(std::countr_zero(word));
          word &= word - 1;  // Clear the lowest set bit.
          ++scanned;
          if (matches(traces[t])) {
            ++support;
          }
        }
      }
    } else {
      path_code = 2;
      stats_.postings_scans.fetch_add(1, std::memory_order_relaxed);
      std::uint64_t probes = 0;
      postings.CandidateTracesInto(events, scratch.candidates, &probes);
      stats_.postings_probed.fetch_add(probes, std::memory_order_relaxed);
      stats_.candidates_yielded.fetch_add(scratch.candidates.size(),
                                          std::memory_order_relaxed);
      for (std::uint32_t t : scratch.candidates) {
        if (should_stop()) {
          aborted = true;
          break;
        }
        ++scanned;
        if (matches(traces[t])) {
          ++support;
        }
      }
    }
  }
  stats_.traces_scanned.fetch_add(scanned, std::memory_order_relaxed);
  stats_.windows_tested.fetch_add(match_stats.windows_tested,
                                  std::memory_order_relaxed);

  // Cache hits never reach here, so each instant marks one real scan —
  // coarse enough to keep tracing overhead off the memoized fast path.
  // The thread-local ambient recorder wins over the installed one: a
  // per-request recorder (serve sampling) is installed ambiently for
  // the request's thread, while the evaluator itself stays shared.
  obs::TraceRecorder* recorder = obs::AmbientTraceRecorder();
  if (recorder == nullptr) {
    recorder = trace_recorder_.load(std::memory_order_acquire);
  }
  if (recorder != nullptr) {
    recorder->RecordInstant(
        "freq.scan", "freq",
        {{"path", static_cast<double>(path_code)},
         {"traces_scanned", static_cast<double>(scanned)},
         {"support", static_cast<double>(support)},
         {"aborted", aborted ? 1.0 : 0.0}});
  }

  if (aborted) {
    // Partial count: usable as a best-effort answer for the caller that
    // is itself unwinding, but never memoized.
    stats_.scan_aborts.fetch_add(1, std::memory_order_relaxed);
    return support;
  }
  if (options_.use_cache) {
    CacheInsert(key, support, pattern);
  }
  return support;
}

FrequencyEvaluator::PrecomputeStats FrequencyEvaluator::PrecomputeAll(
    std::span<const Pattern> patterns, const PrecomputeOptions& options) {
  PrecomputeStats result;
  result.patterns_requested = patterns.size();
  if (!options_.use_cache || patterns.empty()) {
    return result;
  }
  const auto start = std::chrono::steady_clock::now();
  obs::TraceRecorder* recorder =
      trace_recorder_.load(std::memory_order_acquire);
  obs::ScopedSpan span(recorder, "freq.precompute", "freq");
  exec::ParallelForOptions pf;
  pf.threads = options.threads;
  pf.min_parallel_items = options.min_parallel_patterns;
  pf.cancel = options.cancel;
  pf.deadline_ms = options.deadline_ms;
  pf.trace_recorder = recorder;
  pf.trace_parent = span.id();
  pf.trace_label = "freq.precompute.worker";
  const exec::ParallelForResult run = exec::ParallelFor(
      patterns.size(), [&](std::size_t i) { Support(patterns[i]); }, pf);
  result.patterns_evaluated = run.items_run;
  result.threads_used = run.threads_used;
  span.AddArg("patterns", static_cast<double>(run.items_run));
  span.AddArg("threads", static_cast<double>(run.threads_used));
  result.elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  return result;
}

double FrequencyEvaluator::Frequency(const Pattern& pattern) {
  const std::size_t num_traces = index_->num_traces();
  if (num_traces == 0) {
    return 0.0;
  }
  return static_cast<double>(Support(pattern)) /
         static_cast<double>(num_traces);
}

}  // namespace hematch
