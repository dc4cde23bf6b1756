#ifndef HEMATCH_SERVE_REGISTRY_H_
#define HEMATCH_SERVE_REGISTRY_H_

/// \file
/// The server's warm state: registered event logs and the LRU cache of
/// `MatchingContext`s built over them.
///
/// Building a context is the expensive part of a match request
/// (dependency graphs, pattern index, parallel f1 precompute) and its
/// frequency-memo caches are the part that pays off across requests —
/// so contexts are cached keyed by `(fp(log1), fp(log2), fp(patterns))`
/// and shared by every request that matches the same instance. Each
/// worker wraps the shared base in a sibling `MatchingContext` with its
/// own governor (the portfolio pattern), so concurrent requests trip
/// their own budgets while amortizing one memo cache.
///
/// Lifetime: registries hand out `shared_ptr`s. Evicting an entry only
/// unlinks it — requests already holding the context finish on it and
/// the memory is reclaimed when the last one completes. Hard drain
/// flips every entry's drain token, which the shared frequency
/// evaluators poll, so even a mid-scan request stops promptly.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/matching_context.h"
#include "exec/budget.h"
#include "log/event_log.h"
#include "obs/metrics.h"

namespace hematch::serve {

/// One registered log: the content plus its fingerprint identity.
struct RegisteredLog {
  std::string name;
  std::uint64_t fingerprint = 0;
  std::string fingerprint_hex;
  std::shared_ptr<const EventLog> log;
  /// Built once at registration over `log`; every context of a pair that
  /// uses this log shares it.
  std::shared_ptr<const LogIndex> index;
};

/// Name/fingerprint → immutable `EventLog`. Registration is explicit
/// and bounded: a full registry rejects (ResourceExhausted) rather than
/// silently evicting a log some in-flight request is about to resolve.
/// Re-registering identical content under the same name is idempotent;
/// a name collision with different content is an error.
class LogRegistry {
 public:
  explicit LogRegistry(std::size_t max_logs);

  LogRegistry(const LogRegistry&) = delete;
  LogRegistry& operator=(const LogRegistry&) = delete;

  Result<RegisteredLog> Register(const std::string& name, EventLog log);

  /// Resolves by registration name or by 16-hex-digit fingerprint.
  Result<RegisteredLog> Lookup(const std::string& key) const;

  std::size_t size() const;

 private:
  const std::size_t max_logs_;
  mutable std::mutex mu_;
  std::map<std::string, RegisteredLog> by_name_;
  std::map<std::string, RegisteredLog> by_fp_;
};

/// A cached matching instance: the shared base context plus everything
/// that keeps it alive and stoppable.
struct WarmContext {
  std::shared_ptr<const EventLog> log1;
  std::shared_ptr<const EventLog> log2;
  std::unique_ptr<MatchingContext> base;
  /// Long-lived cancel token wired into the shared frequency
  /// evaluators; `ContextRegistry::CancelAll` flips it on hard drain.
  exec::CancelToken drain;
};

/// LRU cache of `WarmContext`s. Concurrent `Acquire`s of the same key
/// build once (the loser blocks on the winner's slot); concurrent
/// `Acquire`s of different keys build in parallel.
class ContextRegistry {
 public:
  /// `metrics` receives `serve.context_*` counters; may be a disabled
  /// registry, must outlive this object.
  ContextRegistry(std::size_t max_contexts, obs::MetricsRegistry* metrics);

  ContextRegistry(const ContextRegistry&) = delete;
  ContextRegistry& operator=(const ContextRegistry&) = delete;

  /// Returns the warm context for the oriented instance, building it on
  /// a miss. `pattern_texts` are complex patterns over `log1`'s
  /// vocabulary; `partial_penalty` participates in the key only through
  /// the caller's orientation choice (the context itself is
  /// penalty-agnostic). Sets `*warm_hit` (optional) to whether the
  /// context was already built.
  Result<std::shared_ptr<WarmContext>> Acquire(
      const RegisteredLog& log1, const RegisteredLog& log2,
      const std::vector<std::string>& pattern_texts, bool* warm_hit);

  /// Flips every cached context's drain token (including entries
  /// already evicted but still held by in-flight requests — eviction
  /// keeps a weak reference for exactly this).
  void CancelAll();

  std::size_t size() const;

 private:
  struct Slot {
    std::mutex build_mu;
    std::shared_ptr<WarmContext> context;  ///< Null until built.
    Status build_error = Status::OK();
    std::uint64_t last_used = 0;
  };

  const std::size_t max_contexts_;
  obs::MetricsRegistry* metrics_;
  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* evictions_;

  mutable std::mutex mu_;
  std::uint64_t tick_ = 0;
  std::map<std::string, std::shared_ptr<Slot>> slots_;
  /// Evicted-but-possibly-alive contexts, so CancelAll reaches them.
  std::vector<std::weak_ptr<WarmContext>> evicted_;
};

}  // namespace hematch::serve

#endif  // HEMATCH_SERVE_REGISTRY_H_
