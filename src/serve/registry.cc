#include "serve/registry.h"

#include <algorithm>
#include <utility>

#include "core/pattern_set.h"
#include "pattern/pattern_parser.h"
#include "serve/fingerprint.h"

namespace hematch::serve {

LogRegistry::LogRegistry(std::size_t max_logs) : max_logs_(max_logs) {}

Result<RegisteredLog> LogRegistry::Register(const std::string& name,
                                            EventLog log) {
  RegisteredLog entry;
  entry.name = name;
  entry.fingerprint = FingerprintLog(log);
  entry.fingerprint_hex = FingerprintHex(entry.fingerprint);
  entry.log = std::make_shared<const EventLog>(std::move(log));
  entry.index = std::make_shared<const LogIndex>(*entry.log);

  std::lock_guard<std::mutex> lock(mu_);
  auto existing = by_name_.find(name);
  if (existing != by_name_.end()) {
    if (existing->second.fingerprint == entry.fingerprint) {
      return existing->second;  // Idempotent re-registration.
    }
    return Status::InvalidArgument(
        "log name '" + name + "' already registered with different content (" +
        existing->second.fingerprint_hex + " vs " + entry.fingerprint_hex +
        ")");
  }
  if (by_name_.size() >= max_logs_) {
    return Status::ResourceExhausted(
        "log registry full (" + std::to_string(max_logs_) +
        " logs); re-use registered logs or raise --max-logs");
  }
  by_name_.emplace(name, entry);
  by_fp_.emplace(entry.fingerprint_hex, entry);
  return entry;
}

Result<RegisteredLog> LogRegistry::Lookup(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = by_name_.find(key); it != by_name_.end()) {
    return it->second;
  }
  if (auto it = by_fp_.find(key); it != by_fp_.end()) {
    return it->second;
  }
  return Status::NotFound("no registered log named '" + key + "'");
}

std::size_t LogRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return by_name_.size();
}

ContextRegistry::ContextRegistry(std::size_t max_contexts,
                                 obs::MetricsRegistry* metrics)
    : max_contexts_(std::max<std::size_t>(max_contexts, 1)),
      metrics_(metrics),
      hits_(metrics->GetCounter("serve.context_hits")),
      misses_(metrics->GetCounter("serve.context_misses")),
      evictions_(metrics->GetCounter("serve.context_evictions")) {}

Result<std::shared_ptr<WarmContext>> ContextRegistry::Acquire(
    const RegisteredLog& log1, const RegisteredLog& log2,
    const std::vector<std::string>& pattern_texts, bool* warm_hit) {
  const std::string key = log1.fingerprint_hex + "|" + log2.fingerprint_hex +
                          "|" +
                          FingerprintHex(FingerprintPatternTexts(pattern_texts));

  std::shared_ptr<Slot> slot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = slots_.find(key);
    if (it == slots_.end()) {
      it = slots_.emplace(key, std::make_shared<Slot>()).first;
      // Evict least-recently-used *built* slots over the cap. The new
      // slot is exempt (it is about to be built and used).
      while (slots_.size() > max_contexts_) {
        auto victim = slots_.end();
        for (auto cand = slots_.begin(); cand != slots_.end(); ++cand) {
          if (cand == it) {
            continue;
          }
          if (victim == slots_.end() ||
              cand->second->last_used < victim->second->last_used) {
            victim = cand;
          }
        }
        if (victim == slots_.end()) {
          break;
        }
        if (victim->second->context != nullptr) {
          evicted_.push_back(victim->second->context);
        }
        slots_.erase(victim);
        evictions_->Increment();
      }
      // Opportunistically drop expired weak refs so drain bookkeeping
      // does not grow without bound.
      evicted_.erase(std::remove_if(evicted_.begin(), evicted_.end(),
                                    [](const std::weak_ptr<WarmContext>& w) {
                                      return w.expired();
                                    }),
                     evicted_.end());
    }
    slot = it->second;
    slot->last_used = ++tick_;
  }

  std::lock_guard<std::mutex> build_lock(slot->build_mu);
  if (slot->context != nullptr) {
    hits_->Increment();
    if (warm_hit != nullptr) {
      *warm_hit = true;
    }
    return slot->context;
  }
  if (!slot->build_error.ok()) {
    // A previous build of this key failed (bad pattern text); replay
    // the error instead of rebuilding per request.
    return slot->build_error;
  }

  misses_->Increment();
  if (warm_hit != nullptr) {
    *warm_hit = false;
  }

  std::vector<Pattern> complex;
  complex.reserve(pattern_texts.size());
  for (const std::string& text : pattern_texts) {
    Result<Pattern> parsed = ParsePattern(text, log1.log->dictionary());
    if (!parsed.ok()) {
      slot->build_error = Status::InvalidArgument(
          "pattern '" + text + "': " + parsed.status().message());
      return slot->build_error;
    }
    complex.push_back(std::move(parsed).value());
  }

  auto warm = std::make_shared<WarmContext>();
  warm->log1 = log1.log;
  warm->log2 = log2.log;
  std::vector<Pattern> patterns = BuildPatternSet(log1.index->graph(), complex);
  ContextTelemetryOptions telemetry;
  telemetry.shared_registry = metrics_;
  warm->base = std::make_unique<MatchingContext>(
      log1.index, log2.index, std::move(patterns), telemetry);
  // Long scans in the shared evaluators poll this token; hard drain
  // flips it. Per-request budgets go through each sibling's governor,
  // never through the shared evaluators (cross-request cross-talk).
  warm->base->SetEvaluatorCancel(&warm->drain);
  {
    // Publish under both locks: Acquire reads `context` under build_mu,
    // CancelAll under the registry mutex.
    std::lock_guard<std::mutex> lock(mu_);
    slot->context = std::move(warm);
  }
  return slot->context;
}

void ContextRegistry::CancelAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, slot] : slots_) {
    // Skip slots mid-build (build_mu held): their evaluator token is
    // wired before first use, and builds finish on their own.
    if (slot->context != nullptr) {
      slot->context->drain.Cancel();
    }
  }
  for (auto& weak : evicted_) {
    if (auto alive = weak.lock()) {
      alive->drain.Cancel();
    }
  }
}

std::size_t ContextRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.size();
}

}  // namespace hematch::serve
