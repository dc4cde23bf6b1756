#ifndef HEMATCH_EXEC_PORTFOLIO_H_
#define HEMATCH_EXEC_PORTFOLIO_H_

/// \file
/// Hedged portfolio execution: race several matchers on worker threads
/// under one shared budget and return the best answer by the deadline.
///
/// Matching heterogeneous logs is NP-hard (Theorem 1), so a worst-case
/// instance can pin the exact A* search against the deadline while a
/// heuristic would have answered in milliseconds.  The sequential
/// fallback ladder (api/fallback_matcher.h) only discovers this *after*
/// the exact stage has burned its slice; the portfolio runner instead
/// launches the exact matcher and the heuristics concurrently — the
/// hedged-request pattern from the scalable-alignment literature — and
/// takes the first certified-optimal result, or the best-by-objective
/// result once the deadline (or every strategy) is done.  A method's
/// standard race card is its fallback rungs (`RaceCard` in
/// api/match_pipeline.h).
///
/// Robustness is the core of the design:
///
///  * Isolation — every strategy runs behind a boundary that converts
///    exceptions (bugs, injected crash faults) into a per-strategy
///    `TerminationReason::kFailed` outcome with one bounded retry and
///    backoff; a crashing matcher never takes the process down.
///  * Watchdog — a `Watchdog` thread (exec/watchdog.h) cancels the
///    shared token when the deadline passes, so even a matcher that
///    stops polling its governor cannot stall the run; the coordinator
///    additionally enforces a hard return bound of
///    `grace_factor x deadline` and abandons stragglers past it.
///  * Straggler safety — abandoned workers are detached threads that
///    share ownership of the run state (log copies, contexts, metric
///    registry), so they can finish (or keep ignoring cancellation)
///    without ever touching freed memory.
///
/// The shared substrate the workers touch concurrently — the metric
/// registry, the frequency-evaluator memo cache, the trace index — is
/// thread-safe (see obs/metrics.h, freq/frequency_evaluator.h); the
/// ThreadSanitizer CI job keeps it that way.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/match_result.h"
#include "core/matcher.h"
#include "exec/budget.h"
#include "log/event_log.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "pattern/pattern.h"

namespace hematch::exec {

/// One entrant in the race: a named matcher.  The name doubles as the
/// fault-targeting key (`HEMATCH_FAULT_STRATEGY`, compared by metric
/// slug) and as the `stages` / telemetry label.
struct PortfolioStrategy {
  std::string name;
  std::unique_ptr<Matcher> matcher;
};

/// Tuning for one portfolio run.
struct PortfolioOptions {
  /// The shared budget every worker's governor is armed with.  The
  /// deadline is a race-wide wall (also enforced by the watchdog);
  /// expansion/memory caps apply per strategy.
  RunBudget budget;
  /// Worker-thread cap.  0 (or >= #strategies) runs every strategy on
  /// its own thread; a smaller value assigns strategies round-robin
  /// and each worker runs its share sequentially.
  int threads = 0;
  /// Accept the first *completed* result whose objective reaches this
  /// value and cancel the rest.  0 disables the gate.  (A certified
  /// optimal result — the exact matcher finishing — is always accepted
  /// immediately, gate or no gate.)
  double quality_gate = 0.0;
  /// Bounded retries per strategy after a crash (kFailed), each armed
  /// with the time remaining and preceded by a linear backoff.
  int max_retries = 1;
  double retry_backoff_ms = 2.0;
  /// Hard return bound: the coordinator returns best-so-far no later
  /// than `grace_factor x deadline` after launch, abandoning workers
  /// that ignored cancellation.  Ignored when the budget has no
  /// deadline.
  double grace_factor = 2.0;
  /// Optional caller-side cancellation; must outlive the `Run` call
  /// (not the stragglers — it is polled only by the coordinator).
  const CancelToken* external_cancel = nullptr;
  /// Collect metrics (`portfolio.*`, per-strategy slugs, `freq*.`) in
  /// the run's own registry and return them in the outcome snapshot.
  bool telemetry = true;
  /// Optional span recorder for the run timeline: the race root, one
  /// span per strategy attempt (explicitly parented under the root so
  /// worker threads hang off it in Perfetto), watchdog firings, and
  /// the matchers' own spans. Shared ownership is deliberate: detached
  /// stragglers may still be recording after `Run` returns, and their
  /// copy of the state keeps the recorder alive. Null = tracing off.
  std::shared_ptr<obs::TraceRecorder> trace_recorder;
  /// Heartbeat period; when positive (and `heartbeat` is set) the
  /// watchdog thread snapshots the run's telemetry every
  /// `heartbeat_ms` and hands it to `heartbeat` with a 0-based
  /// sequence number — evidence for runs that hang or blow their
  /// budget. Rides the existing watchdog thread (see exec/watchdog.h);
  /// no extra thread is started.
  double heartbeat_ms = 0.0;
  std::function<void(std::uint64_t seq, const obs::TelemetrySnapshot&)>
      heartbeat;
};

/// What one strategy did, as observed at return time.
struct PortfolioStrategyOutcome {
  std::string name;
  /// kCancelled when the strategy never started (the race was already
  /// decided); otherwise the strategy's own termination, kFailed for a
  /// crash that exhausted its retries, or kDeadline for a straggler
  /// abandoned at the hard return bound.
  TerminationReason termination = TerminationReason::kCancelled;
  bool started = false;
  /// Still running when the coordinator returned (detached; its state
  /// stays alive until it finishes).
  bool abandoned = false;
  /// Attempts made (1 + retries used); 0 when never started.
  int attempts = 0;
  bool produced_result = false;
  double objective = 0.0;
  double elapsed_ms = 0.0;
  std::uint64_t mappings_processed = 0;
  /// Crash/status text of the last failed attempt (kFailed only).
  std::string failure;
};

/// Outcome of one portfolio race.
struct PortfolioOutcome {
  /// The accepted result.  `stages` holds one entry per strategy in
  /// launch order (termination, objective, elapsed, work), mirroring
  /// the fallback ladder's convention.  The bound bracket combines the
  /// winner's achieved objective with the tightest certified upper
  /// bound any strategy produced.
  MatchResult result;
  /// Index / name of the winning strategy.
  std::size_t winner = 0;
  std::string winner_name;
  /// True when a quality gate or certified-optimal completion ended
  /// the race before the deadline.
  bool early_accept = false;
  double elapsed_ms = 0.0;
  std::vector<PortfolioStrategyOutcome> strategies;
  /// Snapshot of the run's registry (plus `freq*.` evaluator counters)
  /// at return time: per-strategy metrics under their slugs and the
  /// race-level `portfolio.*` counters.  Empty when telemetry is off.
  obs::TelemetrySnapshot telemetry;
};

/// The race coordinator.  Single-use: `Run` moves the strategies into
/// the shared run state (so abandoned stragglers keep their matchers
/// alive) and may only be called once.
class PortfolioRunner {
 public:
  PortfolioRunner(std::vector<PortfolioStrategy> strategies,
                  PortfolioOptions options);

  /// Races the strategies over `(log1, log2, patterns)`.  Copies both
  /// logs into the run state (straggler safety), precomputes one base
  /// `MatchingContext`, then gives every strategy a sibling context
  /// with its own governor.  Blocks until a result is accepted, every
  /// strategy is terminal, or the hard deadline bound passes — never
  /// longer than `grace_factor x deadline` when a deadline is set.
  /// Errors only when *no* strategy produced a result.
  Result<PortfolioOutcome> Run(const EventLog& log1, const EventLog& log2,
                               std::vector<Pattern> patterns);

 private:
  std::vector<PortfolioStrategy> strategies_;
  PortfolioOptions options_;
  bool consumed_ = false;
};

}  // namespace hematch::exec

#endif  // HEMATCH_EXEC_PORTFOLIO_H_
