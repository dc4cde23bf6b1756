#include "exec/portfolio.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>

#include "core/matching_context.h"
#include "exec/watchdog.h"
#include "obs/metrics.h"

namespace hematch::exec {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// The shared budget with its deadline shrunk to what is left of the
/// race-wide wall (per-strategy expansion/memory caps stay whole).
/// Clamped to a tiny positive value — zero would mean "no deadline".
RunBudget SliceRemaining(const RunBudget& budget, Clock::time_point start) {
  RunBudget slice = budget;
  if (budget.deadline_ms > 0.0) {
    const double left = budget.deadline_ms - MsSince(start);
    slice.deadline_ms = left > 0.01 ? left : 0.01;
  }
  return slice;
}

/// Everything one strategy's worker touches.  Slots live inside the
/// shared state, never in the coordinator's frame.
struct StrategySlot {
  ExecutionGovernor governor;
  std::unique_ptr<MatchingContext> context;  // Sibling of the base.
  PortfolioStrategyOutcome outcome;
  MatchResult result;  // Valid when outcome.produced_result.
  bool terminal = false;
  /// HEMATCH_FAULT_STRATEGY names this strategy: the env fault is
  /// re-armed on every attempt (a *persistent* crash drill), so the
  /// bounded retry exhausts and the race must win with another
  /// strategy.  Untargeted faults keep their single-shot semantics.
  bool fault_targeted = false;
};

/// The race's shared state.  Every worker thread holds a
/// `shared_ptr<PortfolioState>`, and workers are detached — so a
/// straggler that ignores cancellation keeps the logs, contexts,
/// matchers, metric registry, and cancel token alive until it finally
/// returns, long after the coordinator has moved on.  Nothing here may
/// reference the caller's frame.
struct PortfolioState {
  EventLog log1;  // Deep copies: straggler safety.
  EventLog log2;
  PortfolioOptions options;
  std::vector<PortfolioStrategy> strategies;
  std::unique_ptr<MatchingContext> base;
  CancelToken cancel;
  Clock::time_point start;
  /// Root span of the race; strategy spans parent here *explicitly*
  /// because they open on worker threads whose span stacks are empty.
  obs::SpanId run_span_id = 0;

  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::unique_ptr<StrategySlot>> slots;
  std::size_t terminal_count = 0;
  bool accepted = false;
  std::size_t accepted_index = 0;

  PortfolioState(const EventLog& l1, const EventLog& l2,
                 PortfolioOptions opts,
                 std::vector<PortfolioStrategy> strats)
      : log1(l1), log2(l2), options(std::move(opts)),
        strategies(std::move(strats)) {}
};

/// True when `r` is provably the optimum: a completed run whose
/// certified bracket has collapsed.
bool CertifiedOptimal(const MatchResult& r) {
  return r.completed() && r.bounds_certified &&
         r.upper_bound - r.lower_bound <= 1e-9;
}

/// Publishes a worker's finished outcome into its slot and decides
/// whether the result ends the race early.  The slot is written only
/// here (under the state lock), so a straggler finishing after the
/// coordinator has already returned cannot race its assembly pass.
void FinishStrategy(const std::shared_ptr<PortfolioState>& state,
                    std::size_t i, PortfolioStrategyOutcome outcome,
                    MatchResult result) {
  StrategySlot& slot = *state->slots[i];
  std::lock_guard<std::mutex> lock(state->mu);
  slot.outcome = std::move(outcome);
  slot.result = std::move(result);
  slot.terminal = true;
  ++state->terminal_count;
  if (!state->accepted && slot.outcome.produced_result) {
    const MatchResult& r = slot.result;
    const bool gated = state->options.quality_gate > 0.0 && r.completed() &&
                       r.objective >= state->options.quality_gate;
    if (CertifiedOptimal(r) || gated) {
      state->accepted = true;
      state->accepted_index = i;
      state->cancel.Cancel();  // The race is decided; stop the rest.
    }
  }
  state->cv.notify_all();
}

/// Runs one strategy behind the isolation boundary: exceptions become
/// kFailed with bounded retry + backoff, never thread (or process)
/// death.  Works on locals and publishes once via FinishStrategy.
void RunStrategy(const std::shared_ptr<PortfolioState>& state,
                 std::size_t i) {
  StrategySlot& slot = *state->slots[i];
  obs::MetricsRegistry& metrics = state->base->metrics();
  obs::TraceRecorder* recorder = state->options.trace_recorder.get();
  obs::ScopedSpan strategy_span(
      recorder, "portfolio.strategy." + obs::MetricSlug(state->strategies[i].name),
      "exec", state->run_span_id);
  PortfolioStrategyOutcome outcome;
  outcome.name = state->strategies[i].name;
  if (state->cancel.cancelled()) {
    strategy_span.AddArg("started", 0.0);
    // Decided before this strategy got a turn (quality gate, deadline,
    // or a sequential predecessor's win): record it as never started.
    outcome.termination = TerminationReason::kCancelled;
    FinishStrategy(state, i, std::move(outcome), MatchResult{});
    return;
  }

  outcome.started = true;
  {
    // Mirror `started` into the slot so an abandoned straggler is
    // distinguishable from a never-scheduled strategy at assembly.
    std::lock_guard<std::mutex> lock(state->mu);
    slot.outcome.started = true;
  }
  metrics.GetCounter("portfolio.launched")->Increment();
  const double started_at = MsSince(state->start);
  MatchResult result;
  int attempts = 0;
  std::string failure;
  while (true) {
    ++attempts;
    if (slot.fault_targeted && attempts > 1) {
      slot.governor.InjectFault(FaultInjection::FromEnv());
    }
    slot.context->ArmBudget(SliceRemaining(state->options.budget,
                                           state->start),
                            &state->cancel);
    Result<MatchResult> attempt = [&]() -> Result<MatchResult> {
      try {
        return state->strategies[i].matcher->Match(*slot.context);
      } catch (const std::exception& e) {
        return Status::Internal(std::string("matcher crashed: ") + e.what());
      } catch (...) {
        return Status::Internal("matcher crashed: unknown exception");
      }
    }();
    if (attempt.ok()) {
      result = *std::move(attempt);
      outcome.produced_result = true;
      outcome.termination = result.termination;
      outcome.objective = result.objective;
      outcome.elapsed_ms = result.elapsed_ms;
      outcome.mappings_processed = result.mappings_processed;
      break;
    }
    failure = attempt.status().ToString();
    metrics.GetCounter("portfolio.failures")->Increment();
    const bool retries_left = attempts <= state->options.max_retries;
    if (!retries_left || state->cancel.cancelled()) {
      outcome.termination = TerminationReason::kFailed;
      outcome.failure = std::move(failure);
      outcome.elapsed_ms = MsSince(state->start) - started_at;
      break;
    }
    metrics.GetCounter("portfolio.retries")->Increment();
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        state->options.retry_backoff_ms * attempts));
  }
  outcome.attempts = attempts;
  strategy_span.AddArg("started", 1.0);
  strategy_span.AddArg("attempts", static_cast<double>(attempts));
  if (outcome.produced_result) {
    strategy_span.AddArg("objective", outcome.objective);
  }
  FinishStrategy(state, i, std::move(outcome), std::move(result));
}

std::string ReasonMetric(const std::string& strategy_name,
                         TerminationReason reason) {
  return "portfolio." + obs::MetricSlug(strategy_name) + ".termination." +
         TerminationReasonToString(reason);
}

}  // namespace

PortfolioRunner::PortfolioRunner(std::vector<PortfolioStrategy> strategies,
                                 PortfolioOptions options)
    : strategies_(std::move(strategies)), options_(std::move(options)) {}

Result<PortfolioOutcome> PortfolioRunner::Run(const EventLog& log1,
                                              const EventLog& log2,
                                              std::vector<Pattern> patterns) {
  if (consumed_) {
    return Status::InvalidArgument(
        "PortfolioRunner::Run is single-use (strategies moved into the "
        "run state)");
  }
  consumed_ = true;
  if (strategies_.empty()) {
    return Status::InvalidArgument("portfolio needs at least one strategy");
  }

  auto state = std::make_shared<PortfolioState>(
      log1, log2, std::move(options_), std::move(strategies_));
  const std::size_t n = state->strategies.size();

  // Root of the run timeline.  Opened before the base context so the
  // `context.build` span (and its ParallelFor workers) nest under it;
  // closed when this frame unwinds, i.e. after the outcome is
  // assembled, so it brackets the whole race wall-clock.
  obs::TraceRecorder* recorder = state->options.trace_recorder.get();
  obs::ScopedSpan run_span(recorder, "portfolio.run", "exec");
  state->run_span_id = run_span.id();

  // One precompute (graphs, pattern index, f1) shared by every worker
  // through sibling contexts over the thread-safe substrate.
  ContextTelemetryOptions telemetry;
  telemetry.enabled = state->options.telemetry;
  telemetry.trace_recorder = recorder;
  state->base = std::make_unique<MatchingContext>(
      state->log1, state->log2, std::move(patterns), telemetry);

  const char* fault_target = std::getenv("HEMATCH_FAULT_STRATEGY");
  state->slots.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto slot = std::make_unique<StrategySlot>();
    slot->context =
        std::make_unique<MatchingContext>(*state->base, &slot->governor);
    slot->outcome.name = state->strategies[i].name;
    if (fault_target != nullptr) {
      // Env faults are per-process; narrow the blast radius to the
      // targeted strategy so the drill tests exactly one worker (and
      // make the fault persistent across that worker's retries).
      slot->fault_targeted = obs::MetricSlug(fault_target) ==
                             obs::MetricSlug(state->strategies[i].name);
      if (!slot->fault_targeted) {
        slot->governor.InjectFault(FaultInjection{});
      }
    }
    state->slots.push_back(std::move(slot));
  }

  state->start = Clock::now();
  const double deadline_ms = state->options.budget.deadline_ms;
  // The watchdog fires a beat *after* the deadline so self-policing
  // governors trip kDeadline on their own clock first; the token then
  // only has to stop matchers that lost track of time.  The same
  // thread carries the optional telemetry heartbeat: the callback
  // captures the shared state (not this frame), and the watchdog is
  // disarmed + joined before `state` could be released here.
  WatchdogOptions wd;
  wd.deadline_ms = deadline_ms > 0.0 ? deadline_ms * 1.05 + 5.0 : 0.0;
  wd.token = &state->cancel;
  wd.trace_recorder = recorder;
  wd.trace_parent = state->run_span_id;
  if (state->options.heartbeat_ms > 0.0 && state->options.heartbeat) {
    wd.heartbeat_ms = state->options.heartbeat_ms;
    wd.heartbeat = [state](std::uint64_t seq) {
      state->options.heartbeat(seq, state->base->SnapshotTelemetry());
    };
  }
  Watchdog watchdog(std::move(wd));

  // Round-robin strategy assignment over the worker cap; workers are
  // detached and own the state via shared_ptr, so abandoning them at
  // the hard deadline is memory-safe.
  std::size_t workers = n;
  if (state->options.threads > 0 &&
      static_cast<std::size_t>(state->options.threads) < n) {
    workers = static_cast<std::size_t>(state->options.threads);
  }
  for (std::size_t w = 0; w < workers; ++w) {
    std::thread([state, w, workers, n] {
      if (obs::TraceRecorder* rec = state->options.trace_recorder.get()) {
        rec->SetThreadName("portfolio-worker-" + std::to_string(w));
      }
      for (std::size_t i = w; i < n; i += workers) {
        RunStrategy(state, i);
      }
    }).detach();
  }

  // Wait for a decision: early accept, all strategies terminal, the
  // hard return bound (grace_factor x deadline), or external
  // cancellation (polled; once seen, workers get a short wind-down).
  bool external = false;
  {
    std::unique_lock<std::mutex> lock(state->mu);
    const auto done = [&] {
      return state->accepted || state->terminal_count == n;
    };
    auto hard = deadline_ms > 0.0
                    ? state->start +
                          std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double, std::milli>(
                                  state->options.grace_factor * deadline_ms))
                    : Clock::time_point::max();
    while (!done()) {
      auto next = Clock::now() + std::chrono::milliseconds(20);
      if (next > hard) next = hard;
      state->cv.wait_until(lock, next, done);
      if (done() || Clock::now() >= hard) break;
      if (!external && state->options.external_cancel != nullptr &&
          state->options.external_cancel->cancelled()) {
        external = true;
        state->cancel.Cancel();
        const auto wind_down =
            Clock::now() + std::chrono::milliseconds(250);
        if (wind_down < hard) hard = wind_down;
      }
    }
  }
  watchdog.Disarm();

  // Assemble the outcome under the lock; terminal slots are immutable
  // now and stragglers only touch their own (non-terminal) slots.
  PortfolioOutcome out;
  obs::MetricsRegistry& metrics = state->base->metrics();
  std::lock_guard<std::mutex> lock(state->mu);
  out.elapsed_ms = MsSince(state->start);
  out.early_accept = state->accepted;

  std::size_t winner = n;  // n = none yet.
  double best_upper = 0.0;
  bool have_upper = false;
  for (std::size_t i = 0; i < n; ++i) {
    StrategySlot& slot = *state->slots[i];
    if (!slot.terminal) {
      slot.outcome.abandoned = true;
      slot.outcome.termination = external ? TerminationReason::kCancelled
                                          : TerminationReason::kDeadline;
      slot.outcome.elapsed_ms = out.elapsed_ms;
      metrics.GetCounter("portfolio.abandoned")->Increment();
    }
    if (slot.outcome.produced_result && slot.result.bounds_certified) {
      best_upper = have_upper ? std::min(best_upper, slot.result.upper_bound)
                              : slot.result.upper_bound;
      have_upper = true;
    }
    if (slot.outcome.produced_result &&
        (winner == n || slot.outcome.objective >
                            state->slots[winner]->outcome.objective)) {
      winner = i;
    }
    metrics.GetCounter(ReasonMetric(slot.outcome.name,
                                    slot.outcome.termination))
        ->Increment();
    out.strategies.push_back(slot.outcome);
  }
  if (state->accepted) {
    winner = state->accepted_index;
  }
  if (winner == n) {
    std::string detail = "portfolio produced no result";
    for (const PortfolioStrategyOutcome& o : out.strategies) {
      if (!o.failure.empty()) {
        detail += "; " + o.name + ": " + o.failure;
      }
    }
    return Status::Internal(detail);
  }

  out.winner = winner;
  out.winner_name = state->slots[winner]->outcome.name;
  out.result = std::move(state->slots[winner]->result);
  out.result.stages.clear();
  for (const PortfolioStrategyOutcome& o : out.strategies) {
    StageAttempt stage;
    stage.method = o.name;
    stage.termination = o.termination;
    stage.objective = o.objective;
    stage.elapsed_ms = o.elapsed_ms;
    stage.mappings_processed = o.mappings_processed;
    out.result.stages.push_back(std::move(stage));
  }

  if (!CertifiedOptimal(out.result)) {
    // Degraded relative to a certified-optimal answer: the reference
    // strategy (index 0, the exact rung on a `RaceCard`) names
    // the limit, mirroring the fallback ladder's first-trip rule, and
    // the bracket combines the winner's achieved objective with the
    // tightest certified upper bound any strategy produced.
    const PortfolioStrategyOutcome& ref = out.strategies.front();
    if (external) {
      out.result.termination = TerminationReason::kCancelled;
    } else if (ref.termination == TerminationReason::kCompleted) {
      out.result.termination = TerminationReason::kCompleted;
    } else {
      out.result.termination = ref.termination;
    }
    out.result.lower_bound = out.result.objective;
    if (have_upper) {
      out.result.upper_bound = std::max(best_upper, out.result.objective);
      out.result.bounds_certified = true;
    } else {
      out.result.upper_bound = out.result.objective;
      out.result.bounds_certified = false;
    }
  }

  metrics.GetGauge("portfolio.winner_objective")->Set(out.result.objective);
  metrics.GetGauge("portfolio.elapsed_ms")->Set(out.elapsed_ms);
  metrics.GetGauge("portfolio.strategies")->Set(static_cast<double>(n));
  if (out.early_accept) {
    metrics.GetCounter("portfolio.early_accepts")->Increment();
  }
  out.telemetry = state->base->SnapshotTelemetry();
  return out;
}

}  // namespace hematch::exec
