#ifndef HEMATCH_SERVE_SERVICE_H_
#define HEMATCH_SERVE_SERVICE_H_

/// \file
/// One match request, executed: budgets, shedding, isolation.
///
/// `ExecuteMatch` is the seam between the server plumbing and the
/// matching library. Each call gets a *fresh* `ExecutionGovernor`
/// (picking up any `HEMATCH_FAULT_*` drill from the environment) bound
/// to a sibling of the warm base context, a `RunBudget` clamped to the
/// server's ceilings, a caller-owned `CancelToken`, and a `Watchdog`
/// backstop slightly past the deadline — so a request that is slow,
/// stuck, or crashing resolves to an anytime result with certified
/// bounds (or an INTERNAL error) without ever threatening the process
/// or other in-flight requests.

#include <cstdint>

#include "common/status.h"
#include "exec/budget.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "serve/registry.h"

namespace hematch::serve {

/// Per-request execution policy (a slice of ServerOptions).
struct ServiceOptions {
  /// Used when the request does not name a deadline.
  double default_deadline_ms = 1000.0;
  /// Hard ceiling on any request's deadline.
  double max_deadline_ms = 30000.0;
  /// Expansion cap applied when the request does not name one;
  /// 0 = unlimited.
  std::uint64_t default_max_expansions = 0;
  /// The watchdog fires at `deadline * grace_factor + 5ms` — the grace
  /// that bounds p99 for non-polling stretches (docs/ROBUSTNESS.md).
  double watchdog_grace_factor = 1.05;
};

/// What one execution produced: a reply payload, or the error the
/// server should translate into an error response.
struct MatchOutcome {
  bool ok = false;
  Status error = Status::OK();  ///< Set when !ok.
  MatchReplyData reply;         ///< Set when ok.
};

/// Runs `spec` against `warm` (already oriented: |V1| <= |V2| unless
/// partial mappings are on; `swapped` says whether orientation flipped
/// the request's log order). `shed_level` degrades the ladder under
/// saturation by dropping that many leading rungs of the method's
/// `MatcherRungs` (api/match_pipeline.h), never the last: 0 =
/// exact→advanced→simple, 1 = advanced→simple, 2 = simple only. `token` is the request's cancel token — the server
/// owns it, registers it for drain, and this function wires it into
/// the governor and watchdog.
///
/// `request_recorder`, when non-null, captures this request's matcher
/// and frequency spans: it is installed on the sibling context only
/// (never the shared evaluators) and as the worker thread's ambient
/// recorder for the duration of the run, so concurrent requests'
/// timelines never cross-wire.
MatchOutcome ExecuteMatch(WarmContext& warm, bool swapped,
                          const MatchRequestSpec& spec, int shed_level,
                          double queue_ms, bool context_warm,
                          const ServiceOptions& options,
                          exec::CancelToken& token,
                          obs::TraceRecorder* request_recorder = nullptr);

/// The deadline `ExecuteMatch` will run `spec` under (request value
/// clamped to the ceiling, default when absent). The admission queue
/// uses the same number for its backlog estimate.
double EffectiveDeadlineMs(const MatchRequestSpec& spec,
                           const ServiceOptions& options);

}  // namespace hematch::serve

#endif  // HEMATCH_SERVE_SERVICE_H_
