#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

/// \file
/// The two workloads. Each builds its inputs from the seed, runs one
/// untimed warm pass, measures for the requested seconds, and checks
/// every answer against what the warm pass certified. An untraced run
/// fills the end-to-end metrics; a traced run (a separate pass over the
/// same seed and pools) fills the per-layer ones.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "report.h"

namespace e2ebench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Inputs, records and traces are written under this directory.
  std::string out_dir;
};

struct WorkloadResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics (untraced) or per-layer metrics (traced).
  MetricValues metrics;
  /// Workload property record: pool and mix shares, limits, counts.
  JsonObject properties;
  /// Correctness-gate findings, first few only.
  std::vector<std::string> errors;
  /// False when the measurement itself is unsound (e.g. the open-loop
  /// generator ran late); the reason is in `invalid_reason`.
  bool valid = true;
  std::string invalid_reason;

  void Fail(std::string what) {
    ++failed;
    if (errors.size() < 20) {
      errors.push_back(std::move(what));
    }
  }
};

WorkloadResult RunBatchExact(const RunConfig& config);
WorkloadResult RunBatchIngest(const RunConfig& config);

/// The serve layers, for batch_exact's traced run: an in-process server
/// set up with its own pools, an open-loop schedule sent to it for
/// `seconds`, then the advanced heuristic on its synthetic pairs (spans
/// into `recorder`; see serve_probe.cc). Adds the serve.*, protocol, client,
/// log.register_ms and heuristic.ms metrics to `out`; its property
/// record lands under "serve_probe".
void ProbeServeLayers(const RunConfig& config, double seconds,
                      hematch::obs::TraceRecorder& recorder,
                      WorkloadResult& out);

/// Untraced runs set up this many times and report the median set-up
/// time: a single set-up under a second moves by tens of percent.
inline constexpr int kSetupRepeats = 5;

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H_
