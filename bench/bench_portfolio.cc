// Hedged portfolio execution vs its own strategies: runs the exact A*
// matcher, the advanced heuristic, and the portfolio race (all three on
// worker threads, exec/portfolio.h) over projected bus instances. The
// interesting columns: the portfolio's time tracks the *fastest*
// strategy that answers well (plus thread overhead), never the slowest,
// and its F-measure matches the exact matcher wherever the exact
// matcher finishes — the hedging claim in docs/ROBUSTNESS.md.
//
// With HEMATCH_BENCH_METRICS_DIR set this writes BENCH_portfolio.json
// (one entry per run, full telemetry) next to the other harnesses'.

#include <algorithm>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "api/match_pipeline.h"
#include "core/astar_matcher.h"
#include "core/heuristic_advanced_matcher.h"
#include "exec/portfolio.h"
#include "gen/bus_process.h"

namespace hematch {
namespace {

// Adapts the single-use PortfolioRunner to the harness's Matcher-based
// rows: each Match builds a fresh race over the context's instance.
class PortfolioMatcher : public Matcher {
 public:
  explicit PortfolioMatcher(double deadline_ms) : deadline_ms_(deadline_ms) {}

  std::string name() const override { return "Portfolio"; }

  Result<MatchResult> Match(MatchingContext& context) const override {
    exec::PortfolioOptions options;
    options.budget.deadline_ms = deadline_ms_;
    // Telemetry stays on so the attribution histograms (branching
    // factor, bound-gap trajectory) can be summarized as percentiles
    // after the sweep; spans flow to HEMATCH_TRACE_OUT when set.
    options.telemetry = true;
    options.trace_recorder = bench::BenchTraceRecorder();
    exec::PortfolioRunner runner(RaceCard(MatchPipelineOptions{}),
                                 std::move(options));
    HEMATCH_ASSIGN_OR_RETURN(
        exec::PortfolioOutcome outcome,
        runner.Run(context.log1(), context.log2(), context.patterns()));
    telemetry_.Merge(outcome.telemetry);
    return std::move(outcome.result);
  }

  /// Accumulated across the sweep (Match is const; the harness reads
  /// this after all rows ran).
  const obs::TelemetrySnapshot& telemetry() const { return telemetry_; }

 private:
  double deadline_ms_;
  mutable obs::TelemetrySnapshot telemetry_;
};

}  // namespace
}  // namespace hematch

int main() {
  using namespace hematch;
  const MatchingTask full = MakeBusManufacturerTask({});

  const AStarMatcher pattern_tight;
  const HeuristicAdvancedMatcher advanced;
  const PortfolioMatcher portfolio(/*deadline_ms=*/2'000.0);
  const std::vector<const Matcher*> matchers = {&pattern_tight, &advanced,
                                                &portfolio};

  std::cout << "Portfolio: hedged race vs its strategies ("
            << full.log1.num_traces() << " traces)\n";
  bench::FigureTables tables(bench::MakeHeader("# events", matchers));
  const std::size_t max_events =
      std::min<std::size_t>(10, full.log1.num_events());
  for (std::size_t events = 4; events <= max_events; ++events) {
    tables.AddRows(std::to_string(events), matchers,
                   ProjectTaskEvents(full, events));
  }
  tables.Print("portfolio", "# events");

  std::cout << "\n== portfolio histogram percentiles (interpolated) ==\n";
  bench::PrintHistogramPercentiles(portfolio.telemetry(), std::cout);
  bench::WriteBenchTrace();
  return 0;
}
