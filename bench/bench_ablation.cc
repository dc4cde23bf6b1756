// Ablation studies for the design choices DESIGN.md calls out:
//
//  1. Bound kind (Section 3.3 simple vs Algorithm 2 tight) — pruning
//     power and time of the exact search.
//  2. Proposition 3 existence-check mode (none / paper-faithful edge-set
//     / sound linearization) — evaluation counts and objective impact.
//  3. Formula (2) reading (optimistic-bound vs absolute) — accuracy of
//     the advanced heuristic.
//  4. Iterative propagation mode (SimRank-average vs max-match).
//  5. Frequency-evaluator engineering (trace index, memo cache) — raw
//     evaluation throughput on the target log.

#include <algorithm>
#include <chrono>
#include <iostream>

#include "common/rng.h"

#include "baselines/iterative_matcher.h"
#include "bench_util.h"
#include "core/astar_matcher.h"
#include "core/heuristic_advanced_matcher.h"
#include "core/pattern_set.h"
#include "eval/runner.h"
#include "freq/frequency_evaluator.h"
#include "gen/bus_process.h"
#include "gen/synthetic_process.h"
#include "graph/dependency_graph.h"

namespace {

using namespace hematch;

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void BoundAndExistenceAblation(const MatchingTask& task) {
  std::cout << "\n== Ablation 1+2: A* bound kind x existence mode ("
            << task.name << ") ==\n";
  TextTable table({"bound", "existence", "F", "time(ms)", "# mappings",
                   "# nodes"});
  const struct {
    const char* name;
    BoundKind bound;
  } bounds[] = {{"simple", BoundKind::kSimple}, {"tight", BoundKind::kTight}};
  const struct {
    const char* name;
    ExistenceCheckMode mode;
  } modes[] = {{"none", ExistenceCheckMode::kNone},
               {"edge-set", ExistenceCheckMode::kEdgeSet},
               {"linearization", ExistenceCheckMode::kLinearization}};
  for (const auto& bound : bounds) {
    for (const auto& mode : modes) {
      AStarOptions options;
      options.scorer.bound = bound.bound;
      options.scorer.existence = mode.mode;
      const AStarMatcher matcher(options);
      // A fresh context per cell so caches do not leak across variants.
      const DependencyGraph g1 = DependencyGraph::Build(task.log1);
      MatchingContext ctx(task.log1, task.log2,
                          BuildPatternSet(g1, task.complex_patterns));
      Result<MatchResult> outcome = matcher.Match(ctx);
      if (!outcome.ok()) {
        table.AddRow({bound.name, mode.name, "-", "-", "-", "-"});
        continue;
      }
      const MatchQuality quality =
          EvaluateMapping(outcome->mapping, task.ground_truth);
      table.AddRow({bound.name, mode.name,
                    TextTable::Num(quality.f_measure),
                    TextTable::Num(outcome->elapsed_ms, 2),
                    std::to_string(outcome->mappings_processed),
                    std::to_string(outcome->nodes_visited)});
    }
  }
  table.Print(std::cout);
}

void ThetaFormAblation(const MatchingTask& task) {
  std::cout << "\n== Ablation 3: Formula (2) reading in Heuristic-Advanced ("
            << task.name << ") ==\n";
  TextTable table({"theta form", "F", "time(ms)"});
  const struct {
    const char* name;
    ThetaForm form;
  } forms[] = {{"optimistic-bound (as printed, clamped)",
                ThetaForm::kOptimistic},
               {"absolute (|f1-f2|)", ThetaForm::kAbsolute}};
  for (const auto& form : forms) {
    HeuristicAdvancedOptions options;
    options.theta_form = form.form;
    const RunRecord record =
        RunMatcherOnTask(HeuristicAdvancedMatcher(options), task);
    table.AddRow({form.name,
                  record.completed ? TextTable::Num(record.f_measure) : "-",
                  record.completed ? TextTable::Num(record.elapsed_ms, 2)
                                   : "-"});
  }
  table.Print(std::cout);
}

void IterativeModeAblation(const MatchingTask& task) {
  std::cout << "\n== Ablation 4: Iterative propagation mode (" << task.name
            << ") ==\n";
  TextTable table({"mode", "F", "time(ms)"});
  const struct {
    const char* name;
    PropagationMode mode;
  } modes[] = {{"average (SimRank-like, paper baseline)",
                PropagationMode::kAverage},
               {"max-match (similarity flooding)",
                PropagationMode::kMaxMatch}};
  for (const auto& mode : modes) {
    IterativeOptions options;
    options.mode = mode.mode;
    const RunRecord record =
        RunMatcherOnTask(IterativeMatcher(options), task);
    table.AddRow({mode.name,
                  record.completed ? TextTable::Num(record.f_measure) : "-",
                  record.completed ? TextTable::Num(record.elapsed_ms, 2)
                                   : "-"});
  }
  table.Print(std::cout);
}

void EvaluatorAblation(const MatchingTask& task) {
  std::cout << "\n== Ablation 5: frequency-evaluator engineering ("
            << task.name << ", repeated pattern workload) ==\n";
  TextTable table({"configuration", "time(ms)", "traces scanned",
                   "cache hits"});
  const struct {
    const char* name;
    bool index;
    bool cache;
  } configs[] = {{"index + cache", true, true},
                 {"index only", true, false},
                 {"cache only", false, true},
                 {"neither", false, false}};
  for (const auto& config : configs) {
    FrequencyEvaluatorOptions options;
    options.use_trace_index = config.index;
    options.use_cache = config.cache;
    FrequencyEvaluator eval(task.log1, options);
    const double start = NowMs();
    // The A*-like access pattern: the same few patterns queried many
    // times across search branches.
    for (int round = 0; round < 50; ++round) {
      for (const Pattern& p : task.complex_patterns) {
        eval.Frequency(p);
      }
    }
    const double elapsed = NowMs() - start;
    table.AddRow({config.name, TextTable::Num(elapsed, 2),
                  std::to_string(eval.stats().traces_scanned),
                  std::to_string(eval.stats().cache_hits)});
  }
  table.Print(std::cout);
}

// A stress instance for the bound comparison: events included per trace
// with diverse probabilities (0.25..0.95) in a mildly shuffled canonical
// order. Wrong branches "waste" high-frequency targets, which is the
// regime where the tight bound's ceilings could bind; EXPERIMENTS.md
// discusses why even here the incremental g dominates.
MatchingTask MakeSubsetStressTask(std::size_t n, std::size_t traces,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> probs(n);
  for (std::size_t i = 0; i < n; ++i) {
    probs[i] = 0.25 + 0.7 * static_cast<double>(i) /
                          static_cast<double>(n - 1);
  }
  MatchingTask task;
  task.name = "subset-stress/n=" + std::to_string(n);
  for (std::size_t i = 0; i < n; ++i) {
    task.log1.InternEvent(std::string("a").append(std::to_string(i)));
    task.log2.InternEvent(std::string("b").append(std::to_string(i)));
  }
  Rng r1 = rng.Fork();
  Rng r2 = rng.Fork();
  Rng rj = rng.Fork();
  std::vector<double> probs2 = probs;
  for (double& p : probs2) {
    p = std::clamp(p + (rj.NextDouble() * 2.0 - 1.0) * 0.02, 0.01, 0.99);
  }
  auto generate = [&](EventLog& log, Rng& r,
                      const std::vector<double>& ps) {
    for (std::size_t t = 0; t < traces; ++t) {
      Trace trace;
      for (std::size_t i = 0; i < n; ++i) {
        if (r.NextBool(ps[i])) {
          trace.push_back(static_cast<EventId>(i));
        }
      }
      if (trace.size() >= 2 && r.NextBool(0.3)) {
        const std::size_t k = r.NextBounded(trace.size() - 1);
        std::swap(trace[k], trace[k + 1]);
      }
      if (!trace.empty()) {
        log.AddTrace(std::move(trace));
      }
    }
  };
  generate(task.log1, r1, probs);
  generate(task.log2, r2, probs2);
  task.ground_truth = Mapping(n, n);
  for (EventId v = 0; v < n; ++v) {
    task.ground_truth.Set(v, v);
  }
  return task;
}

void BoundStressAblation() {
  std::cout << "\n== Ablation 1b: bound kind on the subset-stress "
               "instances ==\n";
  TextTable table({"# events", "bound", "F", "time(ms)", "# mappings"});
  for (std::size_t n : {8, 9, 10}) {
    const MatchingTask task = MakeSubsetStressTask(n, 2000, 7);
    for (const auto bound :
         {BoundKind::kSimple, BoundKind::kTight, BoundKind::kBitmapTight}) {
      AStarOptions options;
      options.scorer.bound = bound;
      options.max_expansions = 20'000'000;
      const AStarMatcher matcher(options);
      const RunRecord record = RunMatcherOnTask(matcher, task);
      table.AddRow({std::to_string(n), matcher.name(),
                    record.completed ? TextTable::Num(record.f_measure)
                                     : "-",
                    record.completed
                        ? TextTable::Num(record.elapsed_ms, 1)
                        : "-",
                    record.completed
                        ? std::to_string(record.mappings_processed)
                        : "budget exhausted"});
    }
  }
  table.Print(std::cout);
}

}  // namespace

int main() {
  std::cout << "Ablation benches for the documented design choices\n";
  BusProcessOptions bus_options;
  const MatchingTask bus = MakeBusManufacturerTask(bus_options);

  SyntheticProcessOptions synthetic_options;
  synthetic_options.num_units = 2;
  synthetic_options.num_traces = 4000;
  const MatchingTask synthetic = MakeSyntheticTask(synthetic_options);

  BoundAndExistenceAblation(bus);
  BoundStressAblation();
  ThetaFormAblation(bus);
  ThetaFormAblation(synthetic);
  IterativeModeAblation(bus);
  EvaluatorAblation(bus);
  return 0;
}
