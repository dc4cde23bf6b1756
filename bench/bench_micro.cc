// Google-benchmark microbenchmarks for the library's hot primitives:
// the per-log index build (dependency graph and trace indexes), pattern
// frequency evaluation, the window-membership test, the per-child h bound,
// Kuhn-Munkres, and subgraph isomorphism. These are the per-operation
// costs behind the figure harnesses' end-to-end times.

#include <benchmark/benchmark.h>

#include <memory>

#include "api/match_pipeline.h"
#include "assignment/hungarian.h"
#include "common/rng.h"
#include "core/astar_matcher.h"
#include "core/bounding.h"
#include "core/pattern_set.h"
#include "core/search_common.h"
#include "exec/portfolio.h"
#include "freq/frequency_evaluator.h"
#include "freq/log_index.h"
#include "freq/trace_matcher.h"
#include "pattern/pattern_language.h"
#include "gen/bus_process.h"
#include "gen/synthetic_process.h"
#include "graph/dependency_graph.h"
#include "graph/subgraph_isomorphism.h"
#include "pattern/pattern_graph.h"

namespace {

using namespace hematch;

const MatchingTask& BusTask() {
  static const MatchingTask* task = [] {
    BusProcessOptions options;
    return new MatchingTask(MakeBusManufacturerTask(options));
  }();
  return *task;
}

const MatchingTask& SyntheticTask() {
  static const MatchingTask* task = [] {
    SyntheticProcessOptions options;
    options.num_units = 5;
    options.num_traces = 5000;
    return new MatchingTask(MakeSyntheticTask(options));
  }();
  return *task;
}

// One walk over a 3,000-trace bus log: the dependency graph, the posting
// lists and the bitmap rows together (freq/log_index.h).
void BM_LogIndexBuild(benchmark::State& state) {
  const EventLog& log = BusTask().log1;
  for (auto _ : state) {
    LogIndex index(log);
    benchmark::DoNotOptimize(index);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(log.TotalLength()));
}
BENCHMARK(BM_LogIndexBuild);

void BM_WindowMembership(benchmark::State& state) {
  // SEQ(A, AND(B,C), D)-shaped pattern over a matching window.
  const Pattern& p = BusTask().complex_patterns[0];
  std::vector<EventId> window = p.events();
  for (auto _ : state) {
    benchmark::DoNotOptimize(WindowMatchesPattern(p, window));
  }
}
BENCHMARK(BM_WindowMembership);

void BM_TraceMatch(benchmark::State& state) {
  const MatchingTask& task = BusTask();
  const Pattern& p = task.complex_patterns[0];
  const Trace& trace = task.log1.traces()[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(TraceMatchesPattern(trace, p));
  }
}
BENCHMARK(BM_TraceMatch);

void BM_PatternFrequencyCold(benchmark::State& state) {
  const MatchingTask& task = BusTask();
  const Pattern& p = task.complex_patterns[0];
  for (auto _ : state) {
    state.PauseTiming();
    FrequencyEvaluatorOptions options;
    options.use_cache = false;
    FrequencyEvaluator eval(task.log1, options);
    state.ResumeTiming();
    benchmark::DoNotOptimize(eval.Frequency(p));
  }
}
BENCHMARK(BM_PatternFrequencyCold);

void BM_PatternFrequencyCached(benchmark::State& state) {
  const MatchingTask& task = BusTask();
  const Pattern& p = task.complex_patterns[0];
  FrequencyEvaluator eval(task.log1);
  eval.Frequency(p);  // Warm the memo table.
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.Frequency(p));
  }
}
BENCHMARK(BM_PatternFrequencyCached);

// The frequency engine end to end, cold memo cache, warm indices:
// arg 0 = legacy (posting lists + throwaway per-trace scratch), arg 1 =
// vectorized (bitmap candidates + reused thread-local scratch). The
// ratio of the two is the headline speedup bench_freq gates on.
void BM_Frequency(benchmark::State& state) {
  const MatchingTask& task = SyntheticTask();
  FrequencyEvaluatorOptions options;
  options.use_cache = false;  // Every iteration pays the full scan.
  if (state.range(0) == 0) {
    options.use_bitmap_index = false;
    options.use_scratch = false;
  }
  FrequencyEvaluator eval(task.log1, options);
  std::size_t i = 0;
  for (auto _ : state) {
    const Pattern& p =
        task.complex_patterns[i++ % task.complex_patterns.size()];
    benchmark::DoNotOptimize(eval.Support(p));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Frequency)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("vectorized")
    ->Unit(benchmark::kMicrosecond);

// Candidate generation alone: posting-list galloping intersection vs
// bitmap row ANDs, same query.
void BM_CandidateTraces(benchmark::State& state) {
  const MatchingTask& task = SyntheticTask();
  const std::vector<EventId>& events = task.complex_patterns[0].events();
  if (state.range(0) == 0) {
    const LogIndex index(task.log1);
    std::vector<std::uint32_t> out;
    for (auto _ : state) {
      index.postings().CandidateTracesInto(events, out);
      benchmark::DoNotOptimize(out);
    }
  } else {
    const LogIndex index(task.log1);
    std::vector<std::uint64_t> words;
    for (auto _ : state) {
      index.bitmap().IntersectInto(events, words);
      benchmark::DoNotOptimize(words);
    }
  }
}
BENCHMARK(BM_CandidateTraces)->Arg(0)->Arg(1)->ArgName("bitmap");

// Batch memo warm-up: sequential vs all-cores sharding of the synthetic
// pattern set over a fresh evaluator (the MatchingContext build-time
// path).
void BM_PrecomputeAll(benchmark::State& state) {
  const MatchingTask& task = SyntheticTask();
  for (auto _ : state) {
    state.PauseTiming();
    FrequencyEvaluator eval(task.log1);
    state.ResumeTiming();
    FrequencyEvaluator::PrecomputeOptions options;
    options.threads = static_cast<int>(state.range(0));
    options.min_parallel_patterns = 1;
    benchmark::DoNotOptimize(eval.PrecomputeAll(task.complex_patterns,
                                                options));
  }
}
BENCHMARK(BM_PrecomputeAll)
    ->Arg(1)
    ->Arg(0)
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond);

void BM_PatternGraphTranslation(benchmark::State& state) {
  const Pattern& p = BusTask().complex_patterns[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(TranslatePatternToGraph(p));
  }
}
BENCHMARK(BM_PatternGraphTranslation);

// The per-child cost of the search bound over a fixed frontier of 16
// random partial mappings of BusTask(), one at each depth of the search
// plan and then cycling, and every child of each: the next source in plan
// order mapped to each unused target. With `whole_child:0` only
// ComputeHForRemaining is timed; with `whole_child:1` the whole child
// step as A* pays it (copy the parent, add the pair, add g of the
// patterns completing, compute h). Reports `us_per_child`.
void BM_ChildBound(benchmark::State& state, BoundKind bound) {
  const MatchingTask& task = BusTask();
  MatchingContext context(
      task.log1, task.log2,
      BuildPatternSet(DependencyGraph::Build(task.log1),
                      task.complex_patterns));
  const SearchPlan plan = BuildSearchPlan(context);
  std::vector<std::pair<Mapping, std::size_t>> parents;
  std::vector<std::pair<Mapping, std::size_t>> children;
  Rng rng(7);
  for (std::size_t i = 0; i < 16; ++i) {
    const std::size_t depth = i % (plan.order.size() - 1);
    std::vector<EventId> targets(context.num_targets());
    for (EventId t = 0; t < targets.size(); ++t) targets[t] = t;
    rng.Shuffle(targets);
    Mapping m(context.num_sources(), context.num_targets());
    for (std::size_t d = 0; d < depth; ++d) {
      m.Set(plan.order[d], targets[d]);
    }
    for (EventId t = 0; t < context.num_targets(); ++t) {
      if (!m.IsTargetUsed(t)) {
        Mapping child = m;
        child.Set(plan.order[depth], t);
        children.emplace_back(std::move(child), depth + 1);
      }
    }
    parents.emplace_back(std::move(m), depth);
  }
  ScorerOptions options;
  options.bound = bound;
  MappingScorer scorer(context, options);
  const bool whole_child = state.range(0) != 0;
  for (auto _ : state) {
    if (!whole_child) {
      for (const auto& [child, depth] : children) {
        benchmark::DoNotOptimize(
            scorer.ComputeHForRemaining(child, plan.remaining_after[depth]));
      }
      continue;
    }
    for (const auto& [parent, depth] : parents) {
      for (EventId t = 0; t < context.num_targets(); ++t) {
        if (parent.IsTargetUsed(t)) continue;
        Mapping child = parent;
        child.Set(plan.order[depth], t);
        double g = 0.0;
        for (std::uint32_t pid : plan.completed_at[depth + 1]) {
          g += scorer.CompletedOrDeadContribution(pid, child);
        }
        benchmark::DoNotOptimize(
            g + scorer.ComputeHForRemaining(child,
                                            plan.remaining_after[depth + 1]));
      }
    }
  }
  state.counters["us_per_child"] = benchmark::Counter(
      static_cast<double>(children.size()) * 1e-6,
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_ChildBound, simple, BoundKind::kSimple)
    ->Arg(0)->Arg(1)->ArgName("whole_child");
BENCHMARK_CAPTURE(BM_ChildBound, tight, BoundKind::kTight)
    ->Arg(0)->Arg(1)->ArgName("whole_child");
BENCHMARK_CAPTURE(BM_ChildBound, bitmap_tight, BoundKind::kBitmapTight)
    ->Arg(0)->Arg(1)->ArgName("whole_child");

// Full A* match with observability off (0), metrics on (1), and
// metrics + span recorder (2): the triple bounds the metric subsystem's
// overhead on the search hot path (budget: <2 %) and checks that with
// no recorder installed, tracing costs nothing beyond a null compare.
void BM_AStarMatch(benchmark::State& state) {
  const MatchingTask& task = BusTask();
  const DependencyGraph g1 = DependencyGraph::Build(task.log1);
  const std::vector<Pattern> patterns =
      BuildPatternSet(g1, task.complex_patterns);
  ContextTelemetryOptions telemetry;
  telemetry.enabled = state.range(0) != 0;
  std::unique_ptr<obs::TraceRecorder> recorder;
  if (state.range(0) == 2) {
    recorder = std::make_unique<obs::TraceRecorder>();
    telemetry.trace_recorder = recorder.get();
  }
  const AStarMatcher matcher;
  for (auto _ : state) {
    state.PauseTiming();
    MatchingContext context(task.log1, task.log2, patterns, telemetry);
    state.ResumeTiming();
    benchmark::DoNotOptimize(matcher.Match(context));
  }
}
BENCHMARK(BM_AStarMatch)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->ArgName("obs")
    ->Unit(benchmark::kMicrosecond);

void BM_Hungarian(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(42);
  std::vector<std::vector<double>> weights(n, std::vector<double>(n));
  for (auto& row : weights) {
    for (double& cell : row) cell = rng.NextDouble();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveMaxWeightAssignment(weights));
  }
}
BENCHMARK(BM_Hungarian)->Arg(10)->Arg(50)->Arg(100);

void BM_SubgraphIsomorphism(benchmark::State& state) {
  // Embed the Example 4 pattern graph into the bus dependency graph.
  const MatchingTask& task = BusTask();
  const PatternGraph pg = TranslatePatternToGraph(task.complex_patterns[0]);
  const DependencyGraph g2 = DependencyGraph::Build(task.log2);
  Digraph target(task.log2.num_events());
  for (const auto& [u, v] : g2.edges()) {
    target.AddEdge(u, v);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(IsSubgraphIsomorphic(pg.graph, target));
  }
}
BENCHMARK(BM_SubgraphIsomorphism);

void BM_Portfolio(benchmark::State& state) {
  // End-to-end hedged race (exact + both heuristics on worker threads)
  // on a projected bus instance; the per-run cost includes the thread
  // launches and the coordinator, i.e. the portfolio's overhead over a
  // bare exact run at the same size.
  const MatchingTask task =
      ProjectTaskEvents(BusTask(), static_cast<std::size_t>(state.range(0)));
  const std::vector<Pattern> patterns = BuildPatternSet(
      DependencyGraph::Build(task.log1), task.complex_patterns);
  for (auto _ : state) {
    exec::PortfolioOptions options;
    options.budget.deadline_ms = 2'000.0;
    options.telemetry = false;
    exec::PortfolioRunner runner(RaceCard(MatchPipelineOptions{}),
                                 std::move(options));
    benchmark::DoNotOptimize(runner.Run(task.log1, task.log2, patterns));
  }
}
BENCHMARK(BM_Portfolio)->Arg(6)->Arg(9)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
