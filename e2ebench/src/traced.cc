#include "traced.h"

#include <memory>
#include <utility>
#include <vector>

#include "api/fallback_matcher.h"
#include "core/astar_matcher.h"
#include "core/heuristic_advanced_matcher.h"
#include "core/matching_context.h"
#include "core/pattern_set.h"
#include "graph/dependency_graph.h"
#include "obs/trace_analysis.h"
#include "pattern/pattern_parser.h"

namespace e2ebench {

using hematch::obs::ScopedSpan;

hematch::Result<hematch::MatchResult> TracedMatch(
    hematch::obs::TraceRecorder* recorder, const hematch::EventLog& log1,
    const hematch::EventLog& log2,
    const hematch::MatchPipelineOptions& options,
    hematch::obs::TelemetrySnapshot* telemetry) {
  std::vector<hematch::Pattern> complex;
  {
    ScopedSpan span(recorder, kSpanPatternParse, "pattern");
    for (const std::string& text : options.patterns) {
      HEMATCH_ASSIGN_OR_RETURN(hematch::Pattern p,
                               hematch::ParsePattern(text, log1.dictionary()));
      complex.push_back(std::move(p));
    }
  }
  std::unique_ptr<hematch::DependencyGraph> graph;
  {
    ScopedSpan span(recorder, kSpanGraphBuild, "graph");
    graph = std::make_unique<hematch::DependencyGraph>(
        hematch::DependencyGraph::Build(log1));
  }
  std::vector<hematch::Pattern> patterns;
  {
    ScopedSpan span(recorder, kSpanPatternSet, "pattern");
    patterns = hematch::BuildPatternSet(*graph, complex);
  }
  std::unique_ptr<hematch::MatchingContext> context;
  {
    ScopedSpan span(recorder, kSpanContextBuild, "freq");
    hematch::ContextTelemetryOptions context_telemetry;
    context_telemetry.enabled = options.telemetry;
    context = std::make_unique<hematch::MatchingContext>(
        log1, log2, std::move(patterns), context_telemetry);
  }
  context->ArmBudget(options.budget, options.cancel);

  hematch::Result<hematch::MatchResult> result =
      hematch::Status::InvalidArgument("method is not traced");
  if (options.method == hematch::MatchMethod::kPatternTight) {
    hematch::AStarOptions astar;
    astar.scorer = options.scorer;
    astar.scorer.bound = hematch::BoundKind::kTight;
    astar.max_expansions = options.max_expansions;
    hematch::FallbackOptions fallback;
    fallback.budget = options.budget;
    fallback.cancel = options.cancel;
    const auto ladder =
        hematch::FallbackMatcher::ExactWithHeuristicFallbacks(astar, fallback);
    ScopedSpan span(recorder, kSpanSearch, "core");
    result = ladder->Match(*context);
  } else if (options.method == hematch::MatchMethod::kHeuristicAdvanced) {
    hematch::HeuristicAdvancedOptions advanced;
    advanced.scorer = options.scorer;
    const hematch::HeuristicAdvancedMatcher matcher(advanced);
    ScopedSpan span(recorder, kSpanHeuristic, "core");
    result = matcher.Match(*context);
  }
  if (telemetry != nullptr) {
    *telemetry = context->SnapshotTelemetry();
  }
  return result;
}

hematch::obs::TraceRecorder MakeRecorder() {
  hematch::obs::TraceRecorderOptions options;
  options.per_thread_capacity = 1 << 20;
  return hematch::obs::TraceRecorder(options);
}

void WriteTrace(const RunConfig& config,
                const hematch::obs::TraceRecorder& recorder,
                WorkloadResult& out) {
  const std::string path = config.out_dir + "/trace-" + config.workload +
                           "-seed" + std::to_string(config.seed) + ".json";
  if (const auto status = recorder.WriteChromeJson(path); !status.ok()) {
    out.Fail("cannot write " + path + ": " + status.ToString());
  }
  out.properties.Add("trace_file", path)
      .Add("trace_dropped_events", recorder.dropped_events());
}

std::map<std::string, SpanTotals> SpanTotalsByName(
    const hematch::obs::TraceRecorder& recorder) {
  hematch::obs::ParsedTrace trace;
  trace.events = recorder.Snapshot();
  trace.thread_names = recorder.ThreadNames();
  trace.dropped_events = recorder.dropped_events();
  std::map<std::string, SpanTotals> totals;
  for (const auto& stats : hematch::obs::AnalyzeTrace(trace).by_name) {
    SpanTotals& t = totals[stats.name];
    t.count = stats.count;
    t.total_ms = stats.total_us / 1000.0;
    t.self_ms = stats.self_us / 1000.0;
  }
  return totals;
}

void ContextCounters::Add(const hematch::obs::TelemetrySnapshot& snapshot) {
  memo_hits += snapshot.counter("freq2.cache_hits");
  memo_misses += snapshot.counter("freq2.cache_misses");
  traces_scanned += snapshot.counter("freq2.traces_scanned");
  existence_checks += snapshot.counter("existence.checks");
  existence_pruned += snapshot.counter("existence.pruned");
}

void AddPhaseLayerMetrics(const TracedJobs& t,
                          const std::map<std::string, SpanTotals>& spans,
                          WorkloadResult& out) {
  const auto total = [&spans](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total_ms;
  };
  const auto per = [](double value, std::size_t count) {
    return count == 0 ? 0.0 : value / static_cast<double>(count);
  };
  const auto ratio = [](std::uint64_t part, std::uint64_t whole) {
    return whole == 0 ? 0.0
                      : static_cast<double>(part) / static_cast<double>(whole);
  };
  const double search_ms = total(kSpanSearch);
  const auto job = spans.find(kSpanJob);
  const double job_self_ms = job == spans.end() ? 0.0 : job->second.self_ms;
  MetricValues& m = out.metrics;
  m["graph.build_ms"] = per(total(kSpanGraphBuild), t.jobs);
  m["pattern.set_ms"] =
      per(total(kSpanPatternParse) + total(kSpanPatternSet), t.jobs);
  m["context.build_ms"] = per(total(kSpanContextBuild), t.jobs);
  m["search.ms"] = per(search_ms, t.jobs);
  m["search.mappings_processed"] = per(static_cast<double>(t.mappings), t.jobs);
  m["search.nodes_visited"] = per(static_cast<double>(t.nodes), t.jobs);
  m["search.mappings_per_ms"] = static_cast<double>(t.mappings) / search_ms;
  const ContextCounters& c = t.counters;
  m["freq.memo_hit_ratio"] =
      ratio(c.memo_hits, c.memo_hits + c.memo_misses);
  m["freq.traces_scanned"] =
      per(static_cast<double>(c.traces_scanned), t.jobs);
  m["existence.pruned_ratio"] = ratio(c.existence_pruned, c.existence_checks);
  m["ladder.fallback_ratio"] = ratio(t.fallbacks, t.jobs);
  m["api.remainder_ms"] = per(job_self_ms, t.jobs);
  m["trace.overhead_ratio"] = total(kSpanJob) / t.untraced_job_ms;

  JsonObject self;
  for (const auto& [name, s] : spans) {
    JsonObject span;
    span.Add("count", s.count)
        .Add("total_ms", s.total_ms)
        .Add("self_ms", s.self_ms);
    self.Add(name, span);
  }
  out.properties.Add("traced_jobs", static_cast<std::uint64_t>(t.jobs))
      .Add("spans", self);
}

}  // namespace e2ebench
