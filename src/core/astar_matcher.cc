#include "core/astar_matcher.h"

#include <algorithm>
#include <queue>
#include <utility>
#include <vector>

#include "core/match_telemetry.h"
#include "core/search_common.h"
#include "exec/budget.h"
#include "obs/stopwatch.h"

namespace hematch {

namespace {

struct Node {
  Mapping mapping;
  double g = 0.0;
  double h = 0.0;
  std::uint64_t sequence = 0;  // Creation order; final fallback tie key.
  std::uint64_t signature = 0;  // Dominance signature (reductions only).

  double f() const { return g + h; }
};

// Max-heap on f; ties prefer deeper (closer-to-complete) nodes, then the
// lexicographically smallest mapping — a stable key independent of node
// creation history, so reruns (and the parallel matcher at any thread
// count) certify the same canonical optimum. Creation order is only the
// final fallback for identical mappings.
struct NodeLess {
  bool operator()(const Node& a, const Node& b) const {
    if (a.f() != b.f()) return a.f() < b.f();
    if (a.mapping.size() != b.mapping.size()) {
      return a.mapping.size() < b.mapping.size();
    }
    const int lex = Mapping::LexCompare(a.mapping, b.mapping);
    if (lex != 0) return lex > 0;
    return a.sequence > b.sequence;
  }
};

}  // namespace

AStarMatcher::AStarMatcher(AStarOptions options)
    : options_(std::move(options)) {}

std::string AStarMatcher::name() const {
  if (!options_.name_override.empty()) {
    return options_.name_override;
  }
  switch (options_.scorer.bound) {
    case BoundKind::kSimple:
      return "Pattern-Simple";
    case BoundKind::kTight:
      return "Pattern-Tight";
    case BoundKind::kBitmapTight:
      return "Pattern-Bitmap";
  }
  return "Pattern-Tight";
}

Result<MatchResult> AStarMatcher::Match(MatchingContext& context) const {
  const obs::Stopwatch watch;
  const std::size_t n1 = context.num_sources();
  const std::size_t n2 = context.num_targets();
  const bool partial = options_.scorer.partial.enabled();
  const double unmapped_penalty = options_.scorer.partial.unmapped_penalty;
  if (n1 > n2 && !partial) {
    return Status::InvalidArgument(
        "A* matcher requires |V1| <= |V2|; swap the logs or enable "
        "partial mappings");
  }
  // Number of decided sources (mapped or ⊥) — the search depth. Equal
  // to mapping.size() whenever partial mappings are off.
  auto decided = [](const Mapping& m) {
    return m.size() + m.num_null_sources();
  };

  MappingScorer scorer(context, options_.scorer);
  exec::ExecutionGovernor& governor = context.governor();
  const std::string method = name();
  const std::string slug = obs::MetricSlug(method);
  obs::MetricsRegistry& metrics = context.metrics();
  SearchTelemetry telem = SearchTelemetry::Register(metrics, slug);

  obs::SearchTracer* tracer = context.tracer();
  obs::TraceRecorder* recorder = context.trace_recorder();
  obs::ScopedSpan match_span(recorder, "match." + slug, "core");
  const std::uint64_t interval =
      options_.progress_interval == 0 ? 8192 : options_.progress_interval;
  std::uint64_t next_report = interval;
  const std::uint64_t prune_hits_at_start = context.existence_prune_hits();

  // Approximate resident size of one open-list node: the struct, the
  // mapping's two id vectors, and container slack.
  const std::size_t node_bytes =
      sizeof(Node) + (n1 + n2) * sizeof(EventId) + 32;

  const SearchPlan plan = BuildSearchPlan(context);
  const bool use_dominance = options_.reductions.dominance_pruning;
  const bool use_symmetry = options_.reductions.symmetry_breaking;
  DominanceTable dominance;
  TargetSymmetry symmetry;
  if (use_symmetry) {
    symmetry = ComputeTargetSymmetry(context.log2());
  }

  MatchResult result;
  std::uint64_t sequence = 0;
  std::uint64_t epoch = 0;
  double best_g_seen = 0.0;

  // Fills a progress sample from the search's current frontier node.
  auto sample = [&](const Node& node, std::size_t open_size) {
    obs::SearchProgress p;
    p.method = method;
    p.epoch = epoch;
    p.nodes_visited = result.nodes_visited;
    p.mappings_processed = result.mappings_processed;
    p.open_list_size = open_size;
    p.depth = decided(node.mapping);
    p.max_depth = n1;
    p.best_f = node.f();
    p.best_g = best_g_seen;
    p.bound_gap = node.f() - best_g_seen;
    p.existence_prune_hits =
        context.existence_prune_hits() - prune_hits_at_start;
    p.elapsed_ms = watch.ElapsedMs();
    return p;
  };

  // Epoch counter samples for the timeline (the span-trace analogue of
  // the SearchTracer progress stream): frontier shape, incumbent gap,
  // pruning, and memo behavior, sampled every `interval` node pops.
  auto trace_epoch_counters = [&](const Node& node, std::size_t open_size) {
    if (recorder == nullptr) return;
    recorder->RecordCounter(slug + ".open_list",
                            static_cast<double>(open_size));
    recorder->RecordCounter(slug + ".best_f", node.f());
    recorder->RecordCounter(slug + ".bound_gap", node.f() - best_g_seen);
    recorder->RecordCounter(
        slug + ".prune.existence",
        static_cast<double>(context.existence_prune_hits() -
                            prune_hits_at_start));
    const FrequencyEvaluator::Stats& fs = context.evaluator2_stats();
    recorder->RecordCounter("freq2.cache_hits",
                            static_cast<double>(fs.cache_hits.load(
                                std::memory_order_relaxed)));
    recorder->RecordCounter("freq2.cache_misses",
                            static_cast<double>(fs.cache_misses.load(
                                std::memory_order_relaxed)));
  };

  // Run summary attached to the match span at every exit.
  auto finalize_attribution = [&] {
    telem.prune_existence->Increment(context.existence_prune_hits() -
                                     prune_hits_at_start);
    match_span.AddArg("nodes_visited",
                      static_cast<double>(result.nodes_visited));
    match_span.AddArg("mappings_processed",
                      static_cast<double>(result.mappings_processed));
    match_span.AddArg("objective", result.objective);
    match_span.AddArg("bound_gap", result.upper_bound - result.lower_bound);
  };

  auto trace_completion = [&](std::size_t open_size) {
    finalize_attribution();
    if (tracer == nullptr) return;
    obs::SearchProgress done;
    done.method = method;
    done.epoch = epoch;
    done.nodes_visited = result.nodes_visited;
    done.mappings_processed = result.mappings_processed;
    done.open_list_size = open_size;
    done.depth = result.mapping.size();
    done.max_depth = n1;
    done.best_f = result.upper_bound;
    done.best_g = result.objective;
    done.bound_gap = result.upper_bound - result.lower_bound;
    done.existence_prune_hits =
        context.existence_prune_hits() - prune_hits_at_start;
    done.elapsed_ms = result.elapsed_ms;
    tracer->OnComplete(done);
  };

  std::priority_queue<Node, std::vector<Node>, NodeLess> queue;

  // Anytime return path: the budget tripped, so greedily complete the
  // best node in hand and certify bounds around the true optimum.  The
  // returned objective is the mapping's exact score (a valid lower
  // bound); the largest f still on the frontier is a valid upper bound
  // because h never underestimates.
  auto anytime_result = [&](Node node, std::size_t open_size,
                            exec::TerminationReason reason) {
    double upper = node.f();
    if (!queue.empty()) upper = std::max(upper, queue.top().f());
    Mapping m = std::move(node.mapping);
    const double deadline = governor.budget().deadline_ms;
    const double grace_ms = deadline > 0.0 ? deadline * 1.5 + 25.0 : -1.0;
    const double g = GreedyComplete(scorer, plan, m, node.g, watch, grace_ms,
                                    result.mappings_processed);
    result.mapping = std::move(m);
    result.objective = g;
    result.termination = reason;
    result.lower_bound = g;
    result.upper_bound = std::max(upper, g);
    // A cancelled run may have aborted frequency scans mid-stream, so
    // its numbers are best-effort only.
    result.bounds_certified = reason != exec::TerminationReason::kCancelled;
    telem.best_f->Set(result.objective);
    telem.bound_gap->Set(result.upper_bound - result.lower_bound);
    telem.RecordOpenPeak(open_size);
    FinalizePartialMapping(context, method, options_.scorer.partial, result);
    FinalizeMatchTelemetry(context, method, watch, result);
    trace_completion(open_size);
    return result;
  };

  Node root{Mapping(n1, n2), 0.0, 0.0, sequence++, 0};
  root.h = scorer.ComputeHForRemaining(root.mapping, plan.remaining_after[0]);
  governor.ChargeMemory(node_bytes);
  queue.push(std::move(root));

  while (!queue.empty()) {
    Node node = queue.top();
    queue.pop();
    governor.ReleaseMemory(node_bytes);
    ++result.nodes_visited;
    best_g_seen = std::max(best_g_seen, node.g);
    telem.expansion_depth->Observe(static_cast<double>(decided(node.mapping)));
    telem.bound_gap_trajectory->Observe(node.f() - best_g_seen);
    if ((tracer != nullptr || recorder != nullptr) &&
        result.nodes_visited >= next_report) {
      if (tracer != nullptr) {
        tracer->OnProgress(sample(node, queue.size() + 1));
      }
      trace_epoch_counters(node, queue.size() + 1);
      ++epoch;
      next_report += interval;
    }
    const std::size_t depth = decided(node.mapping);
    if (depth == n1) {
      // First complete pop: optimal, since h is an upper bound.
      result.mapping = std::move(node.mapping);
      result.objective = node.g;
      result.lower_bound = node.g;
      result.upper_bound = node.g;
      result.bounds_certified = true;
      telem.best_f->Set(node.g);
      telem.bound_gap->Set(0.0);
      telem.RecordOpenPeak(queue.size());
      FinalizePartialMapping(context, method, options_.scorer.partial, result);
      FinalizeMatchTelemetry(context, method, watch, result);
      trace_completion(queue.size());
      return result;
    }
    // Stale representative: a strictly better same-signature node was
    // admitted after this one was pushed; its subtree covers this one.
    if (use_dominance && depth > 0 &&
        dominance.IsStale(node.signature, node.g)) {
      telem.prune_dominance->Increment();
      continue;
    }
    if (!governor.Poll()) {
      return anytime_result(std::move(node), queue.size() + 1,
                            governor.reason());
    }
    telem.best_f->Set(node.f());
    telem.bound_gap->Set(node.f() - best_g_seen);

    const EventId source = plan.order[depth];
    std::uint64_t children_pushed = 0;
    // Children map `source` to each unused target in id order, then (with
    // partial mappings) to ⊥: candidate n2 stands for ⊥.
    for (EventId target = 0; target <= n2; ++target) {
      const bool to_null = target == n2;
      if (to_null ? !partial : node.mapping.IsTargetUsed(target)) {
        continue;
      }
      if (!to_null && use_symmetry && symmetry.Skips(node.mapping, target)) {
        // A smaller-id interchangeable target is still unused; the
        // canonical subtree assigns that one instead.
        telem.prune_symmetry->Increment();
        continue;
      }
      if (result.mappings_processed >= options_.max_expansions) {
        return anytime_result(std::move(node), queue.size() + 1,
                              exec::TerminationReason::kExpansionCap);
      }
      if (!governor.CheckExpansions(1)) {
        return anytime_result(std::move(node), queue.size() + 1,
                              governor.reason());
      }
      ++result.mappings_processed;

      Node child{node.mapping, node.g, 0.0, sequence++, 0};
      if (to_null) {
        // Every pattern that completes at this depth contains `source`
        // and dies (adds 0 below), so the incremental g is exactly
        // -penalty; remaining dead patterns get Δ = 0 inside
        // ComputeHForRemaining, keeping h admissible.
        child.mapping.SetUnmapped(source);
        child.g -= unmapped_penalty;
      } else {
        child.mapping.Set(source, target);
      }
      for (std::uint32_t pid : plan.completed_at[depth + 1]) {
        child.g += scorer.CompletedOrDeadContribution(pid, child.mapping);
      }
      if (use_dominance) {
        child.signature =
            DominanceSignature(plan, depth + 1, child.mapping);
        if (dominance.IsDominated(child.signature, child.g)) {
          telem.prune_dominance->Increment();
          continue;  // An equal-future node with >= g was already kept.
        }
        governor.ChargeMemory(DominanceTable::kBytesPerEntry);
      }
      child.h = scorer.ComputeHForRemaining(child.mapping,
                                            plan.remaining_after[depth + 1]);
      governor.ChargeMemory(node_bytes);
      queue.push(std::move(child));
      ++children_pushed;
    }
    telem.branching_factor->Observe(static_cast<double>(children_pushed));
    telem.RecordOpenPeak(queue.size());
  }
  return Status::Internal("A* queue exhausted without a complete mapping");
}

}  // namespace hematch
