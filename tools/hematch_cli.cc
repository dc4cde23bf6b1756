// hematch_cli — match two heterogeneous event logs end to end.
//
// Usage:
//   hematch_cli [options] <log1> <log2>
//
// Logs are CSV (case,event[,timestamp]), XES (IEEE 1849), or
// trace-per-line files; the format is chosen by extension (.csv / .xes /
// anything else). Patterns
// over log1's vocabulary can be given explicitly (repeatable
// --pattern 'SEQ(A,AND(B,C),D)') and/or mined from log1 (--mine).
//
// Options:
//   --method NAME     pattern-tight (default) | pattern-simple |
//                     pattern-parallel | heuristic-simple |
//                     heuristic-advanced | vertex | vertex-edge |
//                     iterative | entropy | all
//   --parallel-astar  shorthand for --method pattern-parallel: exact A*
//                     sharded over worker threads (HDA*) with the
//                     bitmap-tight bound, dominance pruning, and
//                     symmetry breaking — same certified optimum
//   --search-threads N  worker threads for pattern-parallel (0 = all
//                     hardware threads)
//   --pattern EXPR    add a complex pattern (repeatable)
//   --mine            mine discriminative patterns from log1
//   --mine-support F  miner support threshold (default 0.1)
//   --budget N        search budget for the exact methods (expansions)
//   --deadline-ms F   wall-clock budget per matcher run; on expiry the
//                     run returns its best-so-far (anytime) mapping and
//                     the exact methods degrade down the heuristic ladder
//   --memory-mb F     approximate memory ceiling per run (search state +
//                     frequency caches)
//   --no-degrade      disable the exact->heuristic fallback ladder
//   --portfolio       hedged execution: race the exact matcher and both
//                     heuristics on worker threads under the shared
//                     budget; first certified-optimal result (or best
//                     objective at the deadline) wins. Exact methods
//                     only.
//   --threads N       worker-thread cap for --portfolio (0 = one per
//                     strategy)
//   --fail-degraded   exit 3 when any run was truncated or degraded
//   --xes-strict      strict XES parsing (reject truncated/malformed files
//                     instead of salvaging completed traces)
//   --strict          strict parsing for every format (XES + CSV); the
//                     lenient default salvages ragged/malformed rows and
//                     counts them in log.csv_salvaged
//   --partial-penalty F  allow partial mappings: any source event may stay
//                     unmapped (⊥) at cost F per unmapped event; enables
//                     |V1| != |V2| inputs (default: off / infinite)
//   --corrupt SPEC    corruption drill: corrupt log2 in memory before
//                     matching. SPEC is comma-separated key=value with
//                     keys drop, dup, swap, relabel (probabilities),
//                     junk (class count), junk_rate, drop_trace, seed —
//                     e.g. 'drop=0.1,dup=0.05,junk=2,junk_rate=0.2'
//   --seed N          seed for the deterministic corruption RNG
//                     (overrides any seed= in --corrupt)
//   --explain         print per-pattern / per-pair evidence for the result
//   --extend          extend the best 1-1 mapping to 1-to-n groups
//   --output FILE     write the best mapping as tab-separated pairs
//   --metrics-out F   write per-run telemetry as JSON (see
//                     docs/OBSERVABILITY.md for the schema)
//   --trace-out F     record a span timeline of the whole invocation
//                     (log loading, context build, matcher runs,
//                     portfolio workers) and write it as Chrome/Perfetto
//                     trace-event JSON — load in ui.perfetto.dev or
//                     summarize with hematch_trace
//   --heartbeat-ms N  during the run, print one hematch.heartbeat.v1
//                     JSON line to stderr every N ms (telemetry
//                     percentiles + counters; evidence from hung runs)
//   --progress        print live search progress lines to stderr
//   --help            this text
//
// Every option also accepts the --flag=value spelling.

#include <csignal>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/match_pipeline.h"
#include "common/strings.h"
#include "core/mapping_io.h"
#include "core/one_to_n.h"
#include "core/pattern_set.h"
#include "eval/report.h"
#include "eval/runner.h"
#include "eval/table.h"
#include "exec/budget.h"
#include "exec/portfolio.h"
#include "freq/log_index.h"
#include "gen/log_corruptor.h"
#include "gen/pattern_miner.h"
#include "log/log_io.h"
#include "log/xes_io.h"
#include "exec/watchdog.h"
#include "obs/metrics_json.h"
#include "obs/search_tracer.h"
#include "obs/trace.h"
#include "pattern/pattern_parser.h"

namespace {

using namespace hematch;

// SIGINT/SIGTERM trip the run's cancel token, so an interrupted search
// exits through the anytime path: the matcher returns its best-so-far
// mapping with termination "cancelled", every output file still gets
// written, and main exits 128+signal.  A second signal falls through to
// the default disposition (the handler resets itself) and kills the
// process — the escape hatch when the run is wedged before a poll.
exec::CancelToken g_interrupt;
volatile std::sig_atomic_t g_signal = 0;

extern "C" void HandleInterrupt(int sig) {
  g_signal = sig;
  g_interrupt.Cancel();  // Lock-free atomic store: async-signal-safe.
  std::signal(sig, SIG_DFL);
}

void InstallInterruptHandlers() {
  std::signal(SIGINT, HandleInterrupt);
  std::signal(SIGTERM, HandleInterrupt);
}

void PrintUsageAndExit(int code) {
  std::cerr <<
      "usage: hematch_cli [options] <log1> <log2>\n"
      "  --method NAME     pattern-tight | pattern-simple | "
      "pattern-parallel |\n"
      "                    heuristic-simple | heuristic-advanced | vertex |\n"
      "                    vertex-edge | iterative | entropy | all\n"
      "                    (default: pattern-tight)\n"
      "  --parallel-astar  shorthand for --method pattern-parallel\n"
      "  --search-threads N  workers for pattern-parallel (0 = hardware)\n"
      "  --pattern EXPR    add a complex pattern over log1, e.g. "
      "'SEQ(A,AND(B,C),D)'\n"
      "  --mine            mine discriminative patterns from log1\n"
      "  --mine-support F  miner support threshold (default 0.1)\n"
      "  --budget N        expansion budget for exact methods\n"
      "  --deadline-ms F   wall-clock budget per run (anytime results)\n"
      "  --memory-mb F     approximate memory ceiling per run\n"
      "  --no-degrade      disable the exact->heuristic fallback ladder\n"
      "  --portfolio       race exact + heuristics on worker threads\n"
      "  --threads N       worker cap for --portfolio (0 = per strategy)\n"
      "  --fail-degraded   exit 3 when any run was truncated or degraded\n"
      "  --xes-strict      reject malformed XES instead of salvaging\n"
      "  --strict          strict parsing for every format (XES + CSV)\n"
      "  --partial-penalty F  allow unmapped sources (⊥) at cost F each\n"
      "  --corrupt SPEC    corrupt log2 before matching, e.g. "
      "'drop=0.1,junk=2,junk_rate=0.2'\n"
      "  --seed N          seed for the corruption RNG\n"
      "  --explain         print per-pattern / per-pair evidence\n"
      "  --extend          extend the best 1-1 mapping to 1-to-n groups\n"
      "  --output FILE     write the best mapping as tab-separated pairs\n"
      "  --metrics-out F   write per-run telemetry as JSON\n"
      "  --trace-out F     write a Chrome/Perfetto span timeline of the run\n"
      "  --heartbeat-ms N  print a telemetry heartbeat line to stderr "
      "every N ms\n"
      "  --progress        print live search progress lines to stderr\n"
      "options also accept the --flag=value spelling\n";
  std::exit(code);
}

/// Writes the per-run metrics document: one entry per matcher run with the
/// headline `MatchResult` numbers plus the run's full telemetry snapshot
/// (schema in docs/OBSERVABILITY.md).
bool WriteRunMetrics(const std::string& path,
                     const std::vector<RunRecord>& records) {
  std::string json;
  json += "{\n  \"schema\": \"hematch.run_metrics.v1\",\n  \"runs\": [";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const RunRecord& r = records[i];
    json += i == 0 ? "\n" : ",\n";
    json += "    {\n";
    json += "      \"method\": \"" + obs::JsonEscape(r.method) + "\",\n";
    json += std::string("      \"completed\": ") +
            (r.completed ? "true" : "false") + ",\n";
    json += std::string("      \"termination\": \"") +
            exec::TerminationReasonToString(r.termination) + "\",\n";
    json += std::string("      \"degraded\": ") +
            (r.degraded ? "true" : "false") + ",\n";
    if (!r.completed) {
      json += "      \"failure\": \"" + obs::JsonEscape(r.failure) + "\",\n";
      json += "      \"lower_bound\": " + obs::JsonNumber(r.lower_bound) +
              ",\n";
      json += "      \"upper_bound\": " + obs::JsonNumber(r.upper_bound) +
              ",\n";
      json += std::string("      \"bounds_certified\": ") +
              (r.bounds_certified ? "true" : "false") + ",\n";
    }
    if (!r.stages.empty()) {
      json += "      \"stages\": [";
      for (std::size_t s = 0; s < r.stages.size(); ++s) {
        const StageAttempt& stage = r.stages[s];
        json += s == 0 ? "\n" : ",\n";
        json += "        {\"method\": \"" + obs::JsonEscape(stage.method) +
                "\", \"termination\": \"" +
                exec::TerminationReasonToString(stage.termination) +
                "\", \"objective\": " + obs::JsonNumber(stage.objective) +
                ", \"elapsed_ms\": " + obs::JsonNumber(stage.elapsed_ms) +
                ", \"mappings_processed\": " +
                std::to_string(stage.mappings_processed) + "}";
      }
      json += "\n      ],\n";
    }
    json += "      \"objective\": " + obs::JsonNumber(r.objective) + ",\n";
    json += "      \"elapsed_ms\": " + obs::JsonNumber(r.elapsed_ms) + ",\n";
    json += "      \"mappings_processed\": " +
            std::to_string(r.mappings_processed) + ",\n";
    json += "      \"nodes_visited\": " + std::to_string(r.nodes_visited) +
            ",\n";
    json += "      \"telemetry\": " + obs::TelemetryToJson(r.telemetry, 2, 3);
    json += "\n    }";
  }
  json += records.empty() ? "]\n}\n" : "\n  ]\n}\n";
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << json;
  return static_cast<bool>(out);
}

Result<EventLog> LoadLog(const std::string& path, bool xes_strict,
                         bool csv_strict, CsvReadStats* csv_stats) {
  auto has_suffix = [&](std::string_view suffix) {
    return path.size() >= suffix.size() &&
           path.compare(path.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
  };
  if (has_suffix(".csv")) {
    CsvReadOptions csv;
    csv.strict = csv_strict;
    return ReadCsvLogFile(path, csv, csv_stats);
  }
  if (has_suffix(".xes")) {
    XesReadOptions xes;
    xes.strict = xes_strict;
    return ReadXesLogFile(path, xes);
  }
  return ReadTraceLogFile(path);
}

// The --method slugs, in the order `--method all` runs them.
constexpr std::pair<std::string_view, MatchMethod> kMethods[] = {
    {"pattern-tight", MatchMethod::kPatternTight},
    {"pattern-simple", MatchMethod::kPatternSimple},
    {"pattern-parallel", MatchMethod::kParallelAStar},
    {"heuristic-simple", MatchMethod::kHeuristicSimple},
    {"heuristic-advanced", MatchMethod::kHeuristicAdvanced},
    {"vertex", MatchMethod::kVertex},
    {"vertex-edge", MatchMethod::kVertexEdge},
    {"iterative", MatchMethod::kIterative},
    {"entropy", MatchMethod::kEntropy},
};

std::optional<MatchMethod> MethodForSlug(std::string_view slug) {
  for (const auto& [name, match_method] : kMethods) {
    if (name == slug) {
      return match_method;
    }
  }
  return std::nullopt;
}

// The matchers `method` names (every one for "all"), from the library's
// factory: an exact method comes as its fallback ladder unless
// `options.degrade` is off.
std::vector<std::unique_ptr<Matcher>> MakeMatchers(
    const std::string& method, MatchPipelineOptions options) {
  std::vector<std::unique_ptr<Matcher>> matchers;
  for (const auto& [slug, match_method] : kMethods) {
    if (method == "all" || method == slug) {
      options.method = match_method;
      matchers.push_back(MakeMatcher(options));
    }
  }
  return matchers;
}

}  // namespace

int main(int argc, char** argv) {
  if (const Status fault_env = exec::FaultInjection::ValidateEnv();
      !fault_env.ok()) {
    std::cerr << "bad fault-injection environment: " << fault_env << "\n";
    return 2;
  }
  InstallInterruptHandlers();
  std::string method = "pattern-tight";
  std::vector<std::string> pattern_texts;
  bool mine = false;
  bool explain = false;
  bool extend = false;
  bool progress = false;
  std::string output_path;
  std::string metrics_path;
  std::string trace_path;
  double heartbeat_ms = 0.0;
  double mine_support = 0.1;
  std::uint64_t budget = 50'000'000;
  exec::RunBudget run_budget;
  bool degrade = true;
  bool portfolio = false;
  int threads = 0;
  int search_threads = 0;
  bool fail_degraded = false;
  bool xes_strict = false;
  bool strict_all = false;
  double partial_penalty = std::numeric_limits<double>::infinity();
  std::string corrupt_spec_text;
  std::optional<std::uint64_t> corrupt_seed;
  std::vector<std::string> positional;

  // Expand --flag=value into two tokens so both spellings parse the same.
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (StartsWith(arg, "--") && eq != std::string::npos) {
      args.push_back(arg.substr(0, eq));
      args.push_back(arg.substr(eq + 1));
    } else {
      args.push_back(arg);
    }
  }

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string arg = args[i];
    auto next = [&](const char* flag) -> std::string {
      if (i + 1 >= args.size()) {
        std::cerr << flag << " requires a value\n";
        PrintUsageAndExit(2);
      }
      return args[++i];
    };
    if (arg == "--help" || arg == "-h") {
      PrintUsageAndExit(0);
    } else if (arg == "--method") {
      method = next("--method");
    } else if (arg == "--pattern") {
      pattern_texts.push_back(next("--pattern"));
    } else if (arg == "--mine") {
      mine = true;
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--extend") {
      extend = true;
    } else if (arg == "--output") {
      output_path = next("--output");
    } else if (arg == "--metrics-out") {
      metrics_path = next("--metrics-out");
    } else if (arg == "--trace-out") {
      trace_path = next("--trace-out");
    } else if (arg == "--heartbeat-ms") {
      heartbeat_ms = std::stod(next("--heartbeat-ms"));
    } else if (arg == "--progress") {
      progress = true;
    } else if (arg == "--mine-support") {
      mine_support = std::stod(next("--mine-support"));
    } else if (arg == "--budget") {
      budget = std::stoull(next("--budget"));
    } else if (arg == "--deadline-ms") {
      run_budget.deadline_ms = std::stod(next("--deadline-ms"));
    } else if (arg == "--memory-mb") {
      run_budget.max_memory_bytes = static_cast<std::size_t>(
          std::stod(next("--memory-mb")) * 1024.0 * 1024.0);
    } else if (arg == "--no-degrade") {
      degrade = false;
    } else if (arg == "--portfolio") {
      portfolio = true;
    } else if (arg == "--threads") {
      threads = std::stoi(next("--threads"));
    } else if (arg == "--parallel-astar") {
      method = "pattern-parallel";
    } else if (arg == "--search-threads") {
      search_threads = std::stoi(next("--search-threads"));
    } else if (arg == "--fail-degraded") {
      fail_degraded = true;
    } else if (arg == "--xes-strict") {
      xes_strict = true;
    } else if (arg == "--strict") {
      strict_all = true;
    } else if (arg == "--partial-penalty") {
      partial_penalty = std::stod(next("--partial-penalty"));
      if (!(partial_penalty >= 0.0)) {
        std::cerr << "--partial-penalty must be >= 0\n";
        return 2;
      }
    } else if (arg == "--corrupt") {
      corrupt_spec_text = next("--corrupt");
    } else if (arg == "--seed") {
      corrupt_seed = std::stoull(next("--seed"));
    } else if (StartsWith(arg, "--")) {
      std::cerr << "unknown option: " << arg << "\n";
      PrintUsageAndExit(2);
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2) {
    PrintUsageAndExit(2);
  }

  // --trace-out: one recorder for the whole invocation. Shared because
  // the portfolio path hands it to detached workers; the ambient scope
  // routes the log readers' spans here; the root span brackets
  // everything and is closed (reset) just before serialization.
  std::shared_ptr<obs::TraceRecorder> recorder;
  if (!trace_path.empty()) {
    recorder = std::make_shared<obs::TraceRecorder>();
    recorder->SetThreadName("main");
  }
  obs::AmbientTraceScope ambient(recorder.get());
  std::optional<obs::ScopedSpan> root_span;
  if (recorder != nullptr) {
    root_span.emplace(recorder.get(), "run", "cli");
  }
  const auto run_start = std::chrono::steady_clock::now();
  auto emit_heartbeat = [run_start](std::uint64_t seq,
                                    const obs::TelemetrySnapshot& snapshot) {
    const double elapsed =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - run_start)
            .count();
    std::cerr << obs::TelemetryToHeartbeatLine(snapshot, seq, elapsed)
              << "\n";
  };

  const bool partial = partial_penalty < std::numeric_limits<double>::infinity();
  CsvReadStats csv_stats1;
  CsvReadStats csv_stats2;
  Result<EventLog> log1 =
      LoadLog(positional[0], xes_strict || strict_all, strict_all,
              &csv_stats1);
  if (!log1.ok()) {
    std::cerr << "cannot load " << positional[0] << ": " << log1.status()
              << "\n";
    return 1;
  }
  Result<EventLog> log2 =
      LoadLog(positional[1], xes_strict || strict_all, strict_all,
              &csv_stats2);
  if (!log2.ok()) {
    std::cerr << "cannot load " << positional[1] << ": " << log2.status()
              << "\n";
    return 1;
  }
  const std::size_t csv_salvaged =
      csv_stats1.salvaged_rows + csv_stats2.salvaged_rows;
  if (csv_salvaged > 0) {
    std::cerr << "note: salvaged " << csv_salvaged
              << " malformed CSV row(s); use --strict to reject instead\n";
  }

  // --corrupt: the drill corrupts the *second* log in memory, before
  // the side swap below so the spec always targets the log named second
  // on the command line.
  CorruptionReport corruption;
  bool corrupted = false;
  if (!corrupt_spec_text.empty()) {
    Result<CorruptionSpec> spec = ParseCorruptionSpec(corrupt_spec_text);
    if (!spec.ok()) {
      std::cerr << "bad --corrupt '" << corrupt_spec_text
                << "': " << spec.status() << "\n";
      return 2;
    }
    if (corrupt_seed.has_value()) {
      spec->seed = *corrupt_seed;
    }
    CorruptedLog dirty = CorruptLog(*log2, *spec);
    corruption = std::move(dirty.report);
    corrupted = true;
    std::cout << "corruption drill (" << CorruptionSpecToString(*spec)
              << "):\n  " << corruption.ToString() << "\n";
    *log2 = std::move(dirty.log);
  }

  if (log1->num_events() > log2->num_events() && !partial) {
    std::cerr << "note: log1 has more events than log2; swapping sides so "
                 "the mapping stays injective (use --partial-penalty to "
                 "match as-is)\n";
    std::swap(*log1, *log2);
  }

  std::cout << "log1: " << log1->num_traces() << " traces over "
            << log1->num_events() << " events\n"
            << "log2: " << log2->num_traces() << " traces over "
            << log2->num_events() << " events\n";

  std::vector<Pattern> complex;
  for (const std::string& text : pattern_texts) {
    Result<Pattern> p = ParsePattern(text, log1->dictionary());
    if (!p.ok()) {
      std::cerr << "bad --pattern '" << text << "': " << p.status() << "\n";
      return 1;
    }
    complex.push_back(std::move(p).value());
  }
  if (mine) {
    PatternMinerOptions miner_options;
    miner_options.min_support = mine_support;
    for (Pattern& p : MineDiscriminativePatterns(*log1, miner_options)) {
      std::cout << "mined pattern: " << p.ToString(&log1->dictionary())
                << "\n";
      complex.push_back(std::move(p));
    }
  }

  auto index1 = std::make_shared<const LogIndex>(*log1);
  std::vector<Pattern> patterns = BuildPatternSet(index1->graph(), complex);
  ContextTelemetryOptions context_telemetry;
  context_telemetry.trace_recorder = recorder.get();
  MatchingContext context(std::move(index1),
                          std::make_shared<const LogIndex>(*log2),
                          std::move(patterns), context_telemetry);
  if (corrupted) {
    RecordCorruptionMetrics(corruption, context.metrics());
  }
  if (csv_salvaged > 0) {
    context.metrics().GetCounter("log.csv_salvaged")->Increment(csv_salvaged);
  }
  obs::StreamProgressTracer progress_tracer(std::cerr);
  if (progress) {
    context.set_tracer(&progress_tracer);
  }
  TextTable table({"method", "objective", "time(ms)", "termination",
                   "mapping"});
  const Mapping* best_mapping = nullptr;
  double best_objective = -1.0;
  std::vector<RunRecord> records;

  MatchPipelineOptions pipeline;
  pipeline.max_expansions = budget;
  pipeline.budget = run_budget;
  pipeline.cancel = &g_interrupt;
  pipeline.degrade = degrade;
  pipeline.search_threads = search_threads;
  pipeline.scorer.partial.unmapped_penalty = partial_penalty;
  if (portfolio) {
    if (method != "pattern-tight" && method != "pattern-simple" &&
        method != "pattern-parallel") {
      std::cerr << "--portfolio requires --method pattern-tight, "
                   "pattern-simple, or pattern-parallel (got '"
                << method << "')\n";
      return 2;
    }
    pipeline.method = *MethodForSlug(method);
    exec::PortfolioOptions popts;
    popts.budget = run_budget;
    popts.threads = threads;
    popts.external_cancel = &g_interrupt;
    popts.trace_recorder = recorder;
    if (heartbeat_ms > 0.0) {
      popts.heartbeat_ms = heartbeat_ms;
      popts.heartbeat = emit_heartbeat;
    }
    exec::PortfolioRunner runner(RaceCard(pipeline), popts);
    Result<exec::PortfolioOutcome> raced =
        runner.Run(*log1, *log2, context.patterns());
    if (!raced.ok()) {
      std::cerr << "portfolio failed: " << raced.status() << "\n";
      return 1;
    }
    exec::PortfolioOutcome& p = *raced;
    for (const exec::PortfolioStrategyOutcome& s : p.strategies) {
      std::string termination =
          exec::TerminationReasonToString(s.termination);
      if (s.abandoned) {
        termination += " (abandoned)";
      }
      if (!s.failure.empty()) {
        termination += " (" + s.failure + ")";
      }
      table.AddRow({"  " + s.name,
                    s.produced_result ? TextTable::Num(s.objective) : "-",
                    TextTable::Num(s.elapsed_ms, 1), termination, "-"});
    }
    RunRecord record;
    record.method = "portfolio";
    record.termination = p.result.termination;
    record.completed = p.result.completed();
    record.degraded = !record.completed;
    if (!record.completed) {
      record.failure =
          std::string("budget exhausted (") +
          exec::TerminationReasonToString(record.termination) +
          "); best-of-strategies result returned";
    }
    record.objective = p.result.objective;
    record.lower_bound = p.result.lower_bound;
    record.upper_bound = p.result.upper_bound;
    record.bounds_certified = p.result.bounds_certified;
    record.elapsed_ms = p.elapsed_ms;
    record.mappings_processed = p.result.mappings_processed;
    record.stages = p.result.stages;
    record.telemetry = std::move(p.telemetry);
    record.mapping = std::move(p.result.mapping);
    table.AddRow({"portfolio(" + p.winner_name + ")",
                  TextTable::Num(record.objective),
                  TextTable::Num(record.elapsed_ms, 1),
                  exec::TerminationReasonToString(record.termination),
                  record.mapping.ToString(&log1->dictionary(),
                                          &log2->dictionary())});
    records.push_back(std::move(record));
  } else {
    const auto matchers = MakeMatchers(method, pipeline);
    if (matchers.empty()) {
      std::cerr << "unknown --method '" << method << "'\n";
      PrintUsageAndExit(2);
    }
    records.reserve(matchers.size());
    // Heartbeat clock for the sequential path (the portfolio rides its
    // own watchdog): beats only, no deadline. Joined before the final
    // table so the last line cannot interleave with it.
    std::unique_ptr<exec::Watchdog> heartbeat_clock;
    if (heartbeat_ms > 0.0) {
      exec::WatchdogOptions wd;
      wd.heartbeat_ms = heartbeat_ms;
      wd.heartbeat = [&context, &emit_heartbeat](std::uint64_t seq) {
        emit_heartbeat(seq, context.SnapshotTelemetry());
      };
      heartbeat_clock = std::make_unique<exec::Watchdog>(std::move(wd));
    }
    for (const auto& matcher : matchers) {
      if (g_signal != 0) {
        break;  // Interrupted: stop starting runs, keep what we have.
      }
      // Each run gets the full budget; fallback ladders slice their own.
      context.ArmBudget(run_budget, &g_interrupt);
      records.push_back(RunMatcher(*matcher, context, nullptr));
      const RunRecord& record = records.back();
      if (!record.failure.empty() && record.mapping.num_sources() == 0) {
        // Hard failure: no result at all.
        table.AddRow({matcher->name(), "-", "-", "error", record.failure});
        continue;
      }
      std::string termination = exec::TerminationReasonToString(
          record.termination);
      if (record.degraded) {
        termination += " (degraded)";
      }
      table.AddRow({matcher->name(), TextTable::Num(record.objective),
                    TextTable::Num(record.elapsed_ms, 1), termination,
                    record.mapping.ToString(&log1->dictionary(),
                                            &log2->dictionary())});
    }
    context.governor().Disarm();
    heartbeat_clock.reset();
  }
  table.Print(std::cout);
  for (const RunRecord& record : records) {
    // Anytime results count: any complete mapping is usable downstream.
    if (record.mapping.IsComplete() && record.objective > best_objective) {
      best_objective = record.objective;
      best_mapping = &record.mapping;
    }
  }
  if (best_mapping != nullptr && best_mapping->num_null_sources() > 0) {
    std::cout << "unmapped (⊥) sources:";
    for (EventId v : best_mapping->NullSources()) {
      std::cout << ' ' << log1->dictionary().Name(v);
    }
    std::cout << "  (penalty "
              << TextTable::Num(partial_penalty *
                                static_cast<double>(
                                    best_mapping->num_null_sources()))
              << ")\n";
  }

  if ((corrupted || csv_salvaged > 0) && !records.empty()) {
    // Input-level counters (noise.*, log.csv_salvaged) predate every run,
    // so the per-run telemetry deltas flatten them to zero; fold the real
    // values into each record so --metrics-out reports the drill.
    obs::MetricsRegistry drill_metrics;
    if (corrupted) {
      RecordCorruptionMetrics(corruption, drill_metrics);
    }
    if (csv_salvaged > 0) {
      drill_metrics.GetCounter("log.csv_salvaged")->Increment(csv_salvaged);
    }
    const obs::TelemetrySnapshot drill = obs::CaptureSnapshot(drill_metrics);
    for (RunRecord& record : records) {
      record.telemetry.Merge(drill);
    }
  }

  if (!metrics_path.empty()) {
    if (!WriteRunMetrics(metrics_path, records)) {
      std::cerr << "cannot write --metrics-out file " << metrics_path << "\n";
      return 1;
    }
    std::cout << "wrote metrics to " << metrics_path << "\n";
  }

  if (!output_path.empty() && best_mapping != nullptr) {
    std::ofstream out(output_path);
    if (!out) {
      std::cerr << "cannot open --output file " << output_path << "\n";
      return 1;
    }
    const Status written = WriteMapping(*best_mapping, log1->dictionary(),
                                        log2->dictionary(), out);
    if (!written.ok()) {
      std::cerr << "writing mapping failed: " << written << "\n";
      return 1;
    }
    std::cout << "wrote mapping to " << output_path << "\n";
  }

  if (explain && best_mapping != nullptr) {
    std::cout << "\n--- evidence for the best mapping ---\n";
    PrintMatchReport(ExplainMapping(context, *best_mapping), std::cout);
  }
  if (extend && best_mapping != nullptr &&
      best_mapping->num_null_sources() > 0) {
    std::cerr << "--extend: 1-to-n extension needs a total base mapping; "
                 "the best mapping leaves sources unmapped — skipping\n";
    extend = false;
  }
  if (extend && best_mapping != nullptr) {
    OneToNOptions one_to_n;
    context.ArmBudget(run_budget, &g_interrupt);
    one_to_n.governor = &context.governor();
    Result<GroupMapping> groups = ExtendToOneToN(
        *log1, *log2, context.patterns(), *best_mapping, one_to_n);
    context.governor().Disarm();
    if (!groups.ok()) {
      std::cerr << "1-to-n extension failed: " << groups.status() << "\n";
      return 1;
    }
    std::cout << "\n--- 1-to-n extension ---\n"
              << "merges: " << groups->merges << ", objective "
              << TextTable::Num(groups->base_objective) << " -> "
              << TextTable::Num(groups->objective) << "\n";
    if (groups->termination != exec::TerminationReason::kCompleted) {
      std::cout << "(stopped early: "
                << exec::TerminationReasonToString(groups->termination)
                << ")\n";
    }
    const std::string extended =
        GroupsToString(*groups, *log1, *log2);
    std::cout << (extended.empty() ? std::string("no groups extended")
                                   : extended)
              << "\n";
  }

  if (recorder != nullptr) {
    root_span.reset();  // Close the root before serializing.
    const Status written = recorder->WriteChromeJson(trace_path);
    if (!written.ok()) {
      std::cerr << "cannot write --trace-out file " << trace_path << ": "
                << written << "\n";
      return 1;
    }
    std::cout << "wrote trace to " << trace_path << "\n";
  }

  if (g_signal != 0) {
    // Outputs above are already flushed; report the interruption the
    // way shells expect.
    std::cerr << "interrupted by signal " << g_signal
              << "; partial (anytime) results were written\n";
    return 128 + g_signal;
  }

  if (fail_degraded) {
    for (const RunRecord& record : records) {
      if (!record.completed || record.degraded) {
        std::cerr << "--fail-degraded: run '" << record.method
                  << "' was truncated or degraded\n";
        return 3;
      }
    }
  }
  return 0;
}
