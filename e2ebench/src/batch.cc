// The two batch workloads: closed-loop callers, each one job at a time.
//
//   batch_exact   MatchLogs with the default method (sequential
//                 Pattern-Tight plus its fallback ladder) on in-memory
//                 bus instances with decoy targets. Search (core) and the
//                 target-side frequency memo (freq) do the work; nothing
//                 is parsed or served.
//   batch_ingest  The CLI path: parse a CSV log1 and an XES log2 from
//                 files, MatchLogs, write the mapping. Parsing (log) does
//                 most of the work; search is trivial.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "api/match_pipeline.h"
#include "core/mapping_io.h"
#include "core/matching_context.h"
#include "core/pattern_set.h"
#include "eval/metrics.h"
#include "exec/parallel_astar.h"
#include "graph/dependency_graph.h"
#include "log/log_io.h"
#include "log/xes_io.h"
#include "obs/trace.h"
#include "pattern/pattern_parser.h"
#include "pools.h"
#include "stats.h"
#include "traced.h"
#include "workloads.h"

namespace e2ebench {
namespace {

using hematch::MatchMethod;
using hematch::MatchPipelineOptions;
using hematch::obs::ScopedSpan;
using hematch::obs::TraceRecorder;

// batch_exact: 24 bus instances (Table 3's 3000 traces, the paper's
// three complex patterns, 10 decoy targets each) drawn by seed from the
// frozen ExactCatalogue, six from each of its four work strata (about
// 12-30 ms a job when the catalogue was chosen).
constexpr std::size_t kExactPerStratum = 6;
constexpr int kParallelThreads = 2;

// Both batch workloads run this many independent callers, each a closed
// loop running one job at a time. Contention from other tenants of the
// machine comes and goes per vCPU, independently (two concurrent
// callers' per-second throughputs correlate at about 0.01), so a run
// spread over several callers averages it where a single caller would
// read whichever state it happened to hit.
constexpr int kCallers = 3;

// batch_ingest: bus instances written as a CSV log1 and an XES log2, of
// 2000, 2500, ..., 5000 traces. Every caller runs each instance equally
// often, so the job latencies form one mode per size; with an odd number
// of sizes the median lies inside the middle mode and p95 inside the top
// one, not in a gap between two modes, where it would jump with noise.
constexpr std::size_t kIngestPoolSize = 7;
constexpr std::size_t kIngestMinTraces = 2000;
constexpr std::size_t kIngestTraceStep = 500;

std::vector<std::size_t> JobOrder(std::size_t n, std::uint64_t seed,
                                  int caller) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  SeedStream stream(seed ^ (0x6A6F626F72646572ULL + caller));
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[stream.NextBelow(i)]);
  }
  return order;
}

struct JobOutcome {
  double latency_ms = 0.0;
  bool ok = false;  ///< Answered and passed the correctness gate.
  bool certified = false;
  double f_measure = 0.0;
  std::string error;  ///< Why the gate failed, when it did.
};

// The untraced measurement: kCallers closed loops, each running jobs
// over the pool in its own seeded cyclic order until `config.seconds`
// have passed; fills the end-to-end metrics. `job(i, caller)` must be
// safe to call from several callers at once.
void MeasureClosedLoop(
    const RunConfig& config, std::size_t pool_size,
    const std::function<JobOutcome(std::size_t, int)>& job,
    WorkloadResult& out) {
  struct Tally {
    std::vector<double> latencies;
    std::vector<double> f_sum;
    std::vector<std::size_t> f_count;
    std::uint64_t attempted = 0;
    std::uint64_t ok = 0;
    std::uint64_t certified = 0;
    std::vector<std::string> errors;
  };
  std::vector<Tally> tallies(kCallers);
  const auto start = Clock::now();
  const auto stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.seconds));
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      Tally& t = tallies[c];
      t.f_sum.assign(pool_size, 0.0);
      t.f_count.assign(pool_size, 0);
      const std::vector<std::size_t> order =
          JobOrder(pool_size, config.seed, c);
      for (std::size_t k = 0; Clock::now() < stop; ++k) {
        const std::size_t i = order[k % pool_size];
        ++t.attempted;
        JobOutcome o = job(i, c);
        t.latencies.push_back(o.latency_ms);
        t.certified += o.certified ? 1 : 0;
        if (!o.error.empty()) {
          t.errors.push_back(std::move(o.error));
        }
        if (o.ok) {
          ++t.ok;
          t.f_sum[i] += o.f_measure;
          ++t.f_count[i];
        }
      }
    });
  }
  for (std::thread& caller : callers) {
    caller.join();
  }
  const double wall_s = MsSince(start) / 1000.0;

  std::vector<double> latencies;
  std::vector<double> f_sum(pool_size, 0.0);
  std::vector<std::size_t> f_count(pool_size, 0);
  std::uint64_t ok = 0;
  std::uint64_t certified = 0;
  for (Tally& t : tallies) {
    latencies.insert(latencies.end(), t.latencies.begin(), t.latencies.end());
    for (std::size_t i = 0; i < pool_size; ++i) {
      f_sum[i] += t.f_sum[i];
      f_count[i] += t.f_count[i];
    }
    out.attempted += t.attempted;
    ok += t.ok;
    certified += t.certified;
    for (std::string& error : t.errors) {
      out.Fail(std::move(error));
    }
  }
  // Every job of an instance gives the same answer (checked), so the
  // per-instance mean makes f_measure independent of how many jobs fit.
  std::vector<double> f_by_instance;
  for (std::size_t i = 0; i < pool_size; ++i) {
    if (f_count[i] > 0) {
      f_by_instance.push_back(f_sum[i] / static_cast<double>(f_count[i]));
    }
  }
  MetricValues& m = out.metrics;
  AddLatencyMetrics(latencies, m, out.properties);
  m["jobs_per_s"] = static_cast<double>(ok) / wall_s;
  m["f_measure"] = Mean(f_by_instance);
  m["certified_ratio"] =
      static_cast<double>(certified) / static_cast<double>(out.attempted);
  out.properties.Add("callers", kCallers)
      .Add("timed_wall_s", wall_s)
      .Add("instances_run", static_cast<std::uint64_t>(f_by_instance.size()));
}

// Traced pass: whole rounds over the pool, each run untraced and then
// traced, until `budget_ms` is spent; alternating the two keeps machine
// drift out of their comparison. Returns the number of rounds.
std::size_t RunTraceRounds(double budget_ms, std::size_t pool_size,
                           const std::function<void(std::size_t)>& untraced,
                           const std::function<void(std::size_t)>& traced) {
  std::size_t rounds = 0;
  const auto start = Clock::now();
  do {
    for (std::size_t i = 0; i < pool_size; ++i) {
      untraced(i);
    }
    for (std::size_t i = 0; i < pool_size; ++i) {
      traced(i);
    }
    ++rounds;
  } while (MsSince(start) < budget_ms);
  return rounds;
}

// Why an exact answer does not match the certified one; empty if it does.
std::string ExactError(const hematch::Result<hematch::MatchResult>& result,
                       const Instance& instance) {
  if (!result.ok()) {
    return instance.name + ": " + result.status().ToString();
  }
  if (!SameObjective(result->objective, instance.exact.objective)) {
    return instance.name + ": objective " +
           std::to_string(result->objective) + " != certified " +
           std::to_string(instance.exact.objective);
  }
  return "";
}

bool CheckExact(const hematch::Result<hematch::MatchResult>& result,
                const Instance& instance, WorkloadResult& out) {
  std::string error = ExactError(result, instance);
  if (!error.empty()) {
    out.Fail(std::move(error));
  }
  return error.empty();
}

}  // namespace

// ---------------------------------------------------------------- exact

WorkloadResult RunBatchExact(const RunConfig& config) {
  WorkloadResult out;
  const Catalogue& catalogue = ExactCatalogue();

  // Set-up: generation of the seed's members plus their warm pass.
  std::vector<Instance> pool;
  std::vector<double> setups;
  for (int r = 0; r < (config.trace ? 1 : kSetupRepeats); ++r) {
    pool.clear();
    std::string error;
    const auto start = Clock::now();
    pool = MakeCataloguePool(config.seed, catalogue, kExactPerStratum, &error);
    setups.push_back(MsSince(start) / 1000.0);
    if (pool.empty()) {
      out.Fail(std::move(error));
      return out;
    }
  }
  std::vector<MatchPipelineOptions> options;
  std::vector<double> work;
  std::size_t max_complex = 0;
  for (const Instance& instance : pool) {
    options.push_back(PipelineOptions(instance, MatchMethod::kPatternTight));
    work.push_back(static_cast<double>(instance.exact.mappings_processed));
    max_complex = std::max(max_complex, instance.patterns.size());
  }
  JsonObject shares;
  shares.Add("bus_with_decoys", 1.0);
  out.properties.Add("pool_size", static_cast<std::uint64_t>(pool.size()))
      .Add("catalogue", catalogue.name)
      .Add("generator_seeds",
           PickSeeds(config.seed, catalogue, kExactPerStratum))
      .Add("traces_per_log", static_cast<std::uint64_t>(catalogue.num_traces))
      .Add("decoys_per_instance",
           static_cast<std::uint64_t>(catalogue.num_decoys))
      .Add("catalogue_band_min", catalogue.min_mappings)
      .Add("catalogue_band_max", catalogue.max_mappings)
      .Add("members_outside_band",
           static_cast<std::uint64_t>(OutsideBand(pool, catalogue)))
      .Add("mappings_processed_min", Percentile(work, 0.0))
      .Add("mappings_processed_median", Percentile(work, 0.5))
      .Add("mappings_processed_max", Percentile(work, 1.0))
      .Add("max_complex_patterns", static_cast<std::uint64_t>(max_complex))
      .Add("instance_class_shares", shares)
      .Add("setup_s_runs", static_cast<std::uint64_t>(setups.size()));

  if (!config.trace) {
    MeasureClosedLoop(
        config, pool.size(),
        [&](std::size_t i, int) {
          const Instance& instance = pool[i];
          JobOutcome o;
          const auto start = Clock::now();
          const auto outcome = hematch::MatchLogs(
              instance.task.log1, instance.task.log2, options[i]);
          o.latency_ms = MsSince(start);
          if (!outcome.ok()) {
            o.error = instance.name + ": " + outcome.status().ToString();
            return o;
          }
          const hematch::MatchResult& r = outcome->result;
          o.certified = r.completed() && r.bounds_certified &&
                        r.lower_bound == r.upper_bound;
          o.error = ExactError(r, instance);
          o.ok = o.error.empty();
          o.f_measure = hematch::EvaluateMapping(r.mapping, instance.truth)
                            .f_measure;
          return o;
        },
        out);
    out.metrics["setup_s"] = Percentile(setups, 0.5);
    out.metrics["peak_rss_mb"] = PeakRssMb();
    return out;
  }

  // Traced: 40% of the run for the untraced and traced rounds, 20% for
  // parallel A* at two threads (information only), 40% for the serve
  // layers (see ProbeServeLayers).
  TraceRecorder recorder = MakeRecorder();
  TracedJobs t;
  std::size_t job_id = 0;
  const std::size_t rounds = RunTraceRounds(
      config.seconds * 1000.0 * 0.4, pool.size(),
      [&](std::size_t i) {
        const auto start = Clock::now();
        const auto outcome = hematch::MatchLogs(
            pool[i].task.log1, pool[i].task.log2, options[i]);
        t.untraced_job_ms += MsSince(start);
        ++out.attempted;
        if (!outcome.ok()) {
          out.Fail(pool[i].name + ": " + outcome.status().ToString());
          return;
        }
        CheckExact(outcome->result, pool[i], out);
      },
      [&](std::size_t i) {
        hematch::obs::TelemetrySnapshot telemetry;
        hematch::Result<hematch::MatchResult> result =
            hematch::Status::Internal("not run");
        {
          ScopedSpan job(&recorder, kSpanJob, "bench");
          job.AddArg("job", static_cast<double>(job_id++));
          result = TracedMatch(&recorder, pool[i].task.log1,
                               pool[i].task.log2, options[i], &telemetry);
        }
        ++out.attempted;
        if (CheckExact(result, pool[i], out)) {
          t.mappings += result->mappings_processed;
          t.nodes += result->nodes_visited;
          t.fallbacks += result->degraded() ? 1 : 0;
        }
        t.counters.Add(telemetry);
      });
  t.jobs = rounds * pool.size();

  // Parallel A*: its own context per job, as MatchLogs would build.
  double parallel_ms = 0.0;
  std::uint64_t parallel_mappings = 0;
  std::size_t parallel_jobs = 0;
  hematch::exec::ParallelAStarOptions popts;
  popts.threads = kParallelThreads;
  popts.max_expansions = kMaxExpansions;
  const hematch::exec::ParallelAStarMatcher parallel(popts);
  const auto parallel_start = Clock::now();
  do {
    for (const Instance& instance : pool) {
      std::vector<hematch::Pattern> complex;
      for (const std::string& text : instance.patterns) {
        complex.push_back(
            *hematch::ParsePattern(text, instance.task.log1.dictionary()));
      }
      hematch::MatchingContext context(
          instance.task.log1, instance.task.log2,
          hematch::BuildPatternSet(
              hematch::DependencyGraph::Build(instance.task.log1), complex));
      const auto start = Clock::now();
      const auto result = parallel.Match(context);
      parallel_ms += MsSince(start);
      ++out.attempted;
      ++parallel_jobs;
      if (CheckExact(result, instance, out)) {
        parallel_mappings += result->mappings_processed;
      }
    }
  } while (MsSince(parallel_start) < config.seconds * 1000.0 * 0.2);

  AddPhaseLayerMetrics(t, SpanTotalsByName(recorder), out);
  out.metrics["parallel.search_ms"] =
      parallel_ms / static_cast<double>(parallel_jobs);
  out.metrics["parallel.mappings_processed"] =
      static_cast<double>(parallel_mappings) /
      static_cast<double>(parallel_jobs);
  out.properties.Add("parallel_threads", kParallelThreads);
  ProbeServeLayers(config, config.seconds * 0.4, recorder, out);
  WriteTrace(config, recorder, out);
  return out;
}

// --------------------------------------------------------------- ingest

namespace {

// What must survive a write/parse round trip of a log.
struct LogShape {
  std::size_t traces = 0;
  std::size_t events = 0;
  std::size_t length = 0;
  std::vector<std::string> names;  ///< Sorted dictionary.

  bool operator==(const LogShape&) const = default;
};

LogShape ShapeOf(const hematch::EventLog& log) {
  LogShape shape;
  shape.traces = log.num_traces();
  shape.events = log.num_events();
  shape.length = log.TotalLength();
  shape.names = log.dictionary().names();
  std::sort(shape.names.begin(), shape.names.end());
  return shape;
}

struct IngestItem {
  std::string csv_path;
  std::string xes_path;
  std::string mapping_stem;  ///< Plus the caller number and ".tsv".
  std::uintmax_t csv_bytes = 0;
  std::uintmax_t xes_bytes = 0;
  LogShape shape1;
  LogShape shape2;
  /// The logs as parsed in the warm pass, with the ground truth
  /// re-expressed over their ids and the certified answer.
  Instance parsed;
  MatchPipelineOptions options;
};

// Why the parsed logs differ from the generated ones; empty if they
// do not.
std::string ShapeError(const IngestItem& item, const hematch::EventLog& log1,
                       const hematch::EventLog& log2) {
  if (!(ShapeOf(log1) == item.shape1) || !(ShapeOf(log2) == item.shape2)) {
    return item.parsed.name + ": parsed log differs from the generated one";
  }
  return "";
}

// Parses an item's files, checking them against the generated logs.
// Returns why that failed; empty on success.
std::string ParseItem(const IngestItem& item, hematch::EventLog& log1,
                      hematch::EventLog& log2) {
  auto csv = hematch::ReadCsvLogFile(item.csv_path);
  auto xes = hematch::ReadXesLogFile(item.xes_path);
  if (!csv.ok() || !xes.ok()) {
    return item.parsed.name + ": parse failed: " +
           (csv.ok() ? xes.status() : csv.status()).ToString();
  }
  log1 = std::move(*csv);
  log2 = std::move(*xes);
  return ShapeError(item, log1, log2);
}

// Checks a job's answer and writes its mapping, as the CLI would.
// Returns why that failed; empty on success.
std::string FinishJob(const IngestItem& item, int caller,
                      const hematch::Result<hematch::MatchResult>& result,
                      const hematch::EventLog& log1,
                      const hematch::EventLog& log2) {
  std::string error = ExactError(result, item.parsed);
  if (!error.empty()) {
    return error;
  }
  const std::string path =
      item.mapping_stem + std::to_string(caller) + ".tsv";
  std::ofstream file(path, std::ios::trunc);
  const hematch::Status status = hematch::WriteMapping(
      result->mapping, log1.dictionary(), log2.dictionary(), file);
  file.close();
  if (!status.ok() || !file) {
    return "cannot write " + path;
  }
  return "";
}

// Set-up of batch_ingest: generate, write, and warm (parse back, check,
// certify) every instance.
std::vector<IngestItem> MakeIngestPool(const RunConfig& config,
                                       WorkloadResult& out) {
  const std::string dir = config.out_dir + "/batch_ingest-seed" +
                          std::to_string(config.seed);
  std::filesystem::create_directories(dir);
  SeedStream stream(config.seed);
  std::vector<IngestItem> items;
  for (std::size_t k = 0; k < kIngestPoolSize; ++k) {
    const Instance generated = MakeBusInstance(
        stream.Next(), kIngestMinTraces + k * kIngestTraceStep, 0);
    IngestItem item;
    const std::string stem = dir + "/" + std::to_string(k);
    item.csv_path = stem + "-log1.csv";
    item.xes_path = stem + "-log2.xes";
    item.mapping_stem = stem + "-mapping-";
    {
      std::ofstream csv(item.csv_path, std::ios::trunc);
      std::ofstream xes(item.xes_path, std::ios::trunc);
      if (!hematch::WriteCsvLog(generated.task.log1, csv).ok() ||
          !hematch::WriteXesLog(generated.task.log2, xes).ok() || !csv ||
          !xes) {
        out.Fail("cannot write the logs under " + dir);
        return {};
      }
    }
    item.csv_bytes = std::filesystem::file_size(item.csv_path);
    item.xes_bytes = std::filesystem::file_size(item.xes_path);
    item.shape1 = ShapeOf(generated.task.log1);
    item.shape2 = ShapeOf(generated.task.log2);
    item.parsed.name = generated.name;
    if (std::string error =
            ParseItem(item, item.parsed.task.log1, item.parsed.task.log2);
        !error.empty()) {
      out.Fail(std::move(error));
      return {};
    }
    item.parsed.patterns = generated.patterns;
    item.parsed.truth = TranslateTruth(
        generated.truth, generated.task.log1, generated.task.log2,
        item.parsed.task.log1, item.parsed.task.log2);
    std::optional<Answer> answer =
        Certify(item.parsed, MatchMethod::kPatternTight);
    if (!answer) {
      out.Fail(generated.name + ": warm pass did not certify");
      return {};
    }
    item.parsed.exact = std::move(*answer);
    item.options = PipelineOptions(item.parsed, MatchMethod::kPatternTight);
    items.push_back(std::move(item));
  }
  return items;
}

}  // namespace

WorkloadResult RunBatchIngest(const RunConfig& config) {
  WorkloadResult out;
  std::vector<IngestItem> pool;
  std::vector<double> setups;
  for (int r = 0; r < (config.trace ? 1 : kSetupRepeats); ++r) {
    pool.clear();
    const auto start = Clock::now();
    pool = MakeIngestPool(config, out);
    setups.push_back(MsSince(start) / 1000.0);
    if (pool.empty()) {
      return out;
    }
  }
  std::uintmax_t csv_bytes = 0;
  std::uintmax_t xes_bytes = 0;
  std::uint64_t min_work = UINT64_MAX;
  std::uint64_t max_work = 0;
  for (const IngestItem& item : pool) {
    csv_bytes += item.csv_bytes;
    xes_bytes += item.xes_bytes;
    min_work = std::min(min_work, item.parsed.exact.mappings_processed);
    max_work = std::max(max_work, item.parsed.exact.mappings_processed);
  }
  const double n = static_cast<double>(pool.size());
  JsonObject shares;
  shares.Add("bus_csv_xes", 1.0);
  out.properties.Add("pool_size", static_cast<std::uint64_t>(pool.size()))
      .Add("traces_per_log_min", static_cast<std::uint64_t>(kIngestMinTraces))
      .Add("traces_per_log_max",
           static_cast<std::uint64_t>(kIngestMinTraces +
                                      (kIngestPoolSize - 1) * kIngestTraceStep))
      .Add("csv_mb_mean", static_cast<double>(csv_bytes) / n / 1e6)
      .Add("xes_mb_mean", static_cast<double>(xes_bytes) / n / 1e6)
      .Add("mappings_processed_min", min_work)
      .Add("mappings_processed_max", max_work)
      .Add("max_complex_patterns",
           static_cast<std::uint64_t>(pool.front().parsed.patterns.size()))
      .Add("instance_class_shares", shares)
      .Add("setup_s_runs", static_cast<std::uint64_t>(setups.size()));

  if (!config.trace) {
    MeasureClosedLoop(
        config, pool.size(),
        [&](std::size_t i, int caller) {
          const IngestItem& item = pool[i];
          JobOutcome o;
          hematch::EventLog log1;
          hematch::EventLog log2;
          const auto start = Clock::now();
          o.error = ParseItem(item, log1, log2);
          if (!o.error.empty()) {
            o.latency_ms = MsSince(start);
            return o;
          }
          const auto outcome = hematch::MatchLogs(log1, log2, item.options);
          const hematch::Result<hematch::MatchResult> result =
              outcome.ok() ? hematch::Result<hematch::MatchResult>(
                                 outcome->result)
                           : hematch::Result<hematch::MatchResult>(
                                 outcome.status());
          o.error = FinishJob(item, caller, result, log1, log2);
          o.latency_ms = MsSince(start);
          o.ok = o.error.empty();
          if (o.ok) {
            o.certified = result->completed() && result->bounds_certified &&
                          result->lower_bound == result->upper_bound;
            o.f_measure =
                hematch::EvaluateMapping(result->mapping, item.parsed.truth)
                    .f_measure;
          }
          return o;
        },
        out);
    out.metrics["setup_s"] = Percentile(setups, 0.5);
    out.metrics["peak_rss_mb"] = PeakRssMb();
    return out;
  }

  TraceRecorder recorder = MakeRecorder();
  TracedJobs t;
  std::size_t job_id = 0;
  const std::size_t rounds = RunTraceRounds(
      config.seconds * 1000.0, pool.size(),
      [&](std::size_t i) {
        const IngestItem& item = pool[i];
        hematch::EventLog log1;
        hematch::EventLog log2;
        ++out.attempted;
        const auto start = Clock::now();
        std::string error = ParseItem(item, log1, log2);
        if (error.empty()) {
          const auto outcome = hematch::MatchLogs(log1, log2, item.options);
          error = outcome.ok()
                      ? FinishJob(item, 0, outcome->result, log1, log2)
                      : item.parsed.name + ": " + outcome.status().ToString();
        }
        t.untraced_job_ms += MsSince(start);
        if (!error.empty()) {
          out.Fail(std::move(error));
        }
      },
      [&](std::size_t i) {
        const IngestItem& item = pool[i];
        hematch::obs::TelemetrySnapshot telemetry;
        ++out.attempted;
        ScopedSpan job(&recorder, kSpanJob, "bench");
        job.AddArg("job", static_cast<double>(job_id++));
        hematch::EventLog log1;
        hematch::EventLog log2;
        {
          ScopedSpan span(&recorder, "log.parse_csv", "log");
          auto csv = hematch::ReadCsvLogFile(item.csv_path);
          if (csv.ok()) {
            log1 = std::move(*csv);
          }
        }
        {
          ScopedSpan span(&recorder, "log.parse_xes", "log");
          auto xes = hematch::ReadXesLogFile(item.xes_path);
          if (xes.ok()) {
            log2 = std::move(*xes);
          }
        }
        if (std::string error = ShapeError(item, log1, log2); !error.empty()) {
          out.Fail(std::move(error));
          return;
        }
        const auto result =
            TracedMatch(&recorder, log1, log2, item.options, &telemetry);
        ScopedSpan write(&recorder, "mapping_io.write", "core");
        if (std::string error = FinishJob(item, 0, result, log1, log2);
            !error.empty()) {
          out.Fail(std::move(error));
          return;
        }
        t.mappings += result->mappings_processed;
        t.nodes += result->nodes_visited;
        t.fallbacks += result->degraded() ? 1 : 0;
        t.counters.Add(telemetry);
      });
  t.jobs = rounds * pool.size();

  const auto spans = SpanTotalsByName(recorder);
  AddPhaseLayerMetrics(t, spans, out);
  const double csv_ms = spans.count("log.parse_csv") > 0
                            ? spans.at("log.parse_csv").total_ms
                            : 0.0;
  const double xes_ms = spans.count("log.parse_xes") > 0
                            ? spans.at("log.parse_xes").total_ms
                            : 0.0;
  const double jobs = static_cast<double>(t.jobs);
  out.metrics["log.parse_ms"] = (csv_ms + xes_ms) / jobs;
  // Bytes per ms / 1000 = MB/s; every round reads every file once.
  out.metrics["log.csv_mb_per_s"] =
      static_cast<double>(csv_bytes) * static_cast<double>(rounds) /
      csv_ms / 1000.0;
  out.metrics["log.xes_mb_per_s"] =
      static_cast<double>(xes_bytes) * static_cast<double>(rounds) /
      xes_ms / 1000.0;
  WriteTrace(config, recorder, out);
  return out;
}

}  // namespace e2ebench
