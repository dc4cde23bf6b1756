// hematch end-to-end benchmark.
//
//   hematch_e2ebench --workload <batch_exact|batch_ingest>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--out-dir <dir>] [--git-commit <sha>]
//                    [--source-digest <hex>]
//
// Runs one workload, checks every answer, prints a human summary and, as
// the last stdout line, {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics untraced, the per-layer metrics traced. The full
// record (stamp, workload properties, gate findings) is written to
// <out-dir>/result-<workload>-seed<n>-trace<t>.json.
//
// Exit codes: 0 all answers correct; 1 a wrong or failed answer; 2 usage
// or an unmeasured metric; 3 a non-Release build (no timings reported).

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "obs/metrics_json.h"
#include "report.h"
#include "workloads.h"

namespace {

using namespace e2ebench;

int Usage(const std::string& why) {
  std::cerr << "hematch_e2ebench: " << why << "\n"
            << "usage: hematch_e2ebench --workload "
               "<batch_exact|batch_ingest> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--git-commit <sha>] [--source-digest <hex>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  config.out_dir = ".bench_out";
  std::string git_commit = "unknown";
  std::string source_digest = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        config.workload = value;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") {
          return Usage("--trace takes 0 or 1");
        }
        config.trace = value == "1";
      } else if (flag == "--out-dir") {
        config.out_dir = value;
      } else if (flag == "--git-commit") {
        git_commit = value;
      } else if (flag == "--source-digest") {
        source_digest = value;
      } else {
        return Usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return Usage("bad value for " + flag + ": " + value);
    }
  }
  WorkloadResult (*run)(const RunConfig&) = nullptr;
  if (config.workload == "batch_exact") {
    run = RunBatchExact;
  } else if (config.workload == "batch_ingest") {
    run = RunBatchIngest;
  } else {
    return Usage("unknown workload '" + config.workload + "'");
  }
  if (!(config.seconds > 0.0)) {
    return Usage("--seconds must be positive");
  }

  const Stamp stamp = MakeStamp(git_commit, source_digest);
  if (!stamp.release) {
    std::cerr << "hematch_e2ebench: a " << stamp.build_type
              << " build cannot report timings; build with "
                 "-DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }
  std::filesystem::create_directories(config.out_dir);

  WorkloadResult result;
  try {
    result = run(config);
  } catch (const std::exception& e) {
    result.Fail(std::string("exception: ") + e.what());
  }

  // Layers a workload does not exercise report 0 and are named in the
  // record; every end-to-end metric must have been measured.
  const std::vector<MetricSpec>& specs =
      config.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::string not_exercised = "[";
  if (config.trace) {
    for (const MetricSpec& spec : specs) {
      if (result.metrics.emplace(spec.name, 0.0).second) {
        not_exercised += (not_exercised.size() > 1 ? ", \"" : "\"") +
                         spec.name + "\"";
      }
    }
  }
  not_exercised += "]";
  const bool correct = result.failed == 0 && result.errors.empty();

  // The record keeps every measured value, listed or not.
  JsonObject metrics;
  for (const auto& [name, value] : result.metrics) {
    metrics.Add(name, value);
    std::cout << "  " << name << " = " << value << "\n";
  }
  std::string errors = "[";
  for (std::size_t i = 0; i < result.errors.size(); ++i) {
    errors += (i > 0 ? ", \"" : "\"") +
              hematch::obs::JsonEscape(result.errors[i]) + "\"";
    std::cerr << "hematch_e2ebench: WRONG: " << result.errors[i] << "\n";
  }
  errors += "]";
  if (!result.valid) {
    std::cerr << "hematch_e2ebench: run is invalid: " << result.invalid_reason
              << "\n";
  }
  JsonObject record;
  record.Add("schema", "hematch.e2ebench.v1")
      .Add("workload", config.workload)
      .Add("seed", static_cast<std::uint64_t>(config.seed))
      .Add("seconds", config.seconds)
      .Add("trace", config.trace)
      .Add("stamp", StampJson(stamp))
      .Add("correct", correct)
      .Add("valid", result.valid)
      .Add("invalid_reason", result.invalid_reason)
      .Add("attempted", result.attempted)
      .Add("failed", result.failed)
      .AddRaw("errors", errors)
      .AddRaw("not_exercised", not_exercised)
      .Add("properties", result.properties)
      .Add("metrics", metrics);
  const std::string record_path =
      config.out_dir + "/result-" + config.workload + "-seed" +
      std::to_string(config.seed) + "-trace" + (config.trace ? "1" : "0") +
      ".json";
  std::ofstream(record_path, std::ios::trunc) << record.Render() << "\n";
  std::cout << "  record: " << record_path << "\n";

  std::string error;
  const std::string line =
      ResultLine(correct, std::max<std::uint64_t>(1, result.attempted),
                 result.failed, specs, result.metrics, &error);
  if (line.empty()) {
    // A failed run may stop before measuring; its failure is the news.
    std::cerr << "hematch_e2ebench: " << error << "\n";
    return correct ? 2 : 1;
  }
  std::cout << line << std::endl;
  return correct ? 0 : 1;
}
