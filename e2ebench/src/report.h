#ifndef E2EBENCH_REPORT_H_
#define E2EBENCH_REPORT_H_

/// \file
/// The benchmark's metric tables, the result line it prints last, the
/// JSON record it writes beside it, and the machine/build stamp every
/// result carries.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace e2ebench {

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// What a user of the system sees; printed by untraced runs. The names
/// and units are the contract with BENCHMARK.json.
const std::vector<MetricSpec>& EndToEndMetrics();

/// Single-layer numbers, named by module; printed by traced runs.
const std::vector<MetricSpec>& PerLayerMetrics();

/// Metric values by name, as a workload measured them.
using MetricValues = std::map<std::string, double>;

/// A JSON object under construction: keys in insertion order, values
/// already rendered as JSON.
class JsonObject {
 public:
  JsonObject& Add(const std::string& key, double value);
  JsonObject& Add(const std::string& key, std::uint64_t value);
  JsonObject& Add(const std::string& key, int value);
  JsonObject& Add(const std::string& key, bool value);
  JsonObject& Add(const std::string& key, const std::string& value);
  JsonObject& Add(const std::string& key, const char* value);
  JsonObject& Add(const std::string& key, const JsonObject& value);
  JsonObject& Add(const std::string& key,
                  const std::vector<std::uint64_t>& values);
  JsonObject& AddRaw(const std::string& key, std::string json);
  std::string Render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Where and how the program was built and run.
struct Stamp {
  unsigned nproc = 0;
  std::string compiler;
  std::string build_type;
  std::string git_commit;
  std::string source_digest;
  /// Only an optimized (Release) build may report timings.
  bool release = false;
};

Stamp MakeStamp(std::string git_commit, std::string source_digest);
JsonObject StampJson(const Stamp& stamp);

/// p50/p95 of `latencies_ms` into `metrics` (`latency_p*_ms`), and the
/// sample count plus the samples beyond p95 into `properties`, so a tail
/// read from too few samples shows.
void AddLatencyMetrics(const std::vector<double>& latencies_ms,
                       MetricValues& metrics, JsonObject& properties);

/// `ru_maxrss` of this process, in MiB.
double PeakRssMb();

/// The last stdout line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding `specs` (in order) with their units.
/// Returns an empty string, after naming the culprit in `error`, when a
/// spec'd metric is missing from `values` or a name or unit is invalid.
std::string ResultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<MetricSpec>& specs,
                       const MetricValues& values, std::string* error);

}  // namespace e2ebench

#endif  // E2EBENCH_REPORT_H_
