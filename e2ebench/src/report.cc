#include "report.h"

#include <sys/resource.h>

#include <set>
#include <thread>

#include "obs/metrics_json.h"
#include "stats.h"

namespace e2ebench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"setup_s", "s"},
      {"latency_p50_ms", "ms"},
      {"latency_p95_ms", "ms"},
      {"jobs_per_s", "1/s"},
      {"f_measure", "ratio"},
      {"certified_ratio", "ratio"},
      {"peak_rss_mb", "MiB"},
  };
  return kSpecs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"log.parse_ms", "ms"},
      {"log.csv_mb_per_s", "MB/s"},
      {"log.xes_mb_per_s", "MB/s"},
      {"log.register_ms", "ms"},
      {"graph.build_ms", "ms"},
      {"pattern.set_ms", "ms"},
      {"context.build_ms", "ms"},
      {"freq.memo_hit_ratio", "ratio"},
      {"freq.traces_scanned", "count"},
      {"existence.pruned_ratio", "ratio"},
      {"search.ms", "ms"},
      {"search.mappings_processed", "count"},
      {"search.nodes_visited", "count"},
      {"search.mappings_per_ms", "1/ms"},
      {"heuristic.ms", "ms"},
      {"ladder.fallback_ratio", "ratio"},
      {"parallel.search_ms", "ms"},
      {"parallel.mappings_processed", "count"},
      {"api.remainder_ms", "ms"},
      {"serve.queue_ms", "ms"},
      {"serve.match_ms", "ms"},
      {"serve.overhead_ms", "ms"},
      {"serve.context_hit_ratio", "ratio"},
      {"serve.shed_ratio", "ratio"},
      {"serve.rejected_ratio", "ratio"},
      {"protocol.parse_us", "us"},
      {"client.schedule_lag_ms", "ms"},
      {"trace.overhead_ratio", "ratio"},
  };
  return kSpecs;
}

JsonObject& JsonObject::Add(const std::string& key, double value) {
  return AddRaw(key, hematch::obs::JsonNumber(value));
}

JsonObject& JsonObject::Add(const std::string& key, std::uint64_t value) {
  return AddRaw(key, std::to_string(value));
}

JsonObject& JsonObject::Add(const std::string& key, int value) {
  return AddRaw(key, std::to_string(value));
}

JsonObject& JsonObject::Add(const std::string& key, bool value) {
  return AddRaw(key, value ? "true" : "false");
}

JsonObject& JsonObject::Add(const std::string& key, const std::string& value) {
  return AddRaw(key, "\"" + hematch::obs::JsonEscape(value) + "\"");
}

JsonObject& JsonObject::Add(const std::string& key, const char* value) {
  return Add(key, std::string(value));
}

JsonObject& JsonObject::Add(const std::string& key, const JsonObject& value) {
  return AddRaw(key, value.Render());
}

JsonObject& JsonObject::Add(const std::string& key,
                            const std::vector<std::uint64_t>& values) {
  std::string json = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    json += (i > 0 ? ", " : "") + std::to_string(values[i]);
  }
  return AddRaw(key, json + "]");
}

JsonObject& JsonObject::AddRaw(const std::string& key, std::string json) {
  fields_.emplace_back(key, std::move(json));
  return *this;
}

std::string JsonObject::Render() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += "\"" + hematch::obs::JsonEscape(fields_[i].first) +
           "\": " + fields_[i].second;
  }
  return out + "}";
}

Stamp MakeStamp(std::string git_commit, std::string source_digest) {
  Stamp stamp;
  stamp.nproc = std::thread::hardware_concurrency();
  stamp.compiler = E2EBENCH_COMPILER;
  stamp.build_type = E2EBENCH_BUILD_TYPE;
  stamp.git_commit = std::move(git_commit);
  stamp.source_digest = std::move(source_digest);
  stamp.release = stamp.build_type == "Release";
  return stamp;
}

JsonObject StampJson(const Stamp& stamp) {
  JsonObject json;
  json.Add("nproc", static_cast<int>(stamp.nproc))
      .Add("compiler", stamp.compiler)
      .Add("build_type", stamp.build_type)
      .Add("git_commit", stamp.git_commit)
      .Add("source_digest", stamp.source_digest)
      .Add("valid_build", stamp.release);
  return json;
}

void AddLatencyMetrics(const std::vector<double>& latencies_ms,
                       MetricValues& metrics, JsonObject& properties) {
  metrics["latency_p50_ms"] = Percentile(latencies_ms, 0.50);
  metrics["latency_p95_ms"] = Percentile(latencies_ms, 0.95);
  const std::size_t n = latencies_ms.size();
  JsonObject tail;
  tail.Add("samples", static_cast<std::uint64_t>(n))
      .Add("beyond_p95", static_cast<std::uint64_t>(SamplesBeyond(n, 0.95)))
      .Add("p95_resolved", SamplesBeyond(n, 0.95) >= kMinSamplesBeyond);
  properties.Add("latency_samples", tail);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::string ResultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<MetricSpec>& specs,
                       const MetricValues& values, std::string* error) {
  JsonObject metrics;
  std::set<std::string> seen;
  for (const MetricSpec& spec : specs) {
    if (!ValidMetricName(spec.name) || !ValidUnit(spec.unit) ||
        !seen.insert(spec.name).second) {
      *error = "invalid metric spec " + spec.name + " [" + spec.unit + "]";
      return "";
    }
    const auto it = values.find(spec.name);
    if (it == values.end()) {
      *error = "metric " + spec.name + " was not measured";
      return "";
    }
    JsonObject metric;
    metric.Add("value", it->second).Add("unit", spec.unit);
    metrics.Add(spec.name, metric);
  }
  JsonObject line;
  line.Add("correct", correct)
      .Add("attempted", attempted)
      .Add("failed", failed)
      .Add("metrics", metrics);
  return line.Render();
}

}  // namespace e2ebench
