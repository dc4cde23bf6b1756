#include "obs/metrics_json.h"

#include <fstream>

namespace hematch::obs {

namespace {

class JsonBuilder {
 public:
  JsonBuilder(int indent, int depth) : indent_(indent), depth_(depth) {}

  void OpenObject() {
    out_ += '{';
    ++depth_;
  }
  void CloseObject(bool had_entries) {
    --depth_;
    if (had_entries) {
      NewLine();
    }
    out_ += '}';
  }
  void Key(std::string_view name, bool first) {
    if (!first) {
      out_ += ',';
    }
    NewLine();
    out_ += '"';
    out_ += JsonEscape(name);
    out_ += "\": ";
  }
  void Raw(std::string_view text) { out_ += text; }

  std::string Take() { return std::move(out_); }

 private:
  void NewLine() {
    out_ += '\n';
    out_.append(static_cast<std::size_t>(indent_ * depth_), ' ');
  }

  std::string out_;
  int indent_;
  int depth_;
};

template <typename Range, typename Fn>
void EmitArray(JsonBuilder& b, const Range& range, Fn&& fn) {
  b.Raw("[");
  bool first = true;
  for (const auto& item : range) {
    if (!first) {
      b.Raw(", ");
    }
    first = false;
    b.Raw(fn(item));
  }
  b.Raw("]");
}

}  // namespace

std::string TelemetryToJson(const TelemetrySnapshot& snapshot, int indent,
                            int depth) {
  JsonBuilder b(indent, depth);
  b.OpenObject();
  b.Key("schema", /*first=*/true);
  b.Raw("\"hematch.telemetry.v1\"");

  b.Key("counters", /*first=*/false);
  b.OpenObject();
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    b.Key(name, first);
    first = false;
    b.Raw(std::to_string(value));
  }
  b.CloseObject(!snapshot.counters.empty());

  b.Key("gauges", /*first=*/false);
  b.OpenObject();
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    b.Key(name, first);
    first = false;
    b.Raw(JsonNumber(value));
  }
  b.CloseObject(!snapshot.gauges.empty());

  b.Key("histograms", /*first=*/false);
  b.OpenObject();
  first = true;
  for (const auto& [name, h] : snapshot.histograms) {
    b.Key(name, first);
    first = false;
    b.OpenObject();
    b.Key("bounds", /*first=*/true);
    EmitArray(b, h.bounds, [](double v) { return JsonNumber(v); });
    b.Key("counts", /*first=*/false);
    EmitArray(b, h.counts,
              [](std::uint64_t v) { return std::to_string(v); });
    b.Key("sum", /*first=*/false);
    b.Raw(JsonNumber(h.sum));
    // Derived percentile views; the parser skips them (unknown fields),
    // so round-tripping reconstructs them from the buckets instead.
    b.Key("p50", /*first=*/false);
    b.Raw(JsonNumber(h.Percentile(0.50)));
    b.Key("p95", /*first=*/false);
    b.Raw(JsonNumber(h.Percentile(0.95)));
    b.Key("p99", /*first=*/false);
    b.Raw(JsonNumber(h.Percentile(0.99)));
    b.CloseObject(/*had_entries=*/true);
  }
  b.CloseObject(!snapshot.histograms.empty());

  b.CloseObject(/*had_entries=*/true);
  return b.Take();
}

namespace {

Status TelemetryError(const std::string& what) {
  return Status::ParseError("telemetry JSON: " + what);
}

Status RequireObject(const JsonValue& value, const std::string& what) {
  return value.kind == JsonValue::Kind::kObject
             ? Status::OK()
             : TelemetryError(what + " must be an object");
}

Result<std::uint64_t> ReadCount(const JsonValue& value,
                                const std::string& what) {
  if (const std::optional<std::uint64_t> count = value.AsUint64()) {
    return *count;
  }
  return TelemetryError(what + " must be a non-negative integer");
}

Result<double> ReadNumber(const JsonValue& value, const std::string& what) {
  if (value.kind != JsonValue::Kind::kNumber) {
    return TelemetryError(what + " must be a number");
  }
  return value.number;
}

Result<HistogramSnapshot> ReadHistogram(const JsonValue& value,
                                        const std::string& name) {
  HEMATCH_RETURN_IF_ERROR(RequireObject(value, "histogram '" + name + "'"));
  HistogramSnapshot h;
  for (const auto& [field, item] : value.fields) {
    const std::string what = "histogram '" + name + "' " + field;
    if (field == "bounds" || field == "counts") {
      if (item.kind != JsonValue::Kind::kArray) {
        return TelemetryError(what + " must be an array");
      }
      for (const JsonValue& element : item.items) {
        if (field == "bounds") {
          HEMATCH_ASSIGN_OR_RETURN(const double bound,
                                   ReadNumber(element, what));
          h.bounds.push_back(bound);
        } else {
          HEMATCH_ASSIGN_OR_RETURN(const std::uint64_t count,
                                   ReadCount(element, what));
          h.counts.push_back(count);
        }
      }
    } else if (field == "sum") {
      HEMATCH_ASSIGN_OR_RETURN(h.sum, ReadNumber(item, what));
    }
  }
  if (h.counts.size() != h.bounds.size() + 1) {
    return TelemetryError("histogram '" + name +
                          "' needs bounds.size()+1 counts");
  }
  return h;
}

}  // namespace

Result<TelemetrySnapshot> TelemetryFromJson(std::string_view json) {
  HEMATCH_ASSIGN_OR_RETURN(const JsonValue doc, ParseJson(json));
  HEMATCH_RETURN_IF_ERROR(RequireObject(doc, "the top level"));
  TelemetrySnapshot snapshot;
  for (const auto& [key, section] : doc.fields) {
    if (key != "counters" && key != "gauges" && key != "histograms") {
      continue;
    }
    HEMATCH_RETURN_IF_ERROR(RequireObject(section, key));
    for (const auto& [name, value] : section.fields) {
      if (key == "counters") {
        HEMATCH_ASSIGN_OR_RETURN(snapshot.counters[name],
                                 ReadCount(value, "counter '" + name + "'"));
      } else if (key == "gauges") {
        HEMATCH_ASSIGN_OR_RETURN(snapshot.gauges[name],
                                 ReadNumber(value, "gauge '" + name + "'"));
      } else {
        HEMATCH_ASSIGN_OR_RETURN(snapshot.histograms[name],
                                 ReadHistogram(value, name));
      }
    }
  }
  return snapshot;
}

std::string TelemetryToHeartbeatLine(const TelemetrySnapshot& snapshot,
                                     std::uint64_t seq, double elapsed_ms,
                                     const TelemetrySnapshot* windowed) {
  std::string out;
  out += "{\"schema\":\"hematch.heartbeat.v1\",\"seq\":" +
         std::to_string(seq) + ",\"elapsed_ms\":" + JsonNumber(elapsed_ms);
  out += ",\"counters\":{";
  bool first = true;
  auto emit_counters = [&](const TelemetrySnapshot& s,
                           const std::string& suffix) {
    for (const auto& [name, value] : s.counters) {
      if (!first) {
        out += ',';
      }
      first = false;
      out += '"' + JsonEscape(name + suffix) + "\":" + std::to_string(value);
    }
  };
  emit_counters(snapshot, "");
  if (windowed != nullptr) {
    emit_counters(*windowed, "_w60");
  }
  out += "},\"gauges\":{";
  first = true;
  auto emit_gauges = [&](const TelemetrySnapshot& s,
                         const std::string& suffix) {
    for (const auto& [name, value] : s.gauges) {
      if (!first) {
        out += ',';
      }
      first = false;
      out += '"' + JsonEscape(name + suffix) + "\":" + JsonNumber(value);
    }
  };
  emit_gauges(snapshot, "");
  if (windowed != nullptr) {
    emit_gauges(*windowed, "_w60");
  }
  out += "},\"percentiles\":{";
  first = true;
  auto emit_percentiles = [&](const TelemetrySnapshot& s,
                              const std::string& suffix) {
    for (const auto& [name, h] : s.histograms) {
      if (!first) {
        out += ',';
      }
      first = false;
      out += '"' + JsonEscape(name + suffix) + "\":{\"count\":" +
             std::to_string(h.total_count()) +
             ",\"p50\":" + JsonNumber(h.Percentile(0.50)) +
             ",\"p95\":" + JsonNumber(h.Percentile(0.95)) +
             ",\"p99\":" + JsonNumber(h.Percentile(0.99)) + '}';
    }
  };
  emit_percentiles(snapshot, "");
  if (windowed != nullptr) {
    emit_percentiles(*windowed, "_w60");
  }
  out += "}}";
  return out;
}

Status WriteTelemetryJson(const TelemetrySnapshot& snapshot,
                          const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::InvalidArgument("cannot open metrics file: " + path);
  }
  out << TelemetryToJson(snapshot) << "\n";
  if (!out) {
    return Status::Internal("failed writing metrics file: " + path);
  }
  return Status::OK();
}

}  // namespace hematch::obs
