#include "obs/trace_analysis.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace hematch::obs {

namespace {

void DecodeArgs(const JsonValue* args, TraceEvent* event) {
  if (args == nullptr || args->kind != JsonValue::Kind::kObject) {
    return;
  }
  for (const auto& [key, value] : args->fields) {
    if (value.kind != JsonValue::Kind::kNumber) {
      continue;
    }
    // Ids that are not exact integers (a hand-edited trace) read as 0
    // rather than pass through a float-to-int conversion.
    if (key == "span_id") {
      event->id = value.AsUint64().value_or(0);
    } else if (key == "parent_id") {
      event->parent = value.AsUint64().value_or(0);
    } else if (key == "value") {
      event->value = value.number;
    } else {
      event->args.push_back({key, value.number});
    }
  }
}

}  // namespace

Result<ParsedTrace> ParseChromeTrace(std::string_view json) {
  JsonValue root;
  {
    auto parsed = ParseJson(json);
    HEMATCH_RETURN_IF_ERROR(parsed.status());
    root = std::move(parsed).value();
  }

  const JsonValue* events = nullptr;
  ParsedTrace trace;
  if (root.kind == JsonValue::Kind::kArray) {
    events = &root;
  } else if (root.kind == JsonValue::Kind::kObject) {
    events = root.Find("traceEvents");
    if (const JsonValue* other = root.Find("otherData")) {
      ReadUintField(*other, "dropped_events", &trace.dropped_events);
    }
  }
  if (events == nullptr || events->kind != JsonValue::Kind::kArray) {
    return Status::ParseError("trace JSON: no traceEvents array");
  }

  static const std::string kEmpty;
  for (const JsonValue& entry : events->items) {
    if (entry.kind != JsonValue::Kind::kObject) {
      return Status::ParseError("trace JSON: event is not an object");
    }
    const JsonValue* ph = entry.Find("ph");
    if (ph == nullptr || ph->kind != JsonValue::Kind::kString) {
      continue;
    }
    std::uint32_t tid = 0;  // Stays 0 unless "tid" is an exact uint32.
    ReadUintField(entry, "tid", &tid);
    const std::string& name =
        entry.Find("name") ? entry.Find("name")->TextOr(kEmpty) : kEmpty;

    if (ph->text == "M") {
      if (name == "thread_name") {
        if (const JsonValue* args = entry.Find("args")) {
          if (const JsonValue* tname = args->Find("name")) {
            trace.thread_names[tid] = tname->TextOr(kEmpty);
          }
        }
      }
      continue;
    }

    TraceEvent event;
    event.name = name;
    event.tid = tid;
    if (const JsonValue* cat = entry.Find("cat")) {
      event.category = cat->TextOr(kEmpty);
    }
    if (const JsonValue* ts = entry.Find("ts")) {
      event.ts_us = ts->NumberOr(0.0);
    }
    if (ph->text == "X") {
      event.kind = TraceEventKind::kSpan;
      if (const JsonValue* dur = entry.Find("dur")) {
        event.dur_us = dur->NumberOr(0.0);
      }
    } else if (ph->text == "i" || ph->text == "I") {
      event.kind = TraceEventKind::kInstant;
    } else if (ph->text == "C") {
      event.kind = TraceEventKind::kCounter;
    } else {
      continue;  // Unknown phase: tolerated, not modeled.
    }
    DecodeArgs(entry.Find("args"), &event);
    trace.events.push_back(std::move(event));
  }
  return trace;
}

TraceReport AnalyzeTrace(const ParsedTrace& trace) {
  TraceReport report;
  report.dropped_events = trace.dropped_events;

  std::vector<const TraceEvent*> spans;
  double min_ts = 0.0;
  double max_end = 0.0;
  bool any = false;
  for (const TraceEvent& event : trace.events) {
    const double end =
        event.ts_us + (event.kind == TraceEventKind::kSpan ? event.dur_us : 0);
    if (!any || event.ts_us < min_ts) {
      min_ts = event.ts_us;
    }
    if (!any || end > max_end) {
      max_end = end;
    }
    any = true;
    switch (event.kind) {
      case TraceEventKind::kSpan:
        ++report.span_count;
        spans.push_back(&event);
        break;
      case TraceEventKind::kInstant:
        ++report.instant_count;
        break;
      case TraceEventKind::kCounter:
        ++report.counter_count;
        break;
    }
  }
  report.wall_us = any ? max_end - min_ts : 0.0;

  // Child time per parent span id; self = dur - child time (clamped:
  // concurrent children, e.g. strategy threads under the run root, can
  // sum past their parent's own duration).
  std::unordered_map<SpanId, double> child_time;
  std::unordered_map<SpanId, const TraceEvent*> by_id;
  std::unordered_map<SpanId, std::vector<const TraceEvent*>> children;
  for (const TraceEvent* span : spans) {
    if (span->id != 0) {
      by_id.emplace(span->id, span);
    }
  }
  for (const TraceEvent* span : spans) {
    if (span->parent != 0 && by_id.count(span->parent) > 0) {
      child_time[span->parent] += span->dur_us;
      children[span->parent].push_back(span);
    }
  }

  std::map<std::string, SpanNameStats> by_name;
  for (const TraceEvent* span : spans) {
    SpanNameStats& stats = by_name[span->name];
    stats.name = span->name;
    ++stats.count;
    stats.total_us += span->dur_us;
    double self = span->dur_us;
    auto it = child_time.find(span->id);
    if (it != child_time.end()) {
      self = std::max(0.0, self - it->second);
    }
    stats.self_us += self;
    stats.max_us = std::max(stats.max_us, span->dur_us);
  }
  for (auto& [name, stats] : by_name) {
    report.by_name.push_back(std::move(stats));
  }
  std::sort(report.by_name.begin(), report.by_name.end(),
            [](const SpanNameStats& a, const SpanNameStats& b) {
              return a.self_us > b.self_us;
            });

  // Critical path: longest root, then repeatedly the child that
  // finishes last (with abandoned stragglers a child can outlive its
  // parent; "finishes last" still names the chain that held up the
  // run).
  const TraceEvent* root = nullptr;
  for (const TraceEvent* span : spans) {
    const bool is_root = span->parent == 0 || by_id.count(span->parent) == 0;
    if (is_root && (root == nullptr || span->dur_us > root->dur_us)) {
      root = span;
    }
  }
  const TraceEvent* cursor = root;
  while (cursor != nullptr) {
    report.critical_path.push_back({cursor->name, cursor->id, cursor->tid,
                                    cursor->ts_us, cursor->dur_us});
    const TraceEvent* next = nullptr;
    auto it = children.find(cursor->id);
    if (it != children.end()) {
      for (const TraceEvent* child : it->second) {
        if (next == nullptr ||
            child->ts_us + child->dur_us > next->ts_us + next->dur_us) {
          next = child;
        }
      }
    }
    cursor = next;
    if (report.critical_path.size() > spans.size()) {
      break;  // Defensive: a cyclic parent link in a foreign trace.
    }
  }

  // Per-thread busy time: union of span intervals, so nesting is not
  // double-counted.
  std::map<std::uint32_t, std::vector<std::pair<double, double>>> intervals;
  std::map<std::uint32_t, std::uint64_t> span_counts;
  for (const TraceEvent* span : spans) {
    intervals[span->tid].emplace_back(span->ts_us,
                                      span->ts_us + span->dur_us);
    ++span_counts[span->tid];
  }
  for (auto& [tid, ranges] : intervals) {
    std::sort(ranges.begin(), ranges.end());
    double busy = 0.0;
    double open_start = 0.0;
    double open_end = -1.0;
    for (const auto& [start, end] : ranges) {
      if (start > open_end) {
        busy += std::max(0.0, open_end - open_start);
        open_start = start;
        open_end = end;
      } else {
        open_end = std::max(open_end, end);
      }
    }
    busy += std::max(0.0, open_end - open_start);
    ThreadUtilization util;
    util.tid = tid;
    auto name_it = trace.thread_names.find(tid);
    if (name_it != trace.thread_names.end()) {
      util.name = name_it->second;
    }
    util.spans = span_counts[tid];
    util.busy_us = busy;
    util.utilization = report.wall_us > 0.0 ? busy / report.wall_us : 0.0;
    report.threads.push_back(std::move(util));
  }
  return report;
}

namespace {

std::string FormatRow(const char* format, ...) {
  char buf[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

}  // namespace

std::string FormatTraceReport(const TraceReport& report, std::size_t top_n) {
  std::string out;
  out += FormatRow(
      "trace: %llu spans, %llu instants, %llu counter samples, wall %.3f ms",
      static_cast<unsigned long long>(report.span_count),
      static_cast<unsigned long long>(report.instant_count),
      static_cast<unsigned long long>(report.counter_count),
      report.wall_us / 1000.0);
  if (report.dropped_events > 0) {
    out += FormatRow(" (%llu events dropped)",
                     static_cast<unsigned long long>(report.dropped_events));
  }
  out += "\n\nhottest spans (by self time):\n";
  out += FormatRow("  %10s %10s %6s %10s  %s\n", "self_ms", "total_ms",
                   "count", "max_ms", "name");
  std::size_t shown = 0;
  for (const SpanNameStats& stats : report.by_name) {
    if (shown++ >= top_n) {
      out += FormatRow("  ... %zu more span names\n",
                       report.by_name.size() - top_n);
      break;
    }
    out += FormatRow("  %10.3f %10.3f %6llu %10.3f  %s\n",
                     stats.self_us / 1000.0, stats.total_us / 1000.0,
                     static_cast<unsigned long long>(stats.count),
                     stats.max_us / 1000.0, stats.name.c_str());
  }

  out += "\ncritical path (root -> leaf):\n";
  out += FormatRow("  %10s %10s %4s  %s\n", "start_ms", "dur_ms", "tid",
                   "name");
  for (const CriticalPathStep& step : report.critical_path) {
    out += FormatRow("  %10.3f %10.3f %4u  %s\n", step.start_us / 1000.0,
                     step.dur_us / 1000.0, step.tid, step.name.c_str());
  }

  out += "\nthread utilization:\n";
  out += FormatRow("  %4s %6s %10s %6s  %s\n", "tid", "spans", "busy_ms",
                   "util", "name");
  for (const ThreadUtilization& util : report.threads) {
    out += FormatRow("  %4u %6llu %10.3f %5.1f%%  %s\n", util.tid,
                     static_cast<unsigned long long>(util.spans),
                     util.busy_us / 1000.0, util.utilization * 100.0,
                     util.name.c_str());
  }
  return out;
}

ParsedTrace FilterTraceByRequest(const ParsedTrace& trace,
                                 std::uint64_t request_id) {
  // Seed: spans whose args tag them with this request id.
  std::unordered_map<SpanId, bool> keep;  // span id -> kept
  const double want = static_cast<double>(request_id);
  for (const TraceEvent& event : trace.events) {
    if (event.kind != TraceEventKind::kSpan) {
      continue;
    }
    for (const TraceArg& arg : event.args) {
      if (arg.key == "request_id" && arg.value == want) {
        keep[event.id] = true;
        break;
      }
    }
  }

  // Expand to transitive descendants. Parent ids are assigned before
  // child ids but events are stored per thread, so a single pass in
  // file order can miss cross-thread chains — iterate to fixpoint.
  bool grew = !keep.empty();
  while (grew) {
    grew = false;
    for (const TraceEvent& event : trace.events) {
      if (event.kind != TraceEventKind::kSpan || keep.count(event.id) != 0) {
        continue;
      }
      if (event.parent != 0 && keep.count(event.parent) != 0) {
        keep[event.id] = true;
        grew = true;
      }
    }
  }

  ParsedTrace filtered;
  filtered.dropped_events = trace.dropped_events;
  for (const TraceEvent& event : trace.events) {
    if (event.kind == TraceEventKind::kSpan) {
      if (keep.count(event.id) != 0) {
        filtered.events.push_back(event);
      }
      continue;
    }
    // Instants/counters carry no span id; attribute them to the
    // request when they fall inside a kept span's interval on the same
    // thread (how `freq.scan` markers land inside matcher spans).
    for (const TraceEvent& span : trace.events) {
      if (span.kind != TraceEventKind::kSpan || keep.count(span.id) == 0 ||
          span.tid != event.tid) {
        continue;
      }
      if (event.ts_us >= span.ts_us &&
          event.ts_us <= span.ts_us + span.dur_us) {
        filtered.events.push_back(event);
        break;
      }
    }
  }
  for (const TraceEvent& event : filtered.events) {
    auto name = trace.thread_names.find(event.tid);
    if (name != trace.thread_names.end()) {
      filtered.thread_names.emplace(name->first, name->second);
    }
  }
  return filtered;
}

std::string FormatSpanTree(const ParsedTrace& trace) {
  std::vector<const TraceEvent*> spans;
  for (const TraceEvent& event : trace.events) {
    if (event.kind == TraceEventKind::kSpan) {
      spans.push_back(&event);
    }
  }
  if (spans.empty()) {
    return "(no spans)\n";
  }
  std::sort(spans.begin(), spans.end(),
            [](const TraceEvent* a, const TraceEvent* b) {
              if (a->ts_us != b->ts_us) {
                return a->ts_us < b->ts_us;
              }
              return a->id < b->id;
            });
  const double origin = spans.front()->ts_us;

  std::unordered_map<SpanId, std::vector<const TraceEvent*>> children;
  std::unordered_map<SpanId, const TraceEvent*> by_id;
  for (const TraceEvent* span : spans) {
    by_id.emplace(span->id, span);
  }
  std::vector<const TraceEvent*> roots;
  for (const TraceEvent* span : spans) {  // Sorted, so sibling lists are too.
    if (span->parent != 0 && by_id.count(span->parent) != 0) {
      children[span->parent].push_back(span);
    } else {
      roots.push_back(span);  // True root, or parent filtered away.
    }
  }

  std::string out;
  // Iterative DFS; a stack of (span, depth) with children pushed in
  // reverse start order so they pop earliest-first.
  std::vector<std::pair<const TraceEvent*, int>> stack;
  for (auto it = roots.rbegin(); it != roots.rend(); ++it) {
    stack.emplace_back(*it, 0);
  }
  while (!stack.empty()) {
    const auto [span, depth] = stack.back();
    stack.pop_back();
    out += FormatRow("%10.3f ms %+10.3f ms  ", (span->ts_us - origin) / 1000.0,
                     span->dur_us / 1000.0);
    out.append(static_cast<std::size_t>(depth) * 2, ' ');
    out += span->name;
    for (const TraceArg& arg : span->args) {
      out += FormatRow("  %s=%g", arg.key.c_str(), arg.value);
    }
    auto name = trace.thread_names.find(span->tid);
    if (name != trace.thread_names.end()) {
      out += FormatRow("  [%s]", name->second.c_str());
    } else {
      out += FormatRow("  [tid %u]", span->tid);
    }
    out += '\n';
    auto kids = children.find(span->id);
    if (kids != children.end()) {
      for (auto it = kids->second.rbegin(); it != kids->second.rend(); ++it) {
        stack.emplace_back(*it, depth + 1);
      }
    }
  }
  return out;
}

}  // namespace hematch::obs
