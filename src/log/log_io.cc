#include "log/log_io.h"

#include <algorithm>
#include <ostream>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/file.h"
#include "common/strings.h"
#include "obs/trace.h"

namespace hematch {

namespace {

// Pops the first line off `rest` (up to a '\n', or all of it), minus a
// trailing '\r': CR line endings are valid encodings, not defects.
std::string_view PopLine(std::string_view& rest) {
  const std::size_t end = rest.find('\n');
  std::string_view line = rest.substr(0, end);
  rest.remove_prefix(end == std::string_view::npos ? rest.size() : end + 1);
  if (!line.empty() && line.back() == '\r') {
    line.remove_suffix(1);
  }
  return line;
}

// Calls `visit(index, field)` for each ','-separated field of `line`,
// stripped (empty ones included), and returns how many there were.
template <typename Visit>
std::size_t ForEachField(std::string_view line, Visit visit) {
  for (std::size_t index = 0;; ++index) {
    const std::size_t comma = line.find(',');
    visit(index, StripWhitespace(line.substr(0, comma)));
    if (comma == std::string_view::npos) {
      return index + 1;
    }
    line.remove_prefix(comma + 1);
  }
}

// One kept CSV row: views into the parsed text.
struct CsvRow {
  std::size_t case_index = 0;
  std::string_view event;
  std::string_view time;    // Empty when absent.
  std::string_view digits;  // IntegerDigits(time): its sort key, made once.
};

// `time` without leading zeros ("0" for zero) if it is an integer, else "".
std::string_view IntegerDigits(std::string_view time) {
  if (time.empty() || !std::all_of(time.begin(), time.end(), [](char c) {
        return c >= '0' && c <= '9';
      })) {
    return {};
  }
  return time.substr(std::min(time.find_first_not_of('0'), time.size() - 1));
}

}  // namespace

Result<EventLog> ParseTraceLog(std::string_view text) {
  // Ingestion predates tracing, so the span recorder arrives ambiently
  // (see obs/trace.h) instead of through a signature change.
  obs::ScopedSpan span(obs::AmbientTraceRecorder(), "log.read_trace", "log");
  EventLog log;
  while (!text.empty()) {
    const std::string_view line = StripWhitespace(PopLine(text));
    if (line.empty() || line.front() == '#') {
      continue;
    }
    Trace trace;
    for (std::string_view rest = line; !rest.empty();) {
      const std::size_t end =
          std::min(rest.find_first_of(" \t\r\n\v\f"), rest.size());
      trace.push_back(log.InternEvent(rest.substr(0, end)));
      rest = StripWhitespace(rest.substr(end));
    }
    log.AddTrace(std::move(trace));
  }
  span.AddArg("traces", static_cast<double>(log.num_traces()));
  span.AddArg("events", static_cast<double>(log.num_events()));
  return log;
}

Result<EventLog> ReadTraceLog(std::istream& input) {
  return ParseTraceLog(ReadAll(input));
}

Result<EventLog> ReadTraceLogFile(const std::string& path) {
  HEMATCH_ASSIGN_OR_RETURN(const std::string text, ReadFile(path));
  return ParseTraceLog(text);
}

Status WriteTraceLog(const EventLog& log, std::ostream& output) {
  output << "# hematch trace log: " << log.num_traces() << " traces, "
         << log.num_events() << " events\n";
  for (const Trace& trace : log.traces()) {
    output << log.TraceToString(trace) << '\n';
  }
  if (!output) {
    return Status::Internal("I/O failure while writing trace log");
  }
  return Status::OK();
}

Result<EventLog> ParseCsvLog(std::string_view text,
                             const CsvReadOptions& options,
                             CsvReadStats* stats) {
  obs::ScopedSpan span(obs::AmbientTraceRecorder(), "log.read_csv", "log");
  CsvReadStats local_stats;
  stats = stats == nullptr ? &local_stats : stats;
  *stats = CsvReadStats{};
  if (text.empty()) {
    return Status::ParseError("CSV log is empty (missing header)");
  }
  // A UTF-8 byte-order mark on the header is a valid encoding, not a
  // defect: strip it in both modes.
  std::string_view header = PopLine(text);
  if (StartsWith(header, "\xEF\xBB\xBF")) {
    header.remove_prefix(3);
  }
  constexpr std::size_t kAbsent = ~std::size_t{0};
  std::size_t case_col = kAbsent;
  std::size_t event_col = kAbsent;
  std::size_t time_col = kAbsent;
  ForEachField(header, [&](std::size_t i, std::string_view field) {
    std::string name(field);
    std::transform(name.begin(), name.end(), name.begin(), [](char c) {
      return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
    });
    if (name == "case" || name == "case_id" || name == "trace" ||
        name == "trace_id") {
      case_col = i;
    } else if (name == "event" || name == "activity" || name == "event_name") {
      event_col = i;
    } else if (name == "timestamp" || name == "time" || name == "ts") {
      time_col = i;
    }
  });
  if (case_col == kAbsent || event_col == kAbsent) {
    return Status::ParseError(
        "CSV header must contain 'case' and 'event' columns; got: " +
        std::string(header));
  }
  // A ragged row that still reaches the case and event columns only
  // lost its timestamp: salvageable. Anything shorter is not a row.
  const std::size_t required = std::max(case_col, event_col) + 1;
  const std::size_t needed =
      time_col == kAbsent ? required : std::max(required, time_col + 1);

  // Cases are numbered by first appearance. Exports list a case's rows
  // together, so the lookup is skipped while the case repeats.
  std::unordered_map<std::string_view, std::size_t> cases;
  std::vector<bool> by_text;  // Per case: sorts by text, not by number.
  std::string_view last_case_id;
  std::size_t last_case = 0;
  std::vector<CsvRow> rows;
  rows.reserve(
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')) +
      1);
  for (std::size_t line_no = 2; !text.empty(); ++line_no) {
    const std::string_view line = PopLine(text);
    if (StripWhitespace(line).empty()) {
      continue;
    }
    CsvRow row;
    std::string_view case_id;
    const std::size_t fields =
        ForEachField(line, [&](std::size_t i, std::string_view field) {
          if (i == case_col) {
            case_id = field;
          } else if (i == event_col) {
            row.event = field;
          } else if (i == time_col) {
            row.time = field;
          }
        });
    const bool ragged = fields < needed;
    if (ragged && options.strict) {
      return Status::ParseError("CSV line " + std::to_string(line_no) +
                                " has too few fields: " + std::string(line));
    }
    if (ragged && fields < required) {
      ++stats->salvaged_rows;
      continue;
    }
    if (case_id.empty() || row.event.empty()) {
      if (options.strict) {
        return Status::ParseError("CSV line " + std::to_string(line_no) +
                                  " has an empty case or event field");
      }
      ++stats->salvaged_rows;
      continue;
    }
    if (ragged) {
      ++stats->salvaged_rows;
    }
    if (case_id != last_case_id) {
      last_case_id = case_id;
      last_case = cases.try_emplace(case_id, cases.size()).first->second;
      by_text.resize(cases.size());
    }
    row.case_index = last_case;
    row.digits = IntegerDigits(row.time);
    by_text[last_case] =
        by_text[last_case] || (!row.time.empty() && row.digits.empty());
    rows.push_back(row);
  }

  // Order rows by case, then by time: a case whose non-empty timestamps
  // are all integers by number, any other by text; empty ones first. The
  // sort is stable, so ties keep file order, and a file that is already
  // in this order (the usual export) is only checked.
  const auto key = [&by_text](const CsvRow& row) {
    return by_text[row.case_index]
               ? std::tuple(row.case_index, std::size_t{0}, row.time)
               : std::tuple(row.case_index, row.digits.size(), row.digits);
  };
  const auto before = [&key](const CsvRow& a, const CsvRow& b) {
    return key(a) < key(b);
  };
  if (!std::is_sorted(rows.begin(), rows.end(), before)) {
    std::stable_sort(rows.begin(), rows.end(), before);
  }
  // Names are interned in the order they first occur in the ordered
  // traces, which is the id order every caller relies on.
  EventLog log;
  for (auto first = rows.begin(); first != rows.end();) {
    const auto last =
        std::find_if(first, rows.end(), [&first](const CsvRow& row) {
          return row.case_index != first->case_index;
        });
    Trace trace;
    trace.reserve(static_cast<std::size_t>(last - first));
    for (; first != last; ++first) {
      trace.push_back(log.InternEvent(first->event));
    }
    log.AddTrace(std::move(trace));
  }
  span.AddArg("traces", static_cast<double>(log.num_traces()));
  span.AddArg("events", static_cast<double>(log.num_events()));
  span.AddArg("salvaged", static_cast<double>(stats->salvaged_rows));
  return log;
}

Result<EventLog> ReadCsvLog(std::istream& input, const CsvReadOptions& options,
                            CsvReadStats* stats) {
  return ParseCsvLog(ReadAll(input), options, stats);
}

Result<EventLog> ReadCsvLogFile(const std::string& path,
                                const CsvReadOptions& options,
                                CsvReadStats* stats) {
  HEMATCH_ASSIGN_OR_RETURN(const std::string text, ReadFile(path));
  return ParseCsvLog(text, options, stats);
}

Status WriteCsvLog(const EventLog& log, std::ostream& output) {
  output << "case,event,timestamp\n";
  std::size_t ts = 0;
  for (std::size_t i = 0; i < log.num_traces(); ++i) {
    for (EventId id : log.traces()[i]) {
      output << "t" << i << ',' << log.dictionary().Name(id) << ',' << ts++
             << '\n';
    }
  }
  if (!output) {
    return Status::Internal("I/O failure while writing CSV log");
  }
  return Status::OK();
}

}  // namespace hematch
