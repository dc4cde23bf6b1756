// hematch_trace — summarize a span trace written by --trace-out.
//
// Usage:
//   hematch_trace [--top N] [--request ID] <trace.json>
//
// Reads the Chrome/Perfetto trace-event JSON that hematch_cli (or the
// bench harnesses, or the serve trace ring) wrote and prints the
// profile: self/total time per span name, the critical path from the
// run root, and per-thread utilization. Accepts the general
// trace-event dialect (object with a `traceEvents` array, or a bare
// event array), so traces touched up by other tools still load.
//
// --request ID keeps only the spans tagged with that serve request id
// (plus their descendants) and prints them as an indented span tree —
// the drill-down for one request pulled out of a server trace or a
// trace-ring file (serve/trace_ring.h names them req-<id>.json).

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/file.h"
#include "common/strings.h"
#include "obs/trace_analysis.h"

namespace {

using namespace hematch;

void PrintUsageAndExit(int code) {
  std::cerr << "usage: hematch_trace [--top N] [--request ID] <trace.json>\n"
               "  --top N       show the N hottest span names (default 15)\n"
               "  --request ID  show only the span tree of serve request ID\n"
               "options also accept the --flag=value spelling\n";
  std::exit(code);
}

// All-whitespace content means the file exists but holds no JSON —
// usually a server that died before flushing, or a trace-ring file
// caught mid-eviction. Say that instead of "cannot parse".
bool IsBlank(const std::string& text) {
  for (const char c : text) {
    if (c != ' ' && c != '\t' && c != '\r' && c != '\n') {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t top_n = 15;
  bool by_request = false;
  std::uint64_t request_id = 0;
  std::string path;

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
    const std::string& arg = args[i];
    auto next = [&](const char* flag) -> std::string {
      if (i + 1 >= args.size()) {
        std::cerr << flag << " requires a value\n";
        PrintUsageAndExit(2);
      }
      return args[++i];
    };
    try {
      if (arg == "--help" || arg == "-h") {
        PrintUsageAndExit(0);
      } else if (arg == "--top") {
        top_n = static_cast<std::size_t>(std::stoul(next("--top")));
      } else if (arg == "--request") {
        request_id = std::stoull(next("--request"));
        by_request = true;
      } else if (StartsWith(arg, "--")) {
        std::cerr << "unknown option: " << arg << "\n";
        PrintUsageAndExit(2);
      } else if (path.empty()) {
        path = arg;
      } else {
        PrintUsageAndExit(2);
      }
    } catch (const std::exception&) {
      std::cerr << "bad value for " << arg << "\n";
      return 2;
    }
  }
  if (path.empty()) {
    PrintUsageAndExit(2);
  }

  const Result<std::string> read = ReadFile(path);
  if (!read.ok()) {
    std::cerr << read.status().message() << "\n";
    return 1;
  }
  const std::string& content = *read;
  if (IsBlank(content)) {
    std::cerr << path << " is empty — no trace was written (the writer "
                 "may have died before flushing, or sampling kept "
                 "nothing)\n";
    return 1;
  }

  Result<obs::ParsedTrace> trace = obs::ParseChromeTrace(content);
  if (!trace.ok()) {
    std::cerr << "cannot parse " << path << ": " << trace.status() << "\n";
    // A parse failure at the very end of the content is a truncation,
    // not malformed JSON — name the likelier culprit.
    const std::string& message = trace.status().message();
    if (message.find("unexpected end") != std::string::npos ||
        message.find("offset " + std::to_string(content.size())) !=
            std::string::npos) {
      std::cerr << "the file looks truncated — was the writer still "
                   "running, or the trace ring evicting it?\n";
    }
    return 1;
  }

  if (by_request) {
    const obs::ParsedTrace filtered =
        obs::FilterTraceByRequest(*trace, request_id);
    if (filtered.events.empty()) {
      std::cerr << "request " << request_id << " is not in " << path
                << " — check the access log's trace_file column for the "
                   "right file\n";
      return 1;
    }
    std::cout << "request " << request_id << " (" << path << "):\n"
              << obs::FormatSpanTree(filtered);
    return 0;
  }

  const obs::TraceReport report = obs::AnalyzeTrace(*trace);
  std::cout << obs::FormatTraceReport(report, top_n);
  return 0;
}
