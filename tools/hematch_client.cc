// hematch_client — command-line client for hematch_serve.
//
// Usage:
//   hematch_client --port N [options] <command> [args]
//
// Commands:
//   ping                       round-trip check
//   register NAME FILE         register a log (.csv by extension, else
//                              trace-per-line) under NAME
//   match LOG1 LOG2 [PATTERN...]  run a match between two registered
//                              logs (by name or fingerprint), patterns
//                              over the (oriented) source log
//   load LOG1 LOG2 [PATTERN...]   closed-loop load: --requests total
//                              requests over --concurrency connections
//   stats                      print the server's telemetry snapshot line
//   metrics                    print the server's Prometheus exposition text
//   drain                      begin graceful drain
//
// Options:
//   --port N           server port (required)
//   --host H           server host (default 127.0.0.1)
//   --tenant NAME      tenant id for fair-share scheduling
//   --correlation-id S opaque id echoed in responses and the access log
//   --deadline-ms F    per-request deadline (server default otherwise)
//   --max-expansions N per-request expansion cap
//   --partial-penalty F  allow unmapped sources at cost F each
//   --method NAME      auto | exact | heuristic | parallel (default auto)
//   --search-threads N worker threads for --method parallel (0 = auto)
//   --requests N       load: total match requests (default 32)
//   --concurrency N    load: concurrent connections (default 4)
//   --retries N        transport retries per call (default 2)
//   --retry-overload   also retry REJECTED_OVERLOAD (honors retry_after_ms)
//   --timeout-ms F     read timeout per call (default 30000)
//   --help             this text
//
// Exit codes: 0 ok; 1 transport/internal failure; 2 usage; 4 the server
// rejected the request (overload, draining, bad request, not found).

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/file.h"
#include "common/strings.h"
#include "obs/json.h"
#include "serve/client.h"

namespace {

using namespace hematch;

void PrintUsageAndExit(int code) {
  std::cerr <<
      "usage: hematch_client --port N [options] <command> [args]\n"
      "commands:\n"
      "  ping | stats | metrics | drain\n"
      "  register NAME FILE\n"
      "  match LOG1 LOG2 [PATTERN...]\n"
      "  load LOG1 LOG2 [PATTERN...]\n"
      "options:\n"
      "  --host H --tenant NAME --correlation-id S\n"
      "  --deadline-ms F --max-expansions N\n"
      "  --partial-penalty F --method auto|exact|heuristic|parallel\n"
      "  --search-threads N (method parallel)\n"
      "  --requests N --concurrency N (load)\n"
      "  --retries N --retry-overload --timeout-ms F\n";
  std::exit(code);
}

int PrintResponse(const Result<serve::ServeResponse>& resp) {
  if (!resp.ok()) {
    std::cerr << "call failed: " << resp.status() << "\n";
    return 1;
  }
  std::cout << resp->raw << "\n";
  if (!resp->ok) {
    std::cerr << "server rejected: " << resp->error_code << ": "
              << resp->error_message << "\n";
    return 4;
  }
  return 0;
}

struct LoadStats {
  int ok = 0;
  int rejected = 0;
  int failed = 0;
  std::vector<double> latencies_ms;
};

}  // namespace

int main(int argc, char** argv) {
  serve::ClientOptions copts;
  serve::MatchRequestSpec spec;
  int requests = 32;
  int concurrency = 4;
  std::vector<std::string> positional;

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
    try {
      if (arg == "--help" || arg == "-h") {
        PrintUsageAndExit(0);
      } else if (arg == "--port") {
        copts.port = std::stoi(next("--port"));
      } else if (arg == "--host") {
        copts.host = next("--host");
      } else if (arg == "--tenant") {
        spec.tenant = next("--tenant");
      } else if (arg == "--correlation-id") {
        copts.correlation_id = next("--correlation-id");
      } else if (arg == "--deadline-ms") {
        spec.deadline_ms = std::stod(next("--deadline-ms"));
      } else if (arg == "--max-expansions") {
        spec.max_expansions = std::stoull(next("--max-expansions"));
      } else if (arg == "--partial-penalty") {
        spec.partial_penalty = std::stod(next("--partial-penalty"));
      } else if (arg == "--method") {
        spec.method = next("--method");
      } else if (arg == "--search-threads") {
        spec.search_threads = std::stoi(next("--search-threads"));
      } else if (arg == "--requests") {
        requests = std::stoi(next("--requests"));
      } else if (arg == "--concurrency") {
        concurrency = std::stoi(next("--concurrency"));
      } else if (arg == "--retries") {
        copts.max_retries = std::stoi(next("--retries"));
      } else if (arg == "--retry-overload") {
        copts.retry_overload = true;
      } else if (arg == "--timeout-ms") {
        copts.read_timeout_ms = std::stod(next("--timeout-ms"));
      } else if (StartsWith(arg, "--")) {
        std::cerr << "unknown option: " << arg << "\n";
        PrintUsageAndExit(2);
      } else {
        positional.push_back(arg);
      }
    } catch (const std::exception&) {
      std::cerr << "bad value for " << arg << "\n";
      return 2;
    }
  }
  if (copts.port <= 0 || positional.empty()) {
    PrintUsageAndExit(2);
  }
  const std::string command = positional[0];

  if (command == "ping" || command == "stats" || command == "drain") {
    serve::ServeClient client(copts);
    if (command == "ping") return PrintResponse(client.Ping());
    if (command == "stats") return PrintResponse(client.Stats());
    return PrintResponse(client.Drain());
  }

  if (command == "metrics") {
    serve::ServeClient client(copts);
    Result<serve::ServeResponse> resp = client.Metrics();
    if (!resp.ok()) {
      std::cerr << "call failed: " << resp.status() << "\n";
      return 1;
    }
    if (!resp->ok) {
      std::cerr << "server rejected: " << resp->error_code << ": "
                << resp->error_message << "\n";
      return 4;
    }
    // Print the decoded exposition body, not the JSON envelope — the
    // output is then byte-identical to a GET on --metrics-port.
    const obs::JsonValue* exposition = resp->body.Find("exposition");
    if (exposition == nullptr ||
        exposition->kind != obs::JsonValue::Kind::kString) {
      std::cerr << "response carries no exposition text\n";
      return 1;
    }
    std::cout << exposition->text;
    return 0;
  }

  if (command == "register") {
    if (positional.size() != 3) {
      PrintUsageAndExit(2);
    }
    const std::string& name = positional[1];
    const std::string& path = positional[2];
    const Result<std::string> content = ReadFile(path);
    if (!content.ok()) {
      std::cerr << content.status().message() << "\n";
      return 1;
    }
    const bool csv = path.size() >= 4 &&
                     path.compare(path.size() - 4, 4, ".csv") == 0;
    serve::ServeClient client(copts);
    return PrintResponse(
        client.RegisterLogText(name, csv ? "csv" : "tr", *content));
  }

  if (command == "match" || command == "load") {
    if (positional.size() < 3) {
      PrintUsageAndExit(2);
    }
    spec.log1 = positional[1];
    spec.log2 = positional[2];
    spec.patterns.assign(positional.begin() + 3, positional.end());

    if (command == "match") {
      serve::ServeClient client(copts);
      return PrintResponse(client.Match(spec));
    }

    // load: closed-loop clients, one connection each, splitting
    // `requests` round-robin.
    concurrency = std::max(1, concurrency);
    std::vector<LoadStats> per_client(
        static_cast<std::size_t>(concurrency));
    std::vector<std::thread> threads;
    for (int c = 0; c < concurrency; ++c) {
      const int share = requests / concurrency +
                        (c < requests % concurrency ? 1 : 0);
      threads.emplace_back([&, c, share] {
        serve::ServeClient client(copts);
        LoadStats& stats = per_client[static_cast<std::size_t>(c)];
        for (int r = 0; r < share; ++r) {
          const auto start = std::chrono::steady_clock::now();
          Result<serve::ServeResponse> resp = client.Match(spec);
          const double ms =
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
          if (!resp.ok()) {
            ++stats.failed;
          } else if (!resp->ok) {
            ++stats.rejected;
          } else {
            ++stats.ok;
            stats.latencies_ms.push_back(ms);
          }
        }
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    LoadStats total;
    for (const LoadStats& s : per_client) {
      total.ok += s.ok;
      total.rejected += s.rejected;
      total.failed += s.failed;
      total.latencies_ms.insert(total.latencies_ms.end(),
                                s.latencies_ms.begin(),
                                s.latencies_ms.end());
    }
    std::sort(total.latencies_ms.begin(), total.latencies_ms.end());
    auto pct = [&](double p) {
      if (total.latencies_ms.empty()) return 0.0;
      const std::size_t idx = static_cast<std::size_t>(
          p * static_cast<double>(total.latencies_ms.size() - 1));
      return total.latencies_ms[idx];
    };
    std::cout << "load: ok " << total.ok << ", rejected " << total.rejected
              << ", failed " << total.failed << ", p50 " << pct(0.5)
              << " ms, p99 " << pct(0.99) << " ms\n";
    return total.failed > 0 ? 1 : 0;
  }

  std::cerr << "unknown command: " << command << "\n";
  PrintUsageAndExit(2);
  return 2;
}
