// Online monitoring scenario: the source system's schema is known, the
// target system streams traces in. Every K traces we index the prefix
// seen so far (one walk over it, freq/log_index.h), rematch against the
// source log's index built once up front, and watch the proposed mapping
// converge to the ground truth as evidence accumulates — the
// complex-event-processing setting the paper's introduction motivates.
//
//   ./build/examples/online_monitoring

#include <algorithm>
#include <iostream>
#include <memory>

#include "core/heuristic_advanced_matcher.h"
#include "core/pattern_set.h"
#include "eval/metrics.h"
#include "eval/table.h"
#include "freq/log_index.h"
#include "gen/bus_process.h"
#include "log/projection.h"

int main() {
  using namespace hematch;

  BusProcessOptions options;
  options.num_traces = 2000;
  const MatchingTask task = MakeBusManufacturerTask(options);

  // The source side does not change: index it and build its pattern set
  // once, and share both across every rematch.
  const auto index1 = std::make_shared<const LogIndex>(task.log1);
  const std::vector<Pattern> patterns =
      BuildPatternSet(index1->graph(), task.complex_patterns);

  const HeuristicAdvancedMatcher matcher;
  TextTable table({"traces seen", "F-measure", "match time (ms)"});

  for (std::size_t checkpoint : {25u, 50u, 100u, 250u, 500u, 1000u, 2000u}) {
    // The "stream": the prefix of log2's traces that has arrived.
    const std::size_t ingested =
        std::min(checkpoint, task.log2.num_traces());
    const EventLog window = SelectFirstTraces(task.log2, ingested);
    MatchingContext context(index1, std::make_shared<const LogIndex>(window),
                            patterns);
    Result<MatchResult> result = matcher.Match(context);
    if (!result.ok()) {
      std::cerr << "matching failed: " << result.status() << "\n";
      return 1;
    }
    const MatchQuality quality =
        EvaluateMapping(result->mapping, task.ground_truth);
    table.AddRow({std::to_string(ingested),
                  TextTable::Num(quality.f_measure),
                  TextTable::Num(result->elapsed_ms, 1)});
  }
  table.Print(std::cout);
  std::cout << "\nThe mapping stabilizes once the streamed frequencies\n"
               "separate the confusable events; before that, the matcher\n"
               "honestly reflects the ambiguity in the data.\n";
  return 0;
}
