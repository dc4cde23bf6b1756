// Pins of the exact search itself: for fixed-seed instances, the nodes
// visited, the mappings processed, the objective (to the last bit) and
// the mapping returned by `AStarMatcher`, for every bound kind with the
// search reductions off and on, plus a partial-mapping case and the
// parallel matcher's objective.
//
// These numbers are the search's observable behaviour. A change that only
// makes a bound cheaper to compute must leave every one of them as it is;
// a change that moves one is changing the search, and must say so.
// Member of the `paper_claims` ctest label.

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/astar_matcher.h"
#include "core/matching_context.h"
#include "core/pattern_set.h"
#include "exec/parallel_astar.h"
#include "gen/bus_process.h"
#include "gen/matching_task.h"
#include "gen/synthetic_process.h"
#include "graph/dependency_graph.h"

namespace hematch {
namespace {

// A bus-manufacturer instance (Fig. 9/10's workload, Table 3's 3000
// traces) with decoy targets: junk log2 labels, each in 50 singleton
// traces, as in bench_search.
MatchingTask BusWithDecoys(std::uint64_t seed, std::size_t num_decoys) {
  BusProcessOptions options;
  options.num_traces = 3000;
  options.seed = seed;
  MatchingTask task = MakeBusManufacturerTask(options);
  for (std::size_t d = 0; d < num_decoys; ++d) {
    const std::string decoy = "decoy" + std::to_string(d);
    for (int i = 0; i < 50; ++i) {
      task.log2.AddTraceByNames({decoy});
    }
  }
  return task;
}

// Fig. 12's repeated-structure synthetic, cut to its first 10 events.
MatchingTask Fig12Synthetic() {
  SyntheticProcessOptions options;
  options.num_units = 2;
  options.num_traces = 600;
  options.seed = 11;
  return ProjectTaskEvents(MakeSyntheticTask(options), 10);
}

std::string Objective(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

// Everything pinned about one run, as one comparable line.
std::string Describe(const MatchResult& r) {
  std::string out = "nodes=" + std::to_string(r.nodes_visited) +
                    " mappings=" + std::to_string(r.mappings_processed) +
                    " objective=" + Objective(r.objective) + " mapping=";
  for (EventId s = 0; s < r.mapping.num_sources(); ++s) {
    out += s == 0 ? "" : ",";
    out += r.mapping.IsSourceNull(s)
               ? std::string("_")
               : std::to_string(r.mapping.TargetOf(s));
  }
  return out;
}

std::string RunAStar(const MatchingTask& task, BoundKind bound,
                     bool reductions, double unmapped_penalty = -1.0) {
  MatchingContext context(
      task.log1, task.log2,
      BuildPatternSet(DependencyGraph::Build(task.log1),
                      task.complex_patterns));
  AStarOptions options;
  options.scorer.bound = bound;
  options.reductions.dominance_pruning = reductions;
  options.reductions.symmetry_breaking = reductions;
  if (unmapped_penalty >= 0.0) {
    options.scorer.partial.unmapped_penalty = unmapped_penalty;
  }
  const Result<MatchResult> result = AStarMatcher(options).Match(context);
  EXPECT_TRUE(result.ok());
  if (!result.ok()) {
    return result.status().message();
  }
  EXPECT_TRUE(result->completed());
  return Describe(*result);
}

class BusSearchPinTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    task_ = new MatchingTask(BusWithDecoys(5, 10));
  }
  static void TearDownTestSuite() {
    delete task_;
    task_ = nullptr;
  }
  static MatchingTask* task_;
};

MatchingTask* BusSearchPinTest::task_ = nullptr;

TEST_F(BusSearchPinTest, SimpleNoReductions) {
  EXPECT_EQ(RunAStar(*task_, BoundKind::kSimple, false),
            "nodes=773 mappings=13934 objective=33.394402579997617 "
            "mapping=7,3,8,2,6,5,10,1,4,0,9");
}

TEST_F(BusSearchPinTest, SimpleReductions) {
  EXPECT_EQ(RunAStar(*task_, BoundKind::kSimple, true),
            "nodes=539 mappings=4735 objective=33.394402579997617 "
            "mapping=7,3,8,2,6,5,10,1,4,0,9");
}

TEST_F(BusSearchPinTest, TightNoReductions) {
  EXPECT_EQ(RunAStar(*task_, BoundKind::kTight, false),
            "nodes=474 mappings=8678 objective=33.394402579997617 "
            "mapping=7,3,8,2,6,5,10,1,4,0,9");
}

TEST_F(BusSearchPinTest, TightReductions) {
  EXPECT_EQ(RunAStar(*task_, BoundKind::kTight, true),
            "nodes=303 mappings=2757 objective=33.394402579997617 "
            "mapping=7,3,8,2,6,5,10,1,4,0,9");
}

TEST_F(BusSearchPinTest, BitmapTightNoReductions) {
  EXPECT_EQ(RunAStar(*task_, BoundKind::kBitmapTight, false),
            "nodes=210 mappings=3765 objective=33.394402579997617 "
            "mapping=7,3,8,2,6,5,10,1,4,0,9");
}

TEST_F(BusSearchPinTest, BitmapTightReductions) {
  EXPECT_EQ(RunAStar(*task_, BoundKind::kBitmapTight, true),
            "nodes=210 mappings=1884 objective=33.394402579997617 "
            "mapping=7,3,8,2,6,5,10,1,4,0,9");
}

TEST_F(BusSearchPinTest, TightPartialPenalty) {
  EXPECT_EQ(RunAStar(*task_, BoundKind::kTight, false, 0.4),
            "nodes=474 mappings=9151 objective=33.394402579997617 "
            "mapping=7,3,8,2,6,5,10,1,4,0,9");
}

TEST_F(BusSearchPinTest, ParallelObjective) {
  MatchingContext context(
      task_->log1, task_->log2,
      BuildPatternSet(DependencyGraph::Build(task_->log1),
                      task_->complex_patterns));
  exec::ParallelAStarOptions options;
  options.threads = 2;
  const Result<MatchResult> result =
      exec::ParallelAStarMatcher(options).Match(context);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->completed());
  EXPECT_EQ(Objective(result->objective), "33.394402579997617");
}

TEST(SearchPinTest, SecondBusSeedTight) {
  EXPECT_EQ(RunAStar(BusWithDecoys(3, 10), BoundKind::kTight, false),
            "nodes=132 mappings=2430 objective=34.181299697498034 "
            "mapping=9,1,10,6,7,5,4,0,8,2,3");
}

TEST(SearchPinTest, Fig12SyntheticTight) {
  EXPECT_EQ(RunAStar(Fig12Synthetic(), BoundKind::kTight, false),
            "nodes=399 mappings=2710 objective=42.979126254496826 "
            "mapping=0,6,3,2,5,8,4,7,9,1");
}

TEST(SearchPinTest, Fig12SyntheticBitmapTightReductions) {
  EXPECT_EQ(RunAStar(Fig12Synthetic(), BoundKind::kBitmapTight, true),
            "nodes=298 mappings=1992 objective=42.979126254496826 "
            "mapping=0,6,3,2,5,8,4,7,9,1");
}

}  // namespace
}  // namespace hematch
