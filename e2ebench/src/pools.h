#ifndef E2EBENCH_POOLS_H_
#define E2EBENCH_POOLS_H_

/// \file
/// The seeded instance pools every workload draws its jobs from, and the
/// facts the untimed warm pass certifies about each instance (objective,
/// mapping, work done), which the timed jobs are then checked against.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/match_pipeline.h"
#include "core/mapping.h"
#include "gen/matching_task.h"
#include "log/event_log.h"

namespace e2ebench {

/// Every count-based budget of the benchmark. No job comes near it (the
/// pools were chosen by work done), and no wall-clock deadline is set, so
/// every answer is the same on every run of a seed.
inline constexpr std::uint64_t kMaxExpansions = 2'000'000;

/// Labels and singleton traces added to `log2` per decoy: junk target
/// vocabulary with identical occurrence profiles, as in bench_search.
inline constexpr int kDecoyTraces = 50;

/// What a warm pass certified about one (instance, method) pair; every
/// timed answer for the pair is checked against it.
struct Answer {
  double objective = 0.0;
  std::uint64_t mappings_processed = 0;
  std::uint64_t nodes_visited = 0;
  double f_measure = 0.0;
  /// The mapping as (log1 name, log2 name) pairs.
  std::vector<std::pair<std::string, std::string>> pairs;
};

/// One matching problem.
struct Instance {
  std::string name;
  hematch::MatchingTask task;
  /// `task.complex_patterns` as text over log1's dictionary.
  std::vector<std::string> patterns;
  /// Ground truth over log1 x log2's whole vocabulary (decoys unmatched).
  hematch::Mapping truth{0, 0};
  /// The default (exact) method's certified answer, for pool members.
  Answer exact;
};

/// Widens a ground truth over a prefix of the target vocabulary to
/// `num_targets` targets, leaving the added (decoy) targets unmatched, so
/// it can be scored against mappings into the whole of `log2`.
hematch::Mapping WidenTruth(const hematch::Mapping& truth,
                            std::size_t num_targets);

/// Appends `num_decoys` decoy labels to `log2` (see kDecoyTraces).
void AddDecoys(hematch::EventLog& log2, std::size_t num_decoys);

/// `truth` re-expressed over two logs that hold the same event names in
/// another id order (a log parsed back from a file interns names in the
/// order it meets them).
hematch::Mapping TranslateTruth(const hematch::Mapping& truth,
                                const hematch::EventLog& from1,
                                const hematch::EventLog& from2,
                                const hematch::EventLog& to1,
                                const hematch::EventLog& to2);

/// The mapping as (log1 name, log2 name) pairs, in log1 id order.
std::vector<std::pair<std::string, std::string>> MappingPairs(
    const hematch::Mapping& mapping, const hematch::EventLog& log1,
    const hematch::EventLog& log2);

/// Objectives agree up to floating-point noise in the last digits.
bool SameObjective(double got, double want);

/// Facade options for `method` on `instance`: its patterns and the
/// benchmark's expansion budget.
hematch::MatchPipelineOptions PipelineOptions(const Instance& instance,
                                              hematch::MatchMethod method);

/// A bus-manufacturer instance (the paper's Section 6 workflow) with
/// `num_decoys` decoys; not yet certified.
Instance MakeBusInstance(std::uint64_t seed, std::size_t num_traces,
                         std::size_t num_decoys);

/// A 20-event repeated-structure synthetic instance (Fig. 11); not yet
/// certified.
Instance MakeSyntheticInstance(std::uint64_t seed, std::size_t num_traces);

/// Runs `method` through `MatchLogs` on `instance` as a warm pass.
/// Returns nothing when the run failed, degraded, did not complete, or
/// (for the exact method) did not certify lower == upper.
std::optional<Answer> Certify(const Instance& instance,
                              hematch::MatchMethod method);

/// A pool frozen when the benchmark was defined: bus generator seeds,
/// grouped by the work stratum their certified exact search fell in at
/// the time (`tools/pick_pools.cc` chose them). A run draws its members
/// from the table by its own seed and never filters by work, so a change
/// to the search cannot change which instances a seed runs.
struct Catalogue {
  const char* name = "";
  std::size_t num_traces = 0;
  std::size_t num_decoys = 0;
  /// The work band [min_mappings, max_mappings) the seeds were chosen
  /// in, split into `strata.size()` equal strata. Runs only record how
  /// many members now fall outside it.
  std::uint64_t min_mappings = 0;
  std::uint64_t max_mappings = 0;
  std::vector<std::vector<std::uint64_t>> strata;
};

/// batch_exact's pool: 3000 traces, 10 decoys, 2500-4500 mappings in
/// four strata.
const Catalogue& ExactCatalogue();
/// The serve probe's cheap exact pool: 3000 traces, 150-260 mappings.
const Catalogue& ServeBusCatalogue();
/// The serve probe's heavy exact pool: 3000 traces, 10 decoys,
/// 3000-5000 mappings.
const Catalogue& ServeDecoyCatalogue();

/// `per_stratum` distinct generator seeds from each stratum of
/// `catalogue`, drawn by `seed`, stratum by stratum.
std::vector<std::uint64_t> PickSeeds(std::uint64_t seed,
                                     const Catalogue& catalogue,
                                     std::size_t per_stratum);

/// The instances of `PickSeeds`, each certified by a warm pass of the
/// exact method. Returns an empty pool, and says why in `error`, when a
/// member does not certify.
std::vector<Instance> MakeCataloguePool(std::uint64_t seed,
                                        const Catalogue& catalogue,
                                        std::size_t per_stratum,
                                        std::string* error);

/// How many of `pool`'s certified searches processed a number of
/// mappings outside `catalogue`'s band.
std::size_t OutsideBand(const std::vector<Instance>& pool,
                        const Catalogue& catalogue);

}  // namespace e2ebench

#endif  // E2EBENCH_POOLS_H_
