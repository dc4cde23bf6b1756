#include "pools.h"

#include <algorithm>
#include <cmath>

#include "eval/metrics.h"
#include "gen/bus_process.h"
#include "gen/synthetic_process.h"
#include "stats.h"

namespace e2ebench {

using hematch::EventId;
using hematch::EventLog;
using hematch::Mapping;

Mapping WidenTruth(const Mapping& truth, std::size_t num_targets) {
  Mapping wide(truth.num_sources(), num_targets);
  for (EventId s = 0; s < truth.num_sources(); ++s) {
    if (truth.IsSourceMapped(s)) {
      wide.Set(s, truth.TargetOf(s));
    }
  }
  return wide;
}

void AddDecoys(EventLog& log2, std::size_t num_decoys) {
  for (std::size_t d = 0; d < num_decoys; ++d) {
    const std::string decoy = "decoy" + std::to_string(d);
    for (int i = 0; i < kDecoyTraces; ++i) {
      log2.AddTraceByNames({decoy});
    }
  }
}

Mapping TranslateTruth(const Mapping& truth, const EventLog& from1,
                       const EventLog& from2, const EventLog& to1,
                       const EventLog& to2) {
  Mapping out(to1.num_events(), to2.num_events());
  for (EventId s = 0; s < truth.num_sources(); ++s) {
    if (!truth.IsSourceMapped(s)) {
      continue;
    }
    const auto source = to1.dictionary().Lookup(from1.dictionary().Name(s));
    const auto target =
        to2.dictionary().Lookup(from2.dictionary().Name(truth.TargetOf(s)));
    if (source.ok() && target.ok()) {
      out.Set(*source, *target);
    }
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> MappingPairs(
    const Mapping& mapping, const EventLog& log1, const EventLog& log2) {
  std::vector<std::pair<std::string, std::string>> pairs;
  for (EventId s = 0; s < mapping.num_sources(); ++s) {
    if (mapping.IsSourceMapped(s)) {
      pairs.emplace_back(log1.dictionary().Name(s),
                         log2.dictionary().Name(mapping.TargetOf(s)));
    }
  }
  return pairs;
}

bool SameObjective(double got, double want) {
  return std::abs(got - want) <= 1e-9 * std::max(1.0, std::abs(want));
}

hematch::MatchPipelineOptions PipelineOptions(const Instance& instance,
                                              hematch::MatchMethod method) {
  hematch::MatchPipelineOptions options;
  options.method = method;
  options.patterns = instance.patterns;
  options.max_expansions = kMaxExpansions;
  options.budget.max_expansions = kMaxExpansions;
  return options;
}

namespace {

Instance FromTask(std::string name, hematch::MatchingTask task,
                  std::size_t num_decoys) {
  Instance instance;
  instance.name = std::move(name);
  AddDecoys(task.log2, num_decoys);
  for (const hematch::Pattern& p : task.complex_patterns) {
    instance.patterns.push_back(p.ToString(&task.log1.dictionary()));
  }
  instance.truth = WidenTruth(task.ground_truth, task.log2.num_events());
  instance.task = std::move(task);
  return instance;
}

}  // namespace

Instance MakeBusInstance(std::uint64_t seed, std::size_t num_traces,
                         std::size_t num_decoys) {
  hematch::BusProcessOptions options;
  options.num_traces = num_traces;
  options.seed = seed;
  return FromTask("bus-" + std::to_string(seed),
                  hematch::MakeBusManufacturerTask(options), num_decoys);
}

Instance MakeSyntheticInstance(std::uint64_t seed, std::size_t num_traces) {
  hematch::SyntheticProcessOptions options;
  options.num_units = 2;
  options.num_traces = num_traces;
  options.seed = seed;
  return FromTask("synthetic-" + std::to_string(seed),
                  hematch::MakeSyntheticTask(options), 0);
}

std::optional<Answer> Certify(const Instance& instance,
                              hematch::MatchMethod method) {
  const auto outcome =
      hematch::MatchLogs(instance.task.log1, instance.task.log2,
                         PipelineOptions(instance, method));
  if (!outcome.ok() || outcome->swapped || !outcome->result.completed() ||
      outcome->result.degraded()) {
    return std::nullopt;
  }
  const hematch::MatchResult& result = outcome->result;
  const bool exact = method == hematch::MatchMethod::kPatternTight;
  if (exact && (!result.bounds_certified ||
                result.lower_bound != result.upper_bound)) {
    return std::nullopt;
  }
  Answer answer;
  answer.objective = result.objective;
  answer.mappings_processed = result.mappings_processed;
  answer.nodes_visited = result.nodes_visited;
  answer.f_measure =
      hematch::EvaluateMapping(result.mapping, instance.truth).f_measure;
  answer.pairs =
      MappingPairs(result.mapping, instance.task.log1, instance.task.log2);
  return answer;
}

std::vector<std::uint64_t> PickSeeds(std::uint64_t seed,
                                     const Catalogue& catalogue,
                                     std::size_t per_stratum) {
  SeedStream stream(seed ^ 0x636174616C6F67ULL);
  std::vector<std::uint64_t> picked;
  for (std::vector<std::uint64_t> stratum : catalogue.strata) {
    // A partial Fisher-Yates shuffle: the first `take` entries.
    const std::size_t take = std::min(per_stratum, stratum.size());
    for (std::size_t i = 0; i < take; ++i) {
      std::swap(stratum[i],
                stratum[i + stream.NextBelow(stratum.size() - i)]);
    }
    picked.insert(picked.end(), stratum.begin(),
                  stratum.begin() + static_cast<std::ptrdiff_t>(take));
  }
  return picked;
}

std::vector<Instance> MakeCataloguePool(std::uint64_t seed,
                                        const Catalogue& catalogue,
                                        std::size_t per_stratum,
                                        std::string* error) {
  std::vector<Instance> pool;
  for (const std::uint64_t generator :
       PickSeeds(seed, catalogue, per_stratum)) {
    Instance instance = MakeBusInstance(generator, catalogue.num_traces,
                                        catalogue.num_decoys);
    std::optional<Answer> answer =
        Certify(instance, hematch::MatchMethod::kPatternTight);
    if (!answer) {
      *error = std::string(catalogue.name) + " " + instance.name +
               ": warm pass did not certify";
      return {};
    }
    instance.exact = std::move(*answer);
    pool.push_back(std::move(instance));
  }
  return pool;
}

std::size_t OutsideBand(const std::vector<Instance>& pool,
                        const Catalogue& catalogue) {
  return static_cast<std::size_t>(
      std::count_if(pool.begin(), pool.end(), [&](const Instance& i) {
        return i.exact.mappings_processed < catalogue.min_mappings ||
               i.exact.mappings_processed >= catalogue.max_mappings;
      }));
}

}  // namespace e2ebench
