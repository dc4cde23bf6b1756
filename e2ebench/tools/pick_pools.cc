// Chooses the benchmark's frozen pools and prints them as
// src/catalogue.cc.
//
//   e2ebench_pick_pools > e2ebench/src/catalogue.cc
//
// For each pool it scans bus generator seeds 1, 2, ..., certifies each
// instance's exact search, and keeps a seed when the search processed a
// number of mappings inside the pool's work band and the seed's stratum
// of the band is not yet full. The benchmark itself never filters by
// work: it draws from the printed tables, so a later change to the
// search leaves every seed's inputs as they are. Re-run this only to
// re-define the pools, which redefines the benchmark.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "pools.h"

namespace {

using e2ebench::Answer;
using e2ebench::Instance;

struct Spec {
  const char* function;
  const char* name;
  std::size_t num_traces;
  std::size_t num_decoys;
  std::uint64_t min_mappings;
  std::uint64_t max_mappings;
  std::size_t strata;
  std::size_t per_stratum;
};

// Each pool's table holds twice the members a run takes from it, so
// seeds draw different pools.
const Spec kSpecs[] = {
    {"ExactCatalogue", "batch_exact", 3000, 10, 2500, 4500, 4, 12},
    {"ServeBusCatalogue", "serve_bus", 3000, 0, 150, 260, 1, 24},
    {"ServeDecoyCatalogue", "serve_decoy", 3000, 10, 3000, 5000, 1, 12},
};

constexpr std::uint64_t kMaxGeneratorSeed = 2000;

// Certified work of generator seed `g` at (traces, decoys), memoized:
// two pools share the instances with decoys.
std::uint64_t WorkOf(std::uint64_t g, std::size_t traces, std::size_t decoys) {
  static std::map<std::pair<std::uint64_t, std::size_t>, std::uint64_t> memo;
  const auto key = std::make_pair(g, traces * 1000 + decoys);
  if (const auto it = memo.find(key); it != memo.end()) {
    return it->second;
  }
  const Instance instance = e2ebench::MakeBusInstance(g, traces, decoys);
  const std::optional<Answer> answer =
      e2ebench::Certify(instance, hematch::MatchMethod::kPatternTight);
  // An uncertified instance can never join a pool.
  const std::uint64_t work = answer ? answer->mappings_processed : UINT64_MAX;
  memo.emplace(key, work);
  return work;
}

std::vector<std::vector<std::uint64_t>> Pick(const Spec& spec) {
  std::vector<std::vector<std::uint64_t>> strata(spec.strata);
  const double width =
      static_cast<double>(spec.max_mappings - spec.min_mappings) /
      static_cast<double>(spec.strata);
  std::size_t full = 0;
  for (std::uint64_t g = 1; g <= kMaxGeneratorSeed && full < spec.strata;
       ++g) {
    const std::uint64_t work = WorkOf(g, spec.num_traces, spec.num_decoys);
    if (work < spec.min_mappings || work >= spec.max_mappings) {
      continue;
    }
    auto& stratum = strata[std::min<std::size_t>(
        spec.strata - 1,
        static_cast<std::size_t>(
            static_cast<double>(work - spec.min_mappings) / width))];
    if (stratum.size() < spec.per_stratum) {
      stratum.push_back(g);
      full += stratum.size() == spec.per_stratum ? 1 : 0;
    }
  }
  if (full < spec.strata) {
    std::cerr << spec.name << ": band not filled by seeds 1-"
              << kMaxGeneratorSeed << "\n";
    std::exit(1);
  }
  return strata;
}

}  // namespace

int main() {
  std::cout << "// The benchmark's frozen pools, printed by "
               "tools/pick_pools.cc (see there).\n\n"
               "#include \"pools.h\"\n\nnamespace e2ebench {\n";
  for (const Spec& spec : kSpecs) {
    std::cout << "\nconst Catalogue& " << spec.function << "() {\n"
              << "  static const Catalogue kCatalogue{\n"
              << "      \"" << spec.name << "\", " << spec.num_traces << ", "
              << spec.num_decoys << ", " << spec.min_mappings << ", "
              << spec.max_mappings << ",\n      {\n";
    for (const auto& stratum : Pick(spec)) {
      std::string line = "          {";
      for (std::size_t i = 0; i < stratum.size(); ++i) {
        const std::string item = std::to_string(stratum[i]) +
                                 (i + 1 < stratum.size() ? "," : "},");
        if (line.size() + 1 + item.size() > 80) {
          std::cout << line << "\n";
          line = "          ";
        }
        line += (i > 0 ? " " : "") + item;
      }
      std::cout << line << "\n";
    }
    std::cout << "      }};\n  return kCatalogue;\n}\n";
  }
  std::cout << "\n}  // namespace e2ebench\n";
  return 0;
}
