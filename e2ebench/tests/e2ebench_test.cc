// Unit tests of the end-to-end benchmark's own helpers: percentiles and
// the ten-samples-beyond rule, seed determinism of schedules and pools,
// the metric tables against BENCHMARK.json, and the decoy-aware ground
// truth.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>

#include "eval/metrics.h"
#include "obs/trace_analysis.h"
#include "pools.h"
#include "report.h"
#include "stats.h"

namespace e2ebench {
namespace {

using hematch::Mapping;

std::vector<double> OneToN(int n) {
  std::vector<double> values;
  for (int i = n; i >= 1; --i) {
    values.push_back(i);
  }
  return values;
}

TEST(PercentileTest, InterpolatesBetweenRanks) {
  EXPECT_DOUBLE_EQ(Percentile(OneToN(100), 0.50), 50.5);
  EXPECT_DOUBLE_EQ(Percentile(OneToN(100), 0.95), 95.05);
  EXPECT_DOUBLE_EQ(Percentile(OneToN(100), 0.99), 99.01);
  EXPECT_DOUBLE_EQ(Percentile(OneToN(100), 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(OneToN(100), 1.0), 100.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 0.99), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
}

TEST(PercentileTest, SamplesBeyondCountsStrictlyAboveTheRank) {
  EXPECT_EQ(SamplesBeyond(100, 0.95), 5u);
  EXPECT_EQ(SamplesBeyond(200, 0.95), 10u);
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(0, 0.5), 0u);
  EXPECT_EQ(SamplesBeyond(1, 0.99), 0u);
}

TEST(PercentileTest, TenSamplesBeyondTakeAbout180ForP95And900ForP99) {
  EXPECT_GE(SamplesBeyond(182, 0.95), kMinSamplesBeyond);
  EXPECT_LT(SamplesBeyond(181, 0.95), kMinSamplesBeyond);
  EXPECT_GE(SamplesBeyond(902, 0.99), kMinSamplesBeyond);
  EXPECT_LT(SamplesBeyond(901, 0.99), kMinSamplesBeyond);
  // AddLatencyMetrics records whether each tail met the rule.
  MetricValues metrics;
  JsonObject properties;
  AddLatencyMetrics(OneToN(500), metrics, properties);
  const auto parsed = hematch::obs::ParseJson(properties.Render());
  ASSERT_TRUE(parsed.ok());
  const auto* tail = parsed->Find("latency_samples");
  ASSERT_NE(tail, nullptr);
  EXPECT_TRUE(tail->Find("p95_resolved")->boolean);
  EXPECT_EQ(tail->Find("beyond_p95")->number, 25.0);
  EXPECT_DOUBLE_EQ(metrics["latency_p50_ms"], 250.5);
  JsonObject few;
  AddLatencyMetrics(OneToN(100), metrics, few);
  const auto small = hematch::obs::ParseJson(few.Render());
  ASSERT_TRUE(small.ok());
  EXPECT_FALSE(small->Find("latency_samples")->Find("p95_resolved")->boolean);
}

TEST(ScheduleTest, PoissonScheduleIsDeterministicInTheSeed) {
  SeedStream a(42);
  SeedStream b(42);
  SeedStream c(43);
  const auto first = PoissonSchedule(200.0, 5.0, a);
  EXPECT_EQ(first, PoissonSchedule(200.0, 5.0, b));
  EXPECT_NE(first, PoissonSchedule(200.0, 5.0, c));
  ASSERT_FALSE(first.empty());
  EXPECT_TRUE(std::is_sorted(first.begin(), first.end()));
  EXPECT_LT(first.back(), 5000.0);
}

TEST(ScheduleTest, PoissonScheduleKeepsItsRate) {
  SeedStream stream(7);
  const auto due = PoissonSchedule(250.0, 100.0, stream);
  EXPECT_NEAR(static_cast<double>(due.size()) / 100.0, 250.0, 250.0 * 0.05);
}

TEST(ScheduleTest, ClassSequenceHoldsExactSharesPerBlock) {
  SeedStream a(3);
  SeedStream b(3);
  const std::vector<int> shares = {60, 30, 3, 7};
  const auto sequence = ClassSequence(shares, 1000, a);
  EXPECT_EQ(sequence, ClassSequence(shares, 1000, b));
  ASSERT_EQ(sequence.size(), 1000u);
  for (std::size_t block = 0; block < 10; ++block) {
    std::vector<int> counts(shares.size(), 0);
    for (std::size_t i = 0; i < static_cast<std::size_t>(kMixBlock); ++i) {
      ++counts[sequence[block * kMixBlock + i]];
    }
    for (std::size_t c = 0; c < shares.size(); ++c) {
      EXPECT_EQ(counts[c], shares[c]) << "block " << block << " class " << c;
    }
  }
  SeedStream d(3);
  EXPECT_THROW(ClassSequence({50, 40}, 10, d), std::invalid_argument);
}

// A small catalogue for the pool tests: 300-trace instances certify in
// milliseconds.
Catalogue SmallCatalogue() {
  Catalogue catalogue;
  catalogue.name = "small";
  catalogue.num_traces = 300;
  catalogue.num_decoys = 2;
  catalogue.min_mappings = 0;
  catalogue.max_mappings = 1;
  catalogue.strata = {{1, 2, 3, 4}, {5, 6, 7, 8}};
  return catalogue;
}

TEST(PoolTest, PickSeedsIsDeterministicInTheSeedAndStratified) {
  const Catalogue catalogue = SmallCatalogue();
  const auto a = PickSeeds(9, catalogue, 2);
  EXPECT_EQ(a, PickSeeds(9, catalogue, 2));
  ASSERT_EQ(a.size(), 4u);
  // Two distinct seeds from each stratum, stratum by stratum.
  EXPECT_NE(a[0], a[1]);
  EXPECT_NE(a[2], a[3]);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(a[i] <= 4, i < 2) << i << ": " << a[i];
  }
  // Some other seed draws another pool.
  bool differs = false;
  for (std::uint64_t seed = 10; seed < 20 && !differs; ++seed) {
    differs = PickSeeds(seed, catalogue, 2) != a;
  }
  EXPECT_TRUE(differs);
  // Asking for more than a stratum holds takes all of it.
  EXPECT_EQ(PickSeeds(9, catalogue, 10).size(), 8u);
}

TEST(PoolTest, CataloguePoolIsDeterministicInTheSeed) {
  const Catalogue catalogue = SmallCatalogue();
  std::string error;
  const auto a = MakeCataloguePool(5, catalogue, 1, &error);
  const auto b = MakeCataloguePool(5, catalogue, 1, &error);
  ASSERT_EQ(a.size(), 2u) << error;
  ASSERT_EQ(b.size(), 2u) << error;
  const auto seeds = PickSeeds(5, catalogue, 1);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, "bus-" + std::to_string(seeds[i]));
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].exact.objective, b[i].exact.objective);
    EXPECT_EQ(a[i].exact.mappings_processed, b[i].exact.mappings_processed);
    EXPECT_EQ(a[i].exact.pairs, b[i].exact.pairs);
    std::ostringstream la;
    std::ostringstream lb;
    for (const auto& trace : a[i].task.log2.traces()) {
      la << a[i].task.log2.TraceToString(trace) << "\n";
    }
    for (const auto& trace : b[i].task.log2.traces()) {
      lb << b[i].task.log2.TraceToString(trace) << "\n";
    }
    EXPECT_EQ(la.str(), lb.str());
  }
  // The band [0, 1) is only recorded: every member lies outside it.
  EXPECT_EQ(OutsideBand(a, catalogue), 2u);
}

TEST(PoolTest, FrozenCataloguesHoldDistinctSeedsInTheirStrata) {
  for (const Catalogue* catalogue :
       {&ExactCatalogue(), &ServeBusCatalogue(), &ServeDecoyCatalogue()}) {
    std::set<std::uint64_t> seen;
    ASSERT_FALSE(catalogue->strata.empty()) << catalogue->name;
    EXPECT_LT(catalogue->min_mappings, catalogue->max_mappings);
    for (const auto& stratum : catalogue->strata) {
      // Twice what a run takes, so seeds draw different pools.
      EXPECT_EQ(stratum.size(), catalogue->strata.front().size());
      EXPECT_GE(stratum.size(), 12u) << catalogue->name;
      for (const std::uint64_t seed : stratum) {
        EXPECT_TRUE(seen.insert(seed).second) << catalogue->name << seed;
      }
    }
  }
  EXPECT_EQ(ExactCatalogue().strata.size(), 4u);
}

TEST(MetricTest, NamesAreValidUniqueAndCarryUnits) {
  std::set<std::string> names;
  for (const auto* table : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricSpec& spec : *table) {
      EXPECT_TRUE(ValidMetricName(spec.name)) << spec.name;
      EXPECT_TRUE(ValidUnit(spec.unit)) << spec.name << " " << spec.unit;
      EXPECT_TRUE(names.insert(spec.name).second) << spec.name;
    }
  }
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("_leading"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_FALSE(ValidUnit(""));
  EXPECT_FALSE(ValidUnit("seconds per job"));
  EXPECT_TRUE(ValidUnit("1/s"));
}

TEST(MetricTest, TablesMatchBenchmarkJson) {
  std::ifstream file(E2EBENCH_BENCHMARK_JSON);
  ASSERT_TRUE(file) << E2EBENCH_BENCHMARK_JSON;
  std::stringstream text;
  text << file.rdbuf();
  const auto json = hematch::obs::ParseJson(text.str());
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  const auto check = [&](const char* key,
                         const std::vector<MetricSpec>& specs) {
    const auto* list = json->Find(key);
    ASSERT_NE(list, nullptr) << key;
    ASSERT_EQ(list->items.size(), specs.size()) << key;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(list->items[i].Find("name")->text, specs[i].name);
      EXPECT_EQ(list->items[i].Find("unit")->text, specs[i].unit);
    }
  };
  check("end_to_end", EndToEndMetrics());
  check("per_layer", PerLayerMetrics());
  EXPECT_EQ(EndToEndMetrics().front().name, "setup_s");
  EXPECT_EQ(EndToEndMetrics().front().unit, "s");
}

TEST(MetricTest, ResultLineRefusesAnUnmeasuredMetric) {
  const std::vector<MetricSpec> specs = {{"a_ms", "ms"}, {"b", "count"}};
  std::string error;
  EXPECT_TRUE(ResultLine(true, 1, 0, specs, {{"a_ms", 1.5}}, &error).empty());
  EXPECT_NE(error.find("b"), std::string::npos);
  const std::string line =
      ResultLine(true, 3, 0, specs, {{"a_ms", 1.5}, {"b", 2.0}}, &error);
  const auto parsed = hematch::obs::ParseJson(line);
  ASSERT_TRUE(parsed.ok()) << line;
  EXPECT_EQ(parsed->fields.size(), 4u);
  EXPECT_EQ(parsed->Find("metrics")->Find("a_ms")->Find("unit")->text, "ms");
  EXPECT_EQ(parsed->Find("attempted")->number, 3.0);
}

TEST(GroundTruthTest, WideningLeavesDecoysUnmatched) {
  Mapping truth(3, 3);
  truth.Set(0, 2);
  truth.Set(1, 0);
  truth.Set(2, 1);
  const Mapping wide = WidenTruth(truth, 5);
  EXPECT_EQ(wide.num_sources(), 3u);
  EXPECT_EQ(wide.num_targets(), 5u);
  EXPECT_EQ(wide.TargetOf(0), 2u);
  EXPECT_EQ(wide.TargetOf(1), 0u);
  EXPECT_FALSE(wide.IsTargetUsed(3));
  EXPECT_FALSE(wide.IsTargetUsed(4));

  // A mapping into the whole target vocabulary scores against it...
  Mapping found(3, 5);
  found.Set(0, 2);
  found.Set(1, 0);
  found.Set(2, 1);
  EXPECT_DOUBLE_EQ(hematch::EvaluateMapping(found, wide).f_measure, 1.0);
  // ...and a source mapped onto a decoy counts as wrong.
  found.Erase(2);
  found.Set(2, 4);
  EXPECT_NEAR(hematch::EvaluateMapping(found, wide).f_measure, 2.0 / 3.0,
              1e-12);
}

TEST(GroundTruthTest, DecoyInstanceTruthSpansLog2) {
  const Instance instance = MakeBusInstance(3, 200, 4);
  EXPECT_EQ(instance.truth.num_targets(), instance.task.log2.num_events());
  EXPECT_EQ(instance.task.log2.num_events(),
            instance.task.log1.num_events() + 4);
  for (std::size_t d = 0; d < 4; ++d) {
    const auto id = instance.task.log2.dictionary().Lookup(
        "decoy" + std::to_string(d));
    ASSERT_TRUE(id.ok());
    EXPECT_FALSE(instance.truth.IsTargetUsed(*id));
  }
}

TEST(GroundTruthTest, TranslateTruthFollowsNamesAcrossIdOrders) {
  hematch::EventLog a1;
  a1.AddTraceByNames({"x", "y"});
  hematch::EventLog a2;
  a2.AddTraceByNames({"p", "q"});
  hematch::EventLog b1;
  b1.AddTraceByNames({"y", "x"});
  hematch::EventLog b2;
  b2.AddTraceByNames({"q", "p"});
  Mapping truth(2, 2);
  truth.Set(0, 0);  // x -> p
  truth.Set(1, 1);  // y -> q
  const Mapping moved = TranslateTruth(truth, a1, a2, b1, b2);
  EXPECT_EQ(moved.TargetOf(1), 1u);  // x -> p in b's ids.
  EXPECT_EQ(moved.TargetOf(0), 0u);  // y -> q in b's ids.
}

}  // namespace
}  // namespace e2ebench
