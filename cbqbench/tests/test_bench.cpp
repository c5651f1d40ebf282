// Tests of the benchmark's own machinery: the seeded workload draw, the
// tail percentile rule, metric names, and the span fold.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "span_fold.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace cbqbench {
namespace {

std::string listText(const Workload& w, std::uint64_t seed) {
  std::string text;
  for (const Problem& p : drawInstances(w, seed)) text += p.label() + '\n';
  return text;
}

TEST(Draw, SameSeedGivesIdenticalList) {
  for (const Workload& w : workloads()) {
    EXPECT_EQ(listText(w, 7), listText(w, 7)) << w.name;
    EXPECT_FALSE(listText(w, 7).empty()) << w.name;
  }
}

TEST(Draw, OtherSeedGivesOtherListFromSamePool) {
  for (const Workload& w : workloads()) {
    std::set<std::string> pool;
    for (const Stratum& s : w.strata)
      for (const Problem& p : s.pool) pool.insert(p.label());
    EXPECT_NE(listText(w, 1), listText(w, 2)) << w.name;
    for (const std::uint64_t seed : {1, 2, 3}) {
      const auto list = drawInstances(w, seed);
      std::size_t expected = 0;
      for (const Stratum& s : w.strata)
        expected += static_cast<std::size_t>(s.draws);
      EXPECT_EQ(list.size(), expected) << w.name;
      for (const Problem& p : list)
        EXPECT_TRUE(pool.count(p.label())) << w.name << " " << p.label();
    }
  }
}

TEST(Draw, EveryStratumKeepsItsShare) {
  const Workload* w = findWorkload("deep-seq");
  ASSERT_NE(w, nullptr);
  for (const std::uint64_t seed : {11, 12, 13}) {
    const auto list = drawInstances(*w, seed);
    for (const Stratum& s : w->strata) {
      std::set<std::string> members;
      for (const Problem& p : s.pool) members.insert(p.label());
      int n = 0;
      for (const Problem& p : list) n += members.count(p.label()) ? 1 : 0;
      EXPECT_EQ(n, s.draws);
    }
  }
}

TEST(Tail, OmittedWithFewerThanTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 99; ++i) v.push_back(i);
  EXPECT_FALSE(tailPercentile(v).has_value());  // p90 leaves 9 beyond
  v.push_back(100);
  const auto t = tailPercentile(v);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->percentile, 90.0);
  EXPECT_EQ(t->beyond, 10u);
  EXPECT_EQ(t->value, 90.0);
}

TEST(Tail, PicksHighestPercentileWithTenBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const auto t = tailPercentile(v);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->percentile, 99.0);
  EXPECT_EQ(t->beyond, 10u);
  EXPECT_EQ(t->value, 990.0);
}

TEST(Stats, MeanMedianAndGeomean) {
  EXPECT_EQ(mean({1, 2, 6}), 3.0);
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 2, 3}), 2.5);
  EXPECT_NEAR(geomean({1, 100}), 10.0, 1e-12);
}

TEST(Names, MetricNamesAreWellFormed) {
  EXPECT_TRUE(validMetricName("portfolio.engine_s.cbq-reach"));
  EXPECT_TRUE(validMetricName("wall_s"));
  EXPECT_FALSE(validMetricName(""));
  EXPECT_FALSE(validMetricName(".hidden"));
  EXPECT_FALSE(validMetricName("a b"));
  EXPECT_FALSE(validMetricName("ms/step"));
  EXPECT_FALSE(validMetricName(std::string(65, 'a')));
}

SpanEvent span(const char* cat, const char* name, std::int64_t s,
               std::int64_t e) {
  return SpanEvent{1, s, e, cat, name};
}

TEST(Fold, SelfPhaseAndUnattributedTimes) {
  // resume [0,100): pre-image [10,50) holding a sat solve [20,30);
  // fixpoint [50,90) holding a compaction [60,70) holding a solve [61,62).
  SpanFold fold;
  foldThread({span("engine", "fixpoint", 50, 90),
              span("sat", "solve", 20, 30),
              span("bench", "resume", 0, 100),
              span("engine", "compact", 60, 70),
              span("engine", "pre-image", 10, 50),
              span("sat", "solve", 61, 62)},
             fold);
  EXPECT_EQ(fold.at("engine/pre-image").selfNs, 30);
  EXPECT_EQ(fold.at("engine/pre-image").phaseNs, 40);
  EXPECT_EQ(fold.at("engine/fixpoint").selfNs, 30);
  EXPECT_EQ(fold.at("engine/fixpoint").phaseNs, 30);
  EXPECT_EQ(fold.at("engine/compact").phaseNs, 10);
  EXPECT_EQ(fold.at("sat/solve").count, 2u);
  EXPECT_EQ(fold.at("sat/solve").selfNs, 11);
  EXPECT_EQ(fold.containerNs, 100);
  EXPECT_EQ(fold.unattributedNs, 20);
  // Phases plus unattributed time account for the whole container.
  EXPECT_EQ(fold.at("engine/pre-image").phaseNs +
                fold.at("engine/fixpoint").phaseNs +
                fold.at("engine/compact").phaseNs + fold.unattributedNs,
            fold.containerNs);
}

TEST(Fold, ParsesChromeTraceLines) {
  SpanFolder folder;
  folder << "{\"traceEvents\": [\n"
         << "{\"ph\": \"M\", \"pid\": 1, \"tid\": 1, \"name\": "
            "\"thread_name\", \"args\": {\"name\": \"main\"}},\n"
         << "{\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": 1000.000, "
            "\"dur\": 5.500, \"cat\": \"bench\", \"name\": \"resume\"},\n"
         << "{\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": 1001.250, "
            "\"dur\": 2.000, \"cat\": \"engine\", \"name\": \"pre-image\"}\n"
         << "], \"displayTimeUnit\": \"ms\"}\n";
  const SpanFold fold = folder.finish();
  EXPECT_EQ(fold.spans, 2u);
  EXPECT_EQ(fold.containerNs, 5500);
  EXPECT_EQ(fold.unattributedNs, 3500);
  EXPECT_EQ(fold.at("engine/pre-image").phaseNs, 2000);
}

}  // namespace
}  // namespace cbqbench
