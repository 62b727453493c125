// Tests of the benchmark's own helpers: percentile rules, span self time and the seeded
// request generators.
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dfpbench/host_cpu.h"
#include "dfpbench/stats.h"
#include "dfpbench/trace.h"
#include "dfpbench/workloads.h"

namespace dfpbench {
namespace {

TEST(Stats, HighestPercentileNeedsTenSamplesBeyond) {
  EXPECT_EQ(HighestReportablePercentile(19), 0);
  EXPECT_EQ(HighestReportablePercentile(20), 50);
  EXPECT_EQ(HighestReportablePercentile(99), 50);
  EXPECT_EQ(HighestReportablePercentile(100), 90);
  EXPECT_EQ(HighestReportablePercentile(999), 90);
  EXPECT_EQ(HighestReportablePercentile(1000), 99);
  EXPECT_EQ(HighestReportablePercentile(10000), 99.9);
  EXPECT_EQ(SamplesBeyond(100, 90), 10u);
  EXPECT_EQ(SamplesBeyond(99, 90), 9u);
}

TEST(Stats, NearestRankPercentile) {
  EXPECT_EQ(Percentile({}, 50), 0);
  EXPECT_EQ(Percentile({7}, 90), 7);
  EXPECT_EQ(Percentile({4, 1, 3, 2}, 50), 2);
  EXPECT_EQ(Percentile({4, 1, 3, 2}, 100), 4);
  EXPECT_EQ(Percentile({4, 1, 3, 2}, 0), 1);
}

// Five equally weighted classes with distinct costs: p50 and p90 must fall strictly inside the
// third and fifth class, with requests of the same class on both sides of the rank.
TEST(Stats, PercentilesLandMidClassForFiveEqualClasses) {
  for (size_t per_class : {20u, 21u, 37u, 200u}) {
    std::vector<double> values;
    for (size_t cls = 0; cls < kClasses; ++cls) {
      for (size_t i = 0; i < per_class; ++i) {
        // Class c costs about 100*(c+1) with a small spread inside the class.
        values.push_back(100.0 * static_cast<double>(cls + 1) + static_cast<double>(i) / 1000);
      }
    }
    const size_t n = values.size();
    for (auto [p, cls] : {std::pair<double, size_t>{50, 2}, {90, 4}}) {
      const size_t rank = PercentileRank(n, p);
      EXPECT_GT(rank, cls * per_class + 1) << "p" << p << " at class start, n=" << n;
      EXPECT_LT(rank, (cls + 1) * per_class) << "p" << p << " at class end, n=" << n;
      const double value = Percentile(values, p);
      EXPECT_GT(value, 100.0 * static_cast<double>(cls + 1));
      EXPECT_LT(value, 100.0 * static_cast<double>(cls + 2));
    }
  }
}

Span MakeSpan(const char* name, int64_t start, int64_t end, int32_t parent) {
  return {name, start, end, parent, 1};
}

TEST(Trace, SelfTimeSubtractsNestedAndSiblingChildren) {
  // request [0,100) with siblings submit [10,20) and drain [30,80); drain has a nested child
  // resolve [40,60) and report [85,95) is a third sibling.
  const std::vector<Span> spans = {
      MakeSpan("request", 0, 100, kNoParent), MakeSpan("submit", 10, 20, 0),
      MakeSpan("drain", 30, 80, 0),           MakeSpan("resolve", 40, 60, 2),
      MakeSpan("report", 85, 95, 0),
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100 - 10 - 50 - 10);
  EXPECT_EQ(self[1], 10);
  EXPECT_EQ(self[2], 50 - 20);
  EXPECT_EQ(self[3], 20);
  EXPECT_EQ(self[4], 10);
}

TEST(Trace, OverlappingChildrenCountOnce) {
  const std::vector<Span> spans = {
      MakeSpan("outer", 0, 100, kNoParent), MakeSpan("a", 10, 50, 0), MakeSpan("a", 40, 70, 0),
      MakeSpan("b", 90, 120, 0),  // Runs past its parent: only [90,100) is covered.
  };
  EXPECT_EQ(SelfTimesNs(spans)[0], 100 - 60 - 10);
  const std::map<std::string, int64_t> by_name = SelfTimeByName(spans);
  EXPECT_EQ(by_name.at("a"), 40 + 30);
}

TEST(Trace, SelfTimeByNameKeepsOnlyTheRootsSubtrees) {
  // A "prepare" tree outside the request must not count towards the request's layers.
  const std::vector<Span> spans = {
      MakeSpan("prepare", 0, 10, kNoParent), MakeSpan("parse", 2, 6, 0),
      MakeSpan("request", 10, 50, kNoParent), MakeSpan("submit", 12, 20, 2),
      MakeSpan("parse", 20, 30, 2),           MakeSpan("bind", 22, 24, 4),
  };
  const std::map<std::string, int64_t> in_request = SelfTimeByName(spans, "request");
  EXPECT_EQ(in_request.count("prepare"), 0u);
  EXPECT_EQ(in_request.at("parse"), 10 - 2);
  EXPECT_EQ(in_request.at("bind"), 2);
  EXPECT_EQ(in_request.at("request"), 40 - 8 - 10);
  EXPECT_EQ(SelfTimeByName(spans).at("parse"), 4 + 8);
}

TEST(Trace, RecorderNestsScopesAndDisabledRecordsNothing) {
  SpanRecorder rec(true);
  rec.BeginRequest();
  {
    SpanRecorder::Scope outer(&rec, "request");
    SpanRecorder::Scope inner(&rec, "drain");
  }
  { SpanRecorder::Scope sibling(&rec, "report"); }
  ASSERT_EQ(rec.spans().size(), 3u);
  EXPECT_EQ(rec.spans()[0].parent, kNoParent);
  EXPECT_EQ(rec.spans()[1].parent, 0);
  EXPECT_EQ(rec.spans()[2].parent, kNoParent);
  EXPECT_EQ(rec.spans()[1].request, 1u);
  EXPECT_LE(rec.spans()[1].end_ns, rec.spans()[0].end_ns);

  SpanRecorder off(false);
  { SpanRecorder::Scope span(&off, "request"); }
  EXPECT_TRUE(off.spans().empty());
}

std::vector<std::string> StreamKeys(WorkloadKind kind, uint64_t seed, size_t rounds) {
  RequestStream stream(kind, seed);
  std::vector<std::string> keys;
  for (size_t r = 0; r < rounds; ++r) {
    for (const Request& request : stream.NextRound()) {
      keys.push_back(std::to_string(request.cls));
      for (const QueryDraw& draw : request.queries) {
        keys.push_back(draw.Key());
      }
    }
  }
  return keys;
}

TEST(Workloads, StreamsAreAFunctionOfTheSeed) {
  for (WorkloadKind kind :
       {WorkloadKind::kOlapWarm, WorkloadKind::kAdhocCold, WorkloadKind::kServiceMix}) {
    EXPECT_EQ(StreamKeys(kind, 7, 30), StreamKeys(kind, 7, 30)) << WorkloadName(kind);
    EXPECT_NE(StreamKeys(kind, 7, 30), StreamKeys(kind, 8, 30)) << WorkloadName(kind);
  }
  // olap_warm draws one literal set per seed; across seeds the sets differ.
  std::set<std::string> q6_literals;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    q6_literals.insert(OlapWarmClasses(seed)[0].Key());
  }
  EXPECT_GT(q6_literals.size(), 1u);
}

TEST(Workloads, EveryRoundHoldsEachClassOnce) {
  for (WorkloadKind kind : {WorkloadKind::kOlapWarm, WorkloadKind::kAdhocCold}) {
    RequestStream stream(kind, 3);
    std::set<std::vector<size_t>> orders;
    for (int round = 0; round < 50; ++round) {
      std::vector<size_t> order;
      std::map<size_t, int> count;
      for (const Request& request : stream.NextRound()) {
        ++count[request.cls];
        order.push_back(request.cls);
      }
      ASSERT_EQ(count.size(), kClasses) << WorkloadName(kind);
      for (const auto& [cls, n] : count) {
        EXPECT_EQ(n, 1) << WorkloadName(kind) << " class " << cls;
      }
      orders.insert(order);
    }
    EXPECT_GT(orders.size(), 10u) << "round order is not shuffled";
  }
  RequestStream mix(WorkloadKind::kServiceMix, 3);
  for (const Request& request : mix.NextRound()) {
    ASSERT_EQ(request.queries.size(), 4u);
    EXPECT_EQ(request.queries[0].family, "q6");
    EXPECT_EQ(request.queries[3].family, "q3");
  }
}

TEST(Workloads, OlapWarmRepeatsOneLiteralSetPerClass) {
  RequestStream stream(WorkloadKind::kOlapWarm, 11);
  std::map<size_t, std::set<std::string>> keys;
  for (int round = 0; round < 20; ++round) {
    for (const Request& request : stream.NextRound()) {
      keys[request.cls].insert(request.queries[0].Key());
    }
  }
  for (const auto& [cls, distinct] : keys) {
    EXPECT_EQ(distinct.size(), 1u) << "class " << cls;
  }
}

TEST(Workloads, AdhocColdRarelyRepeatsAQuery) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    RequestStream stream(WorkloadKind::kAdhocCold, seed);
    std::set<std::string> seen;
    size_t total = 0;
    for (int round = 0; round < 1000; ++round) {
      for (const Request& request : stream.NextRound()) {
        seen.insert(request.queries[0].Key());
        ++total;
      }
    }
    const double repeat_rate = 1.0 - static_cast<double>(seen.size()) / static_cast<double>(total);
    EXPECT_LT(repeat_rate, 0.01) << "seed " << seed;
  }
}

// The quietest CPU is the one with the lowest median calibration time: one slow pass on an
// otherwise fast CPU does not disqualify it, and ties go to the lower CPU number.
TEST(HostCpu, QuietestCpuComparesMedians) {
  EXPECT_EQ(QuietestCpu({}), -1);
  EXPECT_EQ(QuietestCpu({{3, {20.0}}}), 3);
  EXPECT_EQ(QuietestCpu({{0, {21.0, 22.0, 21.5}}, {1, {35.0, 34.0, 36.0}},
                         {2, {20.0, 60.0, 20.5}}, {3, {19.0, 30.0, 31.0}}}),
            2);
  EXPECT_EQ(QuietestCpu({{1, {20.0, 20.0, 20.0}}, {4, {20.0, 20.0, 20.0}}}), 1);
}

}  // namespace
}  // namespace dfpbench
