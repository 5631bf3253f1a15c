#include "workload/generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "net/gtitm.h"

namespace iflow::workload {
namespace {

net::Network small_net(std::uint64_t seed) {
  Prng prng(seed);
  net::TransitStubParams p;
  p.transit_count = 2;
  p.stub_domains_per_transit = 2;
  p.stub_domain_size = 4;
  return net::make_transit_stub(p, prng);
}

TEST(WorkloadTest, GeneratesRequestedShapes) {
  const net::Network net = small_net(1);
  WorkloadParams p;
  p.num_streams = 10;
  p.min_joins = 2;
  p.max_joins = 5;
  Prng prng(2);
  const Workload w = make_workload(net, p, 25, prng);
  EXPECT_EQ(w.catalog.stream_count(), 10u);
  ASSERT_EQ(w.queries.size(), 25u);
  for (const query::Query& q : w.queries) {
    EXPECT_GE(q.k(), 3);  // min_joins + 1
    EXPECT_LE(q.k(), 6);  // max_joins + 1
    EXPECT_LT(q.sink, net.node_count());
    std::set<query::StreamId> distinct(q.sources.begin(), q.sources.end());
    EXPECT_EQ(distinct.size(), q.sources.size());
    for (auto s : q.sources) EXPECT_LT(s, w.catalog.stream_count());
  }
}

TEST(WorkloadTest, RatesAndSelectivitiesWithinBounds) {
  const net::Network net = small_net(3);
  WorkloadParams p;
  Prng prng(4);
  const Workload w = make_workload(net, p, 5, prng);
  for (query::StreamId s = 0; s < w.catalog.stream_count(); ++s) {
    EXPECT_GE(w.catalog.stream(s).tuple_rate, p.tuple_rate_min);
    EXPECT_LE(w.catalog.stream(s).tuple_rate, p.tuple_rate_max);
    EXPECT_GE(w.catalog.stream(s).tuple_width, kTupleWidthMin);
    EXPECT_LE(w.catalog.stream(s).tuple_width, kTupleWidthMax);
    EXPECT_LT(w.catalog.stream(s).source, net.node_count());
    for (query::StreamId t = 0; t < w.catalog.stream_count(); ++t) {
      if (s == t) continue;
      EXPECT_GE(w.catalog.selectivity(s, t), p.selectivity_min);
      EXPECT_LE(w.catalog.selectivity(s, t), p.selectivity_max);
    }
  }
}

TEST(WorkloadTest, DeterministicGivenSeed) {
  const net::Network net = small_net(5);
  WorkloadParams p;
  Prng a(7);
  Prng b(7);
  const Workload wa = make_workload(net, p, 10, a);
  const Workload wb = make_workload(net, p, 10, b);
  for (std::size_t i = 0; i < wa.queries.size(); ++i) {
    EXPECT_EQ(wa.queries[i].sources, wb.queries[i].sources);
    EXPECT_EQ(wa.queries[i].sink, wb.queries[i].sink);
  }
  for (query::StreamId s = 0; s < wa.catalog.stream_count(); ++s) {
    EXPECT_DOUBLE_EQ(wa.catalog.stream(s).tuple_rate,
                     wb.catalog.stream(s).tuple_rate);
  }
}

TEST(WorkloadTest, RejectsImpossibleParameters) {
  const net::Network net = small_net(6);
  WorkloadParams p;
  p.num_streams = 3;
  p.max_joins = 5;  // needs 6 streams
  Prng prng(8);
  EXPECT_THROW(make_workload(net, p, 1, prng), CheckError);
}

TEST(WorkloadTest, DegenerateJoinRangePinsEveryQuerySize) {
  const net::Network net = small_net(9);
  WorkloadParams p;
  p.num_streams = 8;
  p.min_joins = 4;
  p.max_joins = 4;  // min == max: every query spans exactly 5 sources
  Prng prng(10);
  const Workload w = make_workload(net, p, 20, prng);
  for (const query::Query& q : w.queries) EXPECT_EQ(q.k(), 5);
}

TEST(WorkloadTest, CertainFilterProbabilityFiltersEverySource) {
  const net::Network net = small_net(11);
  WorkloadParams p;
  p.filter_probability = 1.0;
  Prng prng(12);
  const Workload w = make_workload(net, p, 10, prng);
  for (const query::Query& q : w.queries) {
    ASSERT_EQ(q.filter_selectivity.size(), q.sources.size());
    for (int i = 0; i < q.k(); ++i) {
      EXPECT_GE(q.filter(i), kFilterSelectivityMin);
      EXPECT_LE(q.filter(i), kFilterSelectivityMax);
      EXPECT_LT(q.filter(i), 1.0);  // every source actually filtered
    }
  }
}

TEST(WorkloadTest, StreamsBarelyCoveringWidestQuerySpan) {
  // num_streams == max_joins + 1: the widest query must use every stream.
  const net::Network net = small_net(13);
  WorkloadParams p;
  p.num_streams = 6;
  p.min_joins = 5;
  p.max_joins = 5;
  Prng prng(14);
  const Workload w = make_workload(net, p, 8, prng);
  for (const query::Query& q : w.queries) {
    ASSERT_EQ(q.k(), 6);
    std::set<query::StreamId> distinct(q.sources.begin(), q.sources.end());
    EXPECT_EQ(distinct.size(), 6u);  // all streams, no repeats
    EXPECT_TRUE(std::is_sorted(q.sources.begin(), q.sources.end()));
  }
}

TEST(WorkloadTest, SameSeedIsBitwiseIdenticalIncludingFiltersAndSelectivities) {
  const net::Network net = small_net(15);
  WorkloadParams p;
  p.filter_probability = 0.5;
  Prng a(16);
  Prng b(16);
  const Workload wa = make_workload(net, p, 12, a);
  const Workload wb = make_workload(net, p, 12, b);
  ASSERT_EQ(wa.queries.size(), wb.queries.size());
  for (std::size_t i = 0; i < wa.queries.size(); ++i) {
    EXPECT_EQ(wa.queries[i].sources, wb.queries[i].sources);
    EXPECT_EQ(wa.queries[i].sink, wb.queries[i].sink);
    ASSERT_EQ(wa.queries[i].filter_selectivity.size(),
              wb.queries[i].filter_selectivity.size());
    for (std::size_t f = 0; f < wa.queries[i].filter_selectivity.size(); ++f) {
      // Bitwise, not approximate: determinism is a digest-level contract.
      EXPECT_EQ(wa.queries[i].filter_selectivity[f],
                wb.queries[i].filter_selectivity[f]);
    }
  }
  for (query::StreamId s = 0; s < wa.catalog.stream_count(); ++s) {
    EXPECT_EQ(wa.catalog.stream(s).tuple_rate,
              wb.catalog.stream(s).tuple_rate);
    EXPECT_EQ(wa.catalog.stream(s).tuple_width,
              wb.catalog.stream(s).tuple_width);
    EXPECT_EQ(wa.catalog.stream(s).source, wb.catalog.stream(s).source);
    for (query::StreamId t = 0; t < wa.catalog.stream_count(); ++t) {
      EXPECT_EQ(wa.catalog.selectivity(s, t), wb.catalog.selectivity(s, t));
    }
  }
}

}  // namespace
}  // namespace iflow::workload
