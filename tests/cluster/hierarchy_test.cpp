#include "cluster/hierarchy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <set>

#include "cluster/theory.h"
#include "net/gtitm.h"

namespace iflow::cluster {
namespace {

struct Fixture {
  net::Network net;
  net::RoutingTables rt;
  explicit Fixture(std::uint64_t seed, net::TransitStubParams p = {})
      : net([&] {
          Prng prng(seed);
          return net::make_transit_stub(p, prng);
        }()),
        rt(net::RoutingTables::build(net)) {}
};

TEST(HierarchyTest, BuildsValidPartitionAtEveryMaxCs) {
  Fixture f(11);
  for (int max_cs : {2, 4, 8, 16, 32, 64}) {
    Prng prng(1);
    const Hierarchy h = Hierarchy::build(f.net, f.rt, max_cs, prng);
    h.validate(f.net);
    EXPECT_GE(h.height(), 1) << "max_cs " << max_cs;
  }
}

TEST(HierarchyTest, HeightShrinksWithLargerClusters) {
  Fixture f(12);
  Prng p1(1), p2(1);
  const Hierarchy small = Hierarchy::build(f.net, f.rt, 4, p1);
  const Hierarchy large = Hierarchy::build(f.net, f.rt, 64, p2);
  EXPECT_GT(small.height(), large.height());
}

TEST(HierarchyTest, RepresentativeChainsAreCoordinators) {
  Fixture f(13);
  Prng prng(2);
  const Hierarchy h = Hierarchy::build(f.net, f.rt, 8, prng);
  for (net::NodeId n = 0; n < f.net.node_count(); n += 7) {
    EXPECT_EQ(h.representative(n, 1), n);
    for (int l = 2; l <= h.height(); ++l) {
      const net::NodeId rep = h.representative(n, l);
      // The representative participates at level l.
      const auto nodes = h.nodes_at(l);
      EXPECT_NE(std::find(nodes.begin(), nodes.end(), rep), nodes.end());
    }
  }
}

TEST(HierarchyTest, UnderlyingPartitionsPhysicalNodes) {
  Fixture f(14);
  Prng prng(3);
  const Hierarchy h = Hierarchy::build(f.net, f.rt, 8, prng);
  for (int l = 1; l <= h.height(); ++l) {
    std::set<net::NodeId> seen;
    for (net::NodeId member : h.nodes_at(l)) {
      for (net::NodeId p : h.underlying(member, l)) {
        EXPECT_TRUE(seen.insert(p).second)
            << "node " << p << " under two level-" << l << " members";
      }
    }
    EXPECT_EQ(seen.size(), f.net.node_count());
  }
}

TEST(HierarchyTest, TopLevelIsSingleClusterCoveringEverything) {
  Fixture f(15);
  Prng prng(4);
  const Hierarchy h = Hierarchy::build(f.net, f.rt, 16, prng);
  ASSERT_EQ(h.level(h.height()).size(), 1u);
  const auto& top = h.level(h.height())[0];
  std::size_t covered = 0;
  for (net::NodeId m : top.members) {
    covered += h.underlying(m, h.height()).size();
  }
  EXPECT_EQ(covered, f.net.node_count());
}

// Theorem 1: actual cost <= level-l estimate + sum_{i<l} 2 d_i.
TEST(HierarchyTest, Theorem1BoundHolds) {
  Fixture f(16);
  for (int max_cs : {4, 8, 32}) {
    Prng prng(5);
    const Hierarchy h = Hierarchy::build(f.net, f.rt, max_cs, prng);
    for (int l = 1; l <= h.height(); ++l) {
      const double slack = theorem1_slack(h, l);
      for (net::NodeId a = 0; a < f.net.node_count(); a += 13) {
        for (net::NodeId b = 0; b < f.net.node_count(); b += 17) {
          EXPECT_LE(f.rt.cost(a, b), h.est_cost(a, b, l) + slack + 1e-9)
              << "max_cs " << max_cs << " level " << l << " pair " << a
              << "," << b;
        }
      }
    }
  }
}

TEST(HierarchyTest, EstimateAtLevelOneIsExact) {
  Fixture f(17);
  Prng prng(6);
  const Hierarchy h = Hierarchy::build(f.net, f.rt, 8, prng);
  for (net::NodeId a = 0; a < f.net.node_count(); a += 11) {
    for (net::NodeId b = 0; b < f.net.node_count(); b += 19) {
      EXPECT_DOUBLE_EQ(h.est_cost(a, b, 1), f.rt.cost(a, b));
    }
  }
}

TEST(HierarchyTest, IntraClusterCostBoundedByD) {
  Fixture f(18);
  Prng prng(7);
  const Hierarchy h = Hierarchy::build(f.net, f.rt, 8, prng);
  for (int l = 1; l <= h.height(); ++l) {
    for (const Cluster& cl : h.level(l)) {
      for (net::NodeId a : cl.members) {
        for (net::NodeId b : cl.members) {
          EXPECT_LE(f.rt.cost(a, b), h.d(l) + 1e-12);
        }
      }
    }
  }
}

TEST(HierarchyTest, SmallNetworkCollapsesToOneLevel) {
  net::Network net;
  for (int i = 0; i < 4; ++i) net.add_node();
  net.add_link(0, 1, 1.0, 1.0, 1e6);
  net.add_link(1, 2, 1.0, 1.0, 1e6);
  net.add_link(2, 3, 1.0, 1.0, 1e6);
  const auto rt = net::RoutingTables::build(net);
  Prng prng(8);
  const Hierarchy h = Hierarchy::build(net, rt, 8, prng);
  EXPECT_EQ(h.height(), 1);
  h.validate(net);
}

class HierarchyMaintenanceTest : public ::testing::TestWithParam<int> {};

TEST_P(HierarchyMaintenanceTest, RemoveNodeKeepsInvariants) {
  Fixture f(20);
  Prng prng(9);
  Hierarchy h = Hierarchy::build(f.net, f.rt, GetParam(), prng);
  Prng pick(10);
  // Remove a batch of random non-everything nodes one by one.
  std::set<net::NodeId> removed;
  for (int i = 0; i < 12; ++i) {
    net::NodeId victim;
    do {
      victim = static_cast<net::NodeId>(pick.index(f.net.node_count()));
    } while (removed.count(victim) != 0);
    removed.insert(victim);
    h.remove_node(victim, f.rt);
    h.validate(f.net);
  }
  // Removed nodes are gone from level 1.
  std::set<net::NodeId> present;
  for (const Cluster& cl : h.level(1)) {
    present.insert(cl.members.begin(), cl.members.end());
  }
  for (net::NodeId v : removed) EXPECT_EQ(present.count(v), 0u);
  EXPECT_EQ(present.size(), f.net.node_count() - removed.size());
}

TEST_P(HierarchyMaintenanceTest, AddNodeKeepsInvariants) {
  // Build the hierarchy over a prefix of the nodes, then join the rest at
  // runtime via the paper's join protocol.
  Fixture f(21);
  Prng prng(11);
  Hierarchy h = Hierarchy::build(f.net, f.rt, GetParam(), prng);
  // Remove 10 nodes, then re-join them.
  std::vector<net::NodeId> victims;
  Prng pick(12);
  while (victims.size() < 10) {
    const auto v = static_cast<net::NodeId>(pick.index(f.net.node_count()));
    if (std::find(victims.begin(), victims.end(), v) == victims.end()) {
      victims.push_back(v);
    }
  }
  for (net::NodeId v : victims) h.remove_node(v, f.rt);
  for (net::NodeId v : victims) {
    h.add_node(v, f.rt, prng);
    h.validate(f.net);
  }
  std::set<net::NodeId> present;
  for (const Cluster& cl : h.level(1)) {
    present.insert(cl.members.begin(), cl.members.end());
  }
  EXPECT_EQ(present.size(), f.net.node_count());
}

INSTANTIATE_TEST_SUITE_P(MaxCsSweep, HierarchyMaintenanceTest,
                         ::testing::Values(4, 8, 16, 32));

TEST(HierarchyEdgeTest, RemovingTheLastMemberOfALeafClusterDropsIt) {
  // max_cs = 2 over a small net makes singleton or pair leaf clusters
  // likely; removing members until some cluster empties must delete the
  // cluster, not leave an empty shell, at every step.
  Fixture f(31);
  Prng prng(3);
  Hierarchy h = Hierarchy::build(f.net, f.rt, 2, prng);
  // Remove the entire membership of the first leaf cluster, one by one.
  const std::vector<net::NodeId> members = h.level(1).front().members;
  ASSERT_FALSE(members.empty());
  for (net::NodeId m : members) {
    h.remove_node(m, f.rt);
    h.validate(f.net);
    EXPECT_FALSE(h.contains(m));
  }
  for (const Cluster& cl : h.level(1)) {
    EXPECT_FALSE(cl.members.empty());
    for (net::NodeId m : members) {
      EXPECT_EQ(std::count(cl.members.begin(), cl.members.end(), m), 0);
    }
  }
}

TEST(HierarchyEdgeTest, RemovingAMedoidRepairsThePromotionChain) {
  Fixture f(32);
  Prng prng(5);
  Hierarchy h = Hierarchy::build(f.net, f.rt, 4, prng);
  // The top coordinator sits on every level's promotion chain — removing
  // it exercises re-election at each level.
  const net::NodeId top = h.level(h.height()).front().coordinator;
  h.remove_node(top, f.rt);
  h.validate(f.net);
  EXPECT_FALSE(h.contains(top));
  for (int l = 1; l <= h.height(); ++l) {
    for (const Cluster& cl : h.level(l)) {
      EXPECT_NE(cl.coordinator, top) << "level " << l;
    }
  }
  // Estimates involving the removed node price it out, not crash.
  EXPECT_TRUE(std::isinf(h.est_cost(top, (top + 1) % f.net.node_count(), 1)));
}

TEST(HierarchyEdgeTest, RemoveThenReAddRoundTripPreservesInvariants) {
  Fixture f(33);
  for (int max_cs : {2, 4, 8}) {
    Prng prng(7);
    Hierarchy h = Hierarchy::build(f.net, f.rt, max_cs, prng);
    Prng pick(8);
    std::vector<net::NodeId> victims;
    while (victims.size() < 5) {
      const auto v = static_cast<net::NodeId>(pick.index(f.net.node_count()));
      if (std::find(victims.begin(), victims.end(), v) == victims.end()) {
        victims.push_back(v);
      }
    }
    for (net::NodeId v : victims) h.remove_node(v, f.rt);
    for (net::NodeId v : victims) {
      EXPECT_FALSE(h.contains(v)) << "max_cs " << max_cs;
      h.add_node(v, f.rt, prng);
      EXPECT_TRUE(h.contains(v)) << "max_cs " << max_cs;
      h.validate(f.net);
    }
    EXPECT_EQ(h.max_cs(), max_cs);
    // Every node is back and the join protocol respected the size cap
    // (validate() checks it; assert membership totals here).
    std::size_t total = 0;
    for (const Cluster& cl : h.level(1)) total += cl.members.size();
    EXPECT_EQ(total, f.net.node_count()) << "max_cs " << max_cs;
    // Estimates over re-admitted nodes are finite again.
    EXPECT_TRUE(std::isfinite(
        h.est_cost(victims.front(), victims.back(), 1)));
  }
}

std::vector<std::vector<net::NodeId>> domain_partitions(
    const net::TransitStubParams& p) {
  std::vector<std::vector<net::NodeId>> parts;
  std::vector<net::NodeId> transit;
  for (int t = 0; t < p.transit_count; ++t) {
    transit.push_back(static_cast<net::NodeId>(t));
  }
  parts.push_back(std::move(transit));
  for (int d = 0; d < net::stub_domain_count(p); ++d) {
    parts.push_back(net::stub_domain_members(p, d));
  }
  return parts;
}

TEST(PartitionedHierarchyTest, BuildValidatesAndSetsLocalLeafMetrics) {
  Fixture f(41);
  const net::TransitStubParams p;
  Prng prng(1);
  const Hierarchy h =
      Hierarchy::build_partitioned(f.net, f.rt, domain_partitions(p), 10, prng);
  h.validate(f.net);
  EXPECT_TRUE(h.local_leaf_metrics());
  EXPECT_GE(h.height(), 2);
  // No partition exceeds max_cs = 10, so leaves map 1:1 onto partitions.
  EXPECT_EQ(h.level(1).size(), domain_partitions(p).size());
  // Stub-domain members stay co-clustered.
  const std::vector<net::NodeId> dom = net::stub_domain_members(p, 0);
  for (net::NodeId m : dom) {
    EXPECT_EQ(h.cluster_of(m, 1), h.cluster_of(dom[0], 1));
  }
}

TEST(PartitionedHierarchyTest, OversizedPartitionsAreSplit) {
  Fixture f(42);
  const net::TransitStubParams p;
  Prng prng(2);
  const Hierarchy h =
      Hierarchy::build_partitioned(f.net, f.rt, domain_partitions(p), 4, prng);
  h.validate(f.net);
  for (const Cluster& cl : h.level(1)) {
    EXPECT_LE(cl.members.size(), 4u);
  }
}

TEST(PartitionedHierarchyTest, Theorem1HoldsWithInducedLeafMetrics) {
  // The soundness property the sparse oracle leans on: even though d(1) is
  // computed on induced subgraphs, actual <= est + sum 2 d(i) must hold.
  Fixture f(43);
  const net::TransitStubParams p;
  for (int max_cs : {4, 10}) {
    Prng prng(3);
    const Hierarchy h = Hierarchy::build_partitioned(
        f.net, f.rt, domain_partitions(p), max_cs, prng);
    for (int l = 1; l <= h.height(); ++l) {
      const double slack = theorem1_slack(h, l);
      for (net::NodeId a = 0; a < f.net.node_count(); a += 5) {
        for (net::NodeId b = 0; b < f.net.node_count(); b += 7) {
          EXPECT_LE(f.rt.cost(a, b), h.est_cost(a, b, l) + slack + 1e-9)
              << "max_cs " << max_cs << " level " << l;
        }
      }
    }
  }
}

TEST(PartitionedHierarchyTest, RejectsOverlappingOrNonCoveringPartitions) {
  Fixture f(44);
  Prng prng(4);
  // Overlap: node 0 in two partitions.
  std::vector<std::vector<net::NodeId>> overlap{{0, 1}, {0, 2}};
  EXPECT_THROW(Hierarchy::build_partitioned(f.net, f.rt, overlap, 8, prng),
               CheckError);
  // Non-covering: misses most node ids.
  std::vector<std::vector<net::NodeId>> partial{{0, 1, 2}};
  EXPECT_THROW(Hierarchy::build_partitioned(f.net, f.rt, partial, 8, prng),
               CheckError);
}

TEST(PartitionedHierarchyTest, RefreshBumpsVersion) {
  Fixture f(45);
  const net::TransitStubParams p;
  Prng prng(5);
  Hierarchy h =
      Hierarchy::build_partitioned(f.net, f.rt, domain_partitions(p), 10, prng);
  const std::uint64_t before = h.version();
  h.refresh(f.rt);
  EXPECT_GT(h.version(), before);
}

TEST(InducedDistancesTest, EntriesUpperBoundGlobalDistances) {
  Fixture f(46);
  const net::TransitStubParams p;
  const std::vector<net::NodeId> dom = net::stub_domain_members(p, 1);
  const std::vector<double> m = induced_distances(f.net, dom);
  const std::size_t k = dom.size();
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(m[i * k + i], 0.0);
    for (std::size_t j = 0; j < k; ++j) {
      // Paths confined to the subgraph can only be as good as the network.
      EXPECT_GE(m[i * k + j] + 1e-12, f.rt.cost(dom[i], dom[j]));
      EXPECT_DOUBLE_EQ(m[i * k + j], m[j * k + i]);  // undirected
    }
  }
}

TEST(HierarchyEdgeTest, ContainsReflectsMembership) {
  Fixture f(34);
  Prng prng(9);
  Hierarchy h = Hierarchy::build(f.net, f.rt, 4, prng);
  for (net::NodeId n = 0; n < f.net.node_count(); ++n) {
    EXPECT_TRUE(h.contains(n));
  }
  EXPECT_FALSE(h.contains(static_cast<net::NodeId>(f.net.node_count())));
  h.remove_node(0, f.rt);
  EXPECT_FALSE(h.contains(0));
  h.add_node(0, f.rt, prng);
  EXPECT_TRUE(h.contains(0));
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

net::RoutingTables sparse_routing(const net::Network& net, std::size_t rows) {
  net::RoutingOptions opts;
  opts.mode = net::RoutingMode::kSparse;
  opts.max_cached_rows = rows;
  return net::RoutingTables::build(net, opts);
}

/// Dense routing for a classic hierarchy, sparse for a partitioned one (the
/// scale path).
net::RoutingTables routing_for(bool partitioned, const net::Network& net) {
  return partitioned ? sparse_routing(net, 8) : net::RoutingTables::build(net);
}

/// Classic, or partitioned along the stub domains.
Hierarchy build_hierarchy(bool partitioned, const net::Network& net,
                          const net::RoutingTables& rt, Prng& prng) {
  return partitioned ? Hierarchy::build_partitioned(
                           net, rt, domain_partitions({}), 4, prng)
                     : Hierarchy::build(net, rt, 4, prng);
}

/// Above level 1, every estimate is bit for bit the routing cost between
/// the two representatives (+inf for nodes outside the hierarchy), and d(l)
/// is the largest routing cost inside a level-l cluster.
void expect_estimates_match_routing(const Hierarchy& h,
                                    const net::RoutingTables& rt) {
  const auto n = static_cast<net::NodeId>(rt.node_count());
  for (int l = 2; l <= h.height(); ++l) {
    for (net::NodeId a = 0; a < n; ++a) {
      for (net::NodeId b = 0; b < n; ++b) {
        const double est = h.est_cost(a, b, l);
        if (!h.contains(a) || !h.contains(b)) {
          ASSERT_TRUE(std::isinf(est)) << a << "," << b;
          continue;
        }
        ASSERT_EQ(bits(est), bits(rt.cost(h.representative(a, l),
                                          h.representative(b, l))))
            << "level " << l << " pair " << a << "," << b;
      }
    }
    double d = 0.0;
    for (const Cluster& cl : h.level(l)) {
      for (net::NodeId a : cl.members) {
        for (net::NodeId b : cl.members) d = std::max(d, rt.cost(a, b));
      }
    }
    ASSERT_EQ(bits(h.d(l)), bits(d)) << "level " << l;
  }
}

TEST(CoordinatorMatrixTest, EstimatesMatchRoutingAfterBuild) {
  for (const bool partitioned : {false, true}) {
    Fixture f(51);
    const net::RoutingTables rt = routing_for(partitioned, f.net);
    Prng prng(1);
    const Hierarchy h = build_hierarchy(partitioned, f.net, rt, prng);
    ASSERT_GE(h.height(), 3) << "partitioned " << partitioned;
    expect_estimates_match_routing(h, rt);
  }
}

TEST(CoordinatorMatrixTest, EstimatesFollowFaultsAfterSyncAndRefresh) {
  for (const bool partitioned : {false, true}) {
    Fixture f(52);
    net::RoutingTables rt = routing_for(partitioned, f.net);
    Prng prng(2);
    Hierarchy h = build_hierarchy(partitioned, f.net, rt, prng);
    // Fail the first link of the cheapest route between two leaf
    // coordinators, so a matrix entry must change.
    const net::NodeId c0 = h.level(1).front().coordinator;
    const net::NodeId c1 = h.level(1).back().coordinator;
    const std::vector<net::NodeId> path = rt.cost_path(c0, c1);
    ASSERT_GE(path.size(), 2u);
    const double before = h.est_cost(c0, c1, 2);
    f.net.fail_link(path[0], path[1]);
    rt.sync(f.net);
    h.refresh(rt);
    EXPECT_NE(bits(h.est_cost(c0, c1, 2)), bits(before));
    expect_estimates_match_routing(h, rt);
    f.net.restore_link(path[0], path[1]);
    rt.sync(f.net);
    h.refresh(rt);
    EXPECT_EQ(bits(h.est_cost(c0, c1, 2)), bits(before));
    expect_estimates_match_routing(h, rt);
  }
}

TEST(CoordinatorMatrixTest, CostChangeWithoutRefreshIsCaughtInDebug) {
  Fixture f(55);
  Prng prng(5);
  const Hierarchy h = Hierarchy::build(f.net, f.rt, 4, prng);
  const net::NodeId c0 = h.level(1).front().coordinator;
  const net::NodeId c1 = h.level(1).back().coordinator;
  const std::vector<net::NodeId> path = f.rt.cost_path(c0, c1);
  ASSERT_GE(path.size(), 2u);
  const double before = h.est_cost(c0, c1, 2);
  f.net.fail_link(path[0], path[1]);
  f.rt.sync(f.net);  // no refresh: the matrix still holds the old cost
  ASSERT_NE(bits(f.rt.cost(c0, c1)), bits(before));
#ifdef NDEBUG
  EXPECT_EQ(bits(h.est_cost(c0, c1, 2)), bits(before));
#else
  EXPECT_THROW(h.est_cost(c0, c1, 2), CheckError);
#endif
}

TEST(CoordinatorMatrixTest, EstimatesFollowRemoveAndAddNode) {
  for (const bool partitioned : {false, true}) {
    Fixture f(53);
    const net::RoutingTables rt = routing_for(partitioned, f.net);
    Prng prng(3);
    Hierarchy h = build_hierarchy(partitioned, f.net, rt, prng);
    // Emptying a leaf cluster renumbers the leaves after it; the top
    // coordinator's removal re-elects on every level.
    std::vector<net::NodeId> victims = h.level(1)[1].members;
    const net::NodeId top = h.level(h.height()).front().coordinator;
    if (std::find(victims.begin(), victims.end(), top) == victims.end()) {
      victims.push_back(top);
    }
    for (const net::NodeId v : victims) {
      h.remove_node(v, rt);
      expect_estimates_match_routing(h, rt);
    }
    for (const net::NodeId v : victims) {
      h.add_node(v, rt, prng);
      expect_estimates_match_routing(h, rt);
    }
  }
}

/// Every bulk row read equals est_cost bit for bit, and both are the
/// routing cost between the representatives (+inf outside the hierarchy):
/// at each level, from each node, to every node id and to a scrambled
/// subset with a repeat.
void expect_bulk_rows_match(const Hierarchy& h, const net::RoutingTables& rt) {
  const std::size_t n = rt.node_count();
  std::vector<net::NodeId> all(n);
  std::iota(all.begin(), all.end(), net::NodeId{0});
  std::vector<net::NodeId> some;
  for (std::size_t i = n; i-- > 0;) {
    if (i % 3 == 0) some.push_back(static_cast<net::NodeId>(i));
  }
  some.push_back(some.front());
  std::vector<double> row(n);
  for (int l = 1; l <= h.height(); ++l) {
    for (net::NodeId a = 0; a < n; ++a) {
      for (const std::vector<net::NodeId>* dst : {&all, &some}) {
        h.fill_est_costs(a, dst->data(), dst->size(), l, row.data());
        for (std::size_t i = 0; i < dst->size(); ++i) {
          const net::NodeId b = (*dst)[i];
          const double want =
              h.contains(a) && h.contains(b)
                  ? rt.cost(h.representative(a, l), h.representative(b, l))
                  : std::numeric_limits<double>::infinity();
          ASSERT_EQ(bits(row[i]), bits(want))
              << "level " << l << " pair " << a << "," << b;
          ASSERT_EQ(bits(h.est_cost(a, b, l)), bits(want))
              << "level " << l << " pair " << a << "," << b;
        }
      }
    }
  }
}

TEST(CoordinatorMatrixTest, BulkRowReadsMatchEstCost) {
  for (const bool partitioned : {false, true}) {
    Fixture f(56);
    net::RoutingTables rt = routing_for(partitioned, f.net);
    Prng prng(6);
    Hierarchy h = build_hierarchy(partitioned, f.net, rt, prng);
    ASSERT_GE(h.height(), 3) << "partitioned " << partitioned;
    expect_bulk_rows_match(h, rt);
    // Removed nodes read +inf as sources and as destinations.
    const std::vector<net::NodeId> victims = h.level(1)[1].members;
    for (const net::NodeId v : victims) h.remove_node(v, rt);
    expect_bulk_rows_match(h, rt);
    // A crash, synced and refreshed: the node is still a member, and the
    // routing tables price it out.
    const net::NodeId crashed = h.level(1).back().members.back();
    f.net.crash_node(crashed);
    rt.sync(f.net);
    h.refresh(rt);
    expect_bulk_rows_match(h, rt);
    // Then it leaves the hierarchy, as the middleware has it on a crash.
    h.remove_node(crashed, rt);
    expect_bulk_rows_match(h, rt);
    f.net.restore_node(crashed);
    rt.sync(f.net);
    h.refresh(rt);
    for (const net::NodeId v : victims) h.add_node(v, rt, prng);
    h.add_node(crashed, rt, prng);
    expect_bulk_rows_match(h, rt);
    if (HasFatalFailure()) FAIL() << "partitioned " << partitioned;
  }
}

TEST(CoordinatorMatrixTest, RefreshLeavesTheSparseRowCacheAlone) {
  // More leaf clusters than cached rows: pricing the coordinators through
  // the row cache would evict every planner row on each refresh.
  Fixture f(54);
  const net::RoutingTables rt = sparse_routing(f.net, 4);
  Prng prng(4);
  Hierarchy h = Hierarchy::build_partitioned(f.net, rt, domain_partitions({}),
                                             8, prng);
  const std::size_t leaves = h.level(1).size();
  ASSERT_GT(leaves, 4u);
  EXPECT_EQ(rt.cached_rows(), 0u);
  rt.cost(5, 0);
  rt.cost(9, 0);
  const std::size_t rows = rt.cached_rows();
  const std::size_t peak = rt.peak_memory_bytes();
  h.refresh(rt);
  EXPECT_EQ(rt.cached_rows(), rows);
  EXPECT_EQ(rt.peak_memory_bytes(), peak);
  EXPECT_GE(h.memory_bytes(), leaves * leaves * sizeof(double));
}

/// The same topology with every link's cost and delay rounded down to an
/// integer, so equal-cost paths are common.
net::Network with_integer_weights(const net::Network& net) {
  net::Network out;
  for (net::NodeId v = 0; v < net.node_count(); ++v) out.add_node(net.kind(v));
  for (const net::Link& l : net.links()) {
    out.add_link(l.a, l.b, std::floor(l.cost_per_byte), std::floor(l.delay_ms),
                 l.bandwidth_bps);
  }
  return out;
}

/// Every leaf-coordinator pair's level-2 estimate and every d(l) above
/// level 1, bit for bit against a fresh cost_matrix of the coordinators,
/// whose every entry must be what rt.cost returns.
void expect_matrix_is_fresh(const Hierarchy& h, const net::RoutingTables& rt) {
  std::vector<net::NodeId> coords;
  for (const Cluster& cl : h.level(1)) coords.push_back(cl.coordinator);
  const std::size_t m = coords.size();
  std::vector<double> fresh(m * m);
  rt.cost_matrix(coords.data(), m, fresh.data());
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      ASSERT_EQ(bits(fresh[i * m + j]), bits(rt.cost(coords[i], coords[j])))
          << "coordinators " << coords[i] << "," << coords[j];
      ASSERT_EQ(bits(h.est_cost(coords[i], coords[j], 2)),
                bits(fresh[i * m + j]))
          << "coordinators " << coords[i] << "," << coords[j];
    }
  }
  const auto leaf = [&](net::NodeId c) {
    return static_cast<std::size_t>(
        std::find(coords.begin(), coords.end(), c) - coords.begin());
  };
  for (int l = 2; l <= h.height(); ++l) {
    double d = 0.0;
    for (const Cluster& cl : h.level(l)) {
      for (net::NodeId a : cl.members) {
        for (net::NodeId b : cl.members) {
          d = std::max(d, fresh[leaf(a) * m + leaf(b)]);
        }
      }
    }
    ASSERT_EQ(bits(h.d(l)), bits(d)) << "level " << l;
  }
}

/// d(1) of a partitioned hierarchy measured afresh: the largest finite
/// induced distance inside any leaf cluster.
double measured_d1(const Hierarchy& h, const net::Network& net) {
  double d = 0.0;
  for (const Cluster& cl : h.level(1)) {
    for (const double v : induced_distances(net, cl.members)) {
      if (std::isfinite(v)) d = std::max(d, v);
    }
  }
  return d;
}

/// Refreshes a partitioned hierarchy on the sparse tier after each of 20
/// random single-link failures and restores and after 4 fallback batches
/// (two link events, a cost change, a node crash and its restore), and
/// checks the coordinator matrix and every d(l) against a full recompute
/// each time.
void run_refresh_script(std::uint64_t seed, bool integer_weights) {
  net::TransitStubParams p;
  p.transit_count = 3;
  p.stub_domains_per_transit = 3;
  p.stub_domain_size = 6;
  Prng prng(seed);
  net::Network net = net::make_transit_stub(p, prng);
  if (integer_weights) net = with_integer_weights(net);
  net::RoutingTables rt = sparse_routing(net, 8);
  Hierarchy h =
      Hierarchy::build_partitioned(net, rt, domain_partitions(p), 4, prng);
  const std::size_t leaves = h.level(1).size();
  std::vector<std::pair<net::NodeId, net::NodeId>> down;
  const auto flip_link = [&] {
    if (!down.empty() && prng.chance(0.5)) {
      const std::size_t k = prng.index(down.size());
      net.restore_link(down[k].first, down[k].second);
      down.erase(down.begin() + static_cast<std::ptrdiff_t>(k));
      return;
    }
    std::uint32_t idx = 0;
    do {
      idx = static_cast<std::uint32_t>(prng.index(net.link_count()));
    } while (!net.link_up(idx));
    const net::Link& l = net.links()[idx];
    net.fail_link(l.a, l.b);
    down.emplace_back(l.a, l.b);
  };
  const net::NodeId crashed = static_cast<net::NodeId>(net.node_count() - 1);
  std::size_t partial = 0;  // single-link refreshes that kept some row
  for (int step = 0; step < 24; ++step) {
    const int fallback = step % 6 == 5 ? step / 6 : -1;
    switch (fallback) {
      case -1:
        flip_link();
        break;
      case 0:
        flip_link();
        flip_link();
        break;
      case 1: {
        const net::Link& l = net.links()[prng.index(net.link_count())];
        net.set_link_cost(l.a, l.b, l.cost_per_byte + 1.0);
        break;
      }
      case 2:
        net.crash_node(crashed);
        break;
      default:
        net.restore_node(crashed);
        break;
    }
    rt.sync(net);
    const std::size_t rows = h.refresh(rt);
    if (fallback >= 0) {
      EXPECT_EQ(rows, leaves) << "seed " << seed << " step " << step;
    } else if (rows < leaves) {
      ++partial;
    }
    expect_matrix_is_fresh(h, rt);
    ASSERT_EQ(bits(h.d(1)), bits(measured_d1(h, net)))
        << "seed " << seed << " step " << step;
    if (::testing::Test::HasFatalFailure()) {
      ADD_FAILURE() << "seed " << seed << " step " << step;
      return;
    }
  }
  EXPECT_GT(partial, 0u) << "seed " << seed;
}

TEST(CoordinatorMatrixTest, IncrementalRefreshMatchesAFreshMatrix) {
  run_refresh_script(61, /*integer_weights=*/false);
  run_refresh_script(62, /*integer_weights=*/false);
  run_refresh_script(63, /*integer_weights=*/true);
}

TEST(PartitionedHierarchyTest, RefreshRemeasuresTheLeafALinkFaultChanges) {
  // A refresh remeasures only the leaf clusters holding an endpoint of a
  // fault or restore. Fail and restore, one at a time, every link inside a
  // leaf cluster: d(1) must follow each change, and some must move it.
  net::TransitStubParams p;
  p.transit_count = 3;
  p.stub_domains_per_transit = 3;
  p.stub_domain_size = 6;
  Prng prng(64);
  net::Network net = net::make_transit_stub(p, prng);
  net::RoutingTables rt = sparse_routing(net, 8);
  Hierarchy h =
      Hierarchy::build_partitioned(net, rt, domain_partitions(p), 4, prng);
  std::size_t moved = 0;
  for (std::uint32_t idx = 0; idx < net.link_count(); ++idx) {
    const net::Link l = net.links()[idx];
    if (!net.link_up(idx) || h.cluster_of(l.a, 1) != h.cluster_of(l.b, 1)) {
      continue;
    }
    const double before = h.d(1);
    for (const bool restore : {false, true}) {
      if (restore) {
        net.restore_link(l.a, l.b);
      } else {
        net.fail_link(l.a, l.b);
      }
      rt.sync(net);
      h.refresh(rt);
      ASSERT_EQ(bits(h.d(1)), bits(measured_d1(h, net)))
          << "link " << l.a << "-" << l.b << (restore ? " restored" : "");
      if (!restore && h.d(1) != before) ++moved;
    }
  }
  EXPECT_GT(moved, 0u);
}

TEST(CoordinatorMatrixTest, RefreshAgainstAnotherTableRecomputesEveryRow) {
  Fixture f(56);
  const net::RoutingTables rt = sparse_routing(f.net, 8);
  Prng prng(6);
  Hierarchy h = Hierarchy::build_partitioned(f.net, rt, domain_partitions({}),
                                             4, prng);
  const std::size_t leaves = h.level(1).size();
  EXPECT_EQ(h.refresh(rt), 0u);  // nothing changed since the build
  EXPECT_EQ(h.refresh(f.rt), leaves);
  expect_matrix_is_fresh(h, f.rt);
  EXPECT_EQ(h.refresh(rt), leaves);  // the matrix came from f.rt
  expect_matrix_is_fresh(h, rt);
}

TEST(CoordinatorMatrixTest, RefreshAgainstATableOfAnotherSizeThrows) {
  // A refresh keeps the clusters and the tables indexed by node, so the
  // routing tables must cover exactly the hierarchy's nodes.
  Fixture f(57);
  Prng prng(7);
  Hierarchy h = Hierarchy::build(f.net, f.rt, 8, prng);
  net::Network grown = f.net;
  grown.add_node();
  const net::RoutingTables wider = net::RoutingTables::build(grown);
  EXPECT_THROW(h.refresh(wider), CheckError);
  EXPECT_EQ(h.refresh(f.rt), h.level(1).size());
}

}  // namespace
}  // namespace iflow::cluster
