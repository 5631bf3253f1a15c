#include "opt/search/planner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/prng.h"
#include "net/gtitm.h"

namespace iflow::opt {
namespace {

using query::LeafUnit;
using query::Mask;

struct Fixture {
  net::Network net;
  net::RoutingTables rt;
  explicit Fixture(int nodes, std::uint64_t seed) {
    Prng prng(seed);
    for (int i = 0; i < nodes; ++i) net.add_node();
    // Random connected graph: spanning tree + extra edges.
    for (int i = 1; i < nodes; ++i) {
      net.add_link(static_cast<net::NodeId>(i),
                   static_cast<net::NodeId>(prng.index(static_cast<std::size_t>(i))),
                   prng.uniform(1.0, 10.0), prng.uniform(1.0, 20.0), 1e6);
    }
    for (int i = 0; i < nodes; ++i) {
      for (int j = i + 2; j < nodes; ++j) {
        if (prng.chance(0.3)) {
          net.add_link(static_cast<net::NodeId>(i),
                       static_cast<net::NodeId>(j), prng.uniform(1.0, 10.0),
                       prng.uniform(1.0, 20.0), 1e6);
        }
      }
    }
    rt = net::RoutingTables::build(net);
  }
};

struct QuerySetup {
  query::Catalog catalog;
  query::Query q;
  QuerySetup(int k, const net::Network& net, Prng& prng) {
    for (int i = 0; i < k; ++i) {
      q.sources.push_back(catalog.add_stream(
          std::string("S").append(std::to_string(i)),
          static_cast<net::NodeId>(prng.index(net.node_count())),
          prng.uniform(5.0, 50.0), prng.uniform(10.0, 100.0)));
    }
    for (int a = 0; a < k; ++a) {
      for (int b = a + 1; b < k; ++b) {
        catalog.set_selectivity(q.sources[static_cast<std::size_t>(a)],
                                q.sources[static_cast<std::size_t>(b)],
                                prng.uniform(0.005, 0.05));
      }
    }
    q.sink = static_cast<net::NodeId>(prng.index(net.node_count()));
  }
};

std::vector<LeafUnit> base_units(const query::RateModel& rates) {
  std::vector<LeafUnit> units;
  for (int i = 0; i < rates.k(); ++i) {
    LeafUnit u;
    u.mask = Mask{1} << i;
    u.location = rates.source_node(i);
    u.tuple_rate = rates.tuple_rate(u.mask);
    u.bytes_rate = rates.bytes_rate(u.mask);
    units.push_back(u);
  }
  return units;
}

/// Literal exhaustive reference: all covers × all trees × all placements.
double brute_force_best(const std::vector<LeafUnit>& units,
                        const query::RateModel& rates, Mask target,
                        net::NodeId delivery,
                        const std::vector<net::NodeId>& sites,
                        const DistanceOracle& dist,
                        double* examined = nullptr) {
  double best = std::numeric_limits<double>::infinity();
  double count = 0.0;
  // Enumerate exact covers recursively.
  std::vector<int> cover;
  auto covers = [&](auto&& self, Mask remaining) -> void {
    if (remaining == 0) {
      std::vector<Mask> masks;
      for (int u : cover) masks.push_back(units[static_cast<std::size_t>(u)].mask);
      for (const query::JoinTree& tree : query::enumerate_join_trees(masks)) {
        const int ops = tree.internal_count();
        const double assignments =
            std::pow(static_cast<double>(sites.size()), ops);
        count += assignments;
        // Enumerate placements as a base-|sites| counter over ops.
        std::vector<std::size_t> slot(static_cast<std::size_t>(ops), 0);
        std::vector<int> internal_ids;
        for (std::size_t v = 0; v < tree.nodes.size(); ++v) {
          if (tree.nodes[v].unit < 0) internal_ids.push_back(static_cast<int>(v));
        }
        while (true) {
          // Cost of this placement.
          std::vector<net::NodeId> at(tree.nodes.size(), net::kInvalidNode);
          for (std::size_t i = 0; i < internal_ids.size(); ++i) {
            at[static_cast<std::size_t>(internal_ids[i])] = sites[slot[i]];
          }
          double cost = 0.0;
          for (std::size_t v = 0; v < tree.nodes.size(); ++v) {
            const query::TreeNode& n = tree.nodes[v];
            if (n.unit >= 0) continue;
            for (int child : {n.left, n.right}) {
              const query::TreeNode& cn =
                  tree.nodes[static_cast<std::size_t>(child)];
              const net::NodeId from =
                  (cn.unit >= 0)
                      ? units[static_cast<std::size_t>(cover[static_cast<std::size_t>(cn.unit)])]
                            .location
                      : at[static_cast<std::size_t>(child)];
              const double rate =
                  (cn.unit >= 0)
                      ? units[static_cast<std::size_t>(cover[static_cast<std::size_t>(cn.unit)])]
                            .bytes_rate
                      : rates.bytes_rate(cn.mask);
              cost += rate * dist(from, at[v]);
            }
          }
          const query::TreeNode& root =
              tree.nodes[static_cast<std::size_t>(tree.root)];
          if (delivery != net::kInvalidNode) {
            const net::NodeId root_loc =
                (root.unit >= 0)
                    ? units[static_cast<std::size_t>(cover[static_cast<std::size_t>(root.unit)])]
                          .location
                    : at[static_cast<std::size_t>(tree.root)];
            const double root_rate =
                (root.unit >= 0)
                    ? units[static_cast<std::size_t>(cover[static_cast<std::size_t>(root.unit)])]
                          .bytes_rate
                    : rates.bytes_rate(root.mask);
            cost += root_rate * dist(root_loc, delivery);
          }
          best = std::min(best, cost);
          // Advance the placement counter.
          std::size_t d = 0;
          while (d < slot.size()) {
            if (++slot[d] < sites.size()) break;
            slot[d] = 0;
            ++d;
          }
          if (slot.empty() || d == slot.size()) break;
        }
      }
      return;
    }
    const Mask low = remaining & (~remaining + 1);
    for (std::size_t u = 0; u < units.size(); ++u) {
      const Mask m = units[u].mask;
      if ((m & low) == 0 || (m & ~remaining) != 0) continue;
      cover.push_back(static_cast<int>(u));
      self(self, remaining & ~m);
      cover.pop_back();
    }
  };
  covers(covers, target);
  if (examined != nullptr) *examined = count;
  return best;
}

class PlannerVsBruteForceTest
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(PlannerVsBruteForceTest, DpEqualsLiteralEnumeration) {
  const auto [nodes, k, seed] = GetParam();
  Fixture f(nodes, seed);
  Prng prng(seed * 7 + 1);
  QuerySetup qs(k, f.net, prng);
  query::RateModel rates(qs.catalog, qs.q);

  PlannerInput in;
  in.rates = &rates;
  in.units = base_units(rates);
  in.target = rates.full();
  in.delivery = qs.q.sink;
  for (net::NodeId n = 0; n < f.net.node_count(); ++n) in.sites.push_back(n);
  in.dist = DistanceOracle::routing(f.rt);

  const PlannerResult res = plan_optimal(in);
  ASSERT_TRUE(res.feasible);

  double examined = 0.0;
  const double reference = brute_force_best(in.units, rates, in.target,
                                            in.delivery, in.sites, in.dist,
                                            &examined);
  EXPECT_NEAR(res.cost, reference, 1e-6 * (1.0 + reference));
  EXPECT_DOUBLE_EQ(res.plans_considered, examined);
  // The reconstructed deployment must actually realise the claimed cost.
  EXPECT_NEAR(query::deployment_cost(res.deployment, f.rt), res.cost,
              1e-6 * (1.0 + res.cost));
}

INSTANTIATE_TEST_SUITE_P(
    SmallInstances, PlannerVsBruteForceTest,
    ::testing::Values(std::tuple{5, 2, 1}, std::tuple{5, 3, 2},
                      std::tuple{6, 3, 3}, std::tuple{4, 4, 4},
                      std::tuple{5, 4, 5}, std::tuple{6, 4, 6},
                      std::tuple{7, 3, 7}, std::tuple{3, 4, 8}));

TEST(PlannerTest, ReusableDerivedUnitBeatsRecomputation) {
  Fixture f(6, 42);
  Prng prng(9);
  QuerySetup qs(3, f.net, prng);
  query::RateModel rates(qs.catalog, qs.q);

  PlannerInput in;
  in.rates = &rates;
  in.units = base_units(rates);
  // A derived stream for {0,1} colocated with source 2: joining it is nearly
  // free compared to shipping both bases.
  LeafUnit derived;
  derived.mask = 0b011;
  derived.location = rates.source_node(2);
  derived.tuple_rate = rates.tuple_rate(0b011);
  derived.bytes_rate = rates.bytes_rate(0b011);
  derived.derived = true;
  in.units.push_back(derived);
  in.target = rates.full();
  in.delivery = qs.q.sink;
  for (net::NodeId n = 0; n < f.net.node_count(); ++n) in.sites.push_back(n);
  in.dist = DistanceOracle::routing(f.rt);

  const PlannerResult with_reuse = plan_optimal(in);
  in.units.pop_back();
  const PlannerResult without = plan_optimal(in);
  ASSERT_TRUE(with_reuse.feasible);
  ASSERT_TRUE(without.feasible);
  EXPECT_LE(with_reuse.cost, without.cost + 1e-9);

  const double examined_ref = brute_force_best(
      [&] {
        auto u = base_units(rates);
        u.push_back(derived);
        return u;
      }(),
      rates, in.target, in.delivery, in.sites, in.dist);
  EXPECT_NEAR(with_reuse.cost, examined_ref, 1e-6 * (1.0 + examined_ref));
}

TEST(PlannerTest, SingleSourceQueryNeedsNoOperators) {
  Fixture f(5, 17);
  Prng prng(3);
  QuerySetup qs(1, f.net, prng);
  query::RateModel rates(qs.catalog, qs.q);

  PlannerInput in;
  in.rates = &rates;
  in.units = base_units(rates);
  in.target = rates.full();
  in.delivery = qs.q.sink;
  for (net::NodeId n = 0; n < f.net.node_count(); ++n) in.sites.push_back(n);
  in.dist = DistanceOracle::routing(f.rt);

  const PlannerResult res = plan_optimal(in);
  ASSERT_TRUE(res.feasible);
  EXPECT_TRUE(res.deployment.ops.empty());
  EXPECT_DOUBLE_EQ(res.plans_considered, 1.0);
  EXPECT_NEAR(res.cost,
              rates.bytes_rate(1) * f.rt.cost(rates.source_node(0), qs.q.sink),
              1e-9);
}

TEST(PlannerTest, NoDeliveryLeavesResultAtProducer) {
  Fixture f(6, 23);
  Prng prng(4);
  QuerySetup qs(2, f.net, prng);
  query::RateModel rates(qs.catalog, qs.q);

  PlannerInput in;
  in.rates = &rates;
  in.units = base_units(rates);
  in.target = rates.full();
  in.delivery = net::kInvalidNode;
  for (net::NodeId n = 0; n < f.net.node_count(); ++n) in.sites.push_back(n);
  in.dist = DistanceOracle::routing(f.rt);

  const PlannerResult res = plan_optimal(in);
  ASSERT_TRUE(res.feasible);
  const double reference =
      brute_force_best(in.units, rates, in.target, net::kInvalidNode,
                       in.sites, in.dist);
  EXPECT_NEAR(res.cost, reference, 1e-9 * (1.0 + reference));
  // Sink defaults to the producing node, so the delivery edge is free.
  EXPECT_EQ(res.deployment.sink, res.deployment.root_node());
}

TEST(PlannerTest, InfeasibleWhenUnitsCannotCoverTarget) {
  Fixture f(5, 31);
  Prng prng(5);
  QuerySetup qs(3, f.net, prng);
  query::RateModel rates(qs.catalog, qs.q);

  PlannerInput in;
  in.rates = &rates;
  in.units = base_units(rates);
  in.units.pop_back();  // source 2 unavailable
  in.target = rates.full();
  in.delivery = qs.q.sink;
  for (net::NodeId n = 0; n < f.net.node_count(); ++n) in.sites.push_back(n);
  in.dist = DistanceOracle::routing(f.rt);

  const PlannerResult res = plan_optimal(in);
  EXPECT_FALSE(res.feasible);
}

TEST(PlannerTest, PlaceTreeOptimalMatchesPlanOptimalOnFixedShape) {
  // For a 2-source query there is exactly one tree, so the per-tree DP and
  // the mask DP must agree exactly.
  Fixture f(7, 51);
  Prng prng(6);
  QuerySetup qs(2, f.net, prng);
  query::RateModel rates(qs.catalog, qs.q);
  const auto units = base_units(rates);

  std::vector<net::NodeId> sites;
  for (net::NodeId n = 0; n < f.net.node_count(); ++n) sites.push_back(n);
  const DistanceOracle dist = DistanceOracle::routing(f.rt);

  const auto trees = query::enumerate_join_trees({0b01, 0b10});
  ASSERT_EQ(trees.size(), 1u);
  const TreePlacement tp =
      place_tree_optimal(trees[0], units, rates, qs.q.sink, sites, dist);
  ASSERT_TRUE(tp.feasible);

  PlannerInput in;
  in.rates = &rates;
  in.units = units;
  in.target = rates.full();
  in.delivery = qs.q.sink;
  in.sites = sites;
  in.dist = dist;
  const PlannerResult res = plan_optimal(in);
  EXPECT_NEAR(tp.cost, res.cost, 1e-9 * (1.0 + res.cost));
}

TEST(PlannerTest, CountPlansMatchesLemma1ForBaseUnits) {
  // With only singleton units, the cover is unique and the count is
  // (2K-3)!! * S^(K-1).
  Fixture f(6, 61);
  Prng prng(8);
  QuerySetup qs(4, f.net, prng);
  query::RateModel rates(qs.catalog, qs.q);
  const auto units = base_units(rates);
  const double plans = count_plans(units, rates.full(), 6);
  EXPECT_DOUBLE_EQ(plans, 15.0 * std::pow(6.0, 3));
}

void expect_identical(const PlannerResult& a, const PlannerResult& b) {
  ASSERT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.cost, b.cost);  // bitwise, not approximate
  EXPECT_EQ(a.plans_considered, b.plans_considered);
  EXPECT_EQ(a.unit_sources, b.unit_sources);
  ASSERT_EQ(a.deployment.ops.size(), b.deployment.ops.size());
  for (std::size_t i = 0; i < a.deployment.ops.size(); ++i) {
    EXPECT_EQ(a.deployment.ops[i].node, b.deployment.ops[i].node);
    EXPECT_EQ(a.deployment.ops[i].mask, b.deployment.ops[i].mask);
    EXPECT_EQ(a.deployment.ops[i].left, b.deployment.ops[i].left);
    EXPECT_EQ(a.deployment.ops[i].right, b.deployment.ops[i].right);
  }
  EXPECT_EQ(a.deployment.sink, b.deployment.sink);
}

TEST(PlannerTest, ParallelSweepBitwiseIdenticalToSerial) {
  // Large enough that the parallel path actually engages (>= 32 sites). On
  // the sparse table, which holds fewer rows than there are sites, the
  // pool's threads compute, evict and read rows under its lock.
  for (const std::uint64_t seed : {101u, 202u, 303u}) {
    Fixture f(48, seed);
    net::RoutingOptions sparse_opts;
    sparse_opts.mode = net::RoutingMode::kSparse;
    sparse_opts.max_cached_rows = 8;
    net::RoutingTables sparse = net::RoutingTables::build(f.net, sparse_opts);
    Prng prng(seed * 13 + 5);
    QuerySetup qs(4, f.net, prng);
    query::RateModel rates(qs.catalog, qs.q);

    PlannerInput in;
    in.rates = &rates;
    in.units = base_units(rates);
    in.target = rates.full();
    in.delivery = qs.q.sink;
    for (net::NodeId n = 0; n < f.net.node_count(); ++n) in.sites.push_back(n);
    for (const net::RoutingTables* rt : {&f.rt, &sparse}) {
      in.dist = DistanceOracle::routing(*rt);
      PlanWorkspace serial(1);
      PlanWorkspace parallel(4);
      const PlannerResult a = plan_optimal(in, serial);
      const PlannerResult b = plan_optimal(in, parallel);
      expect_identical(a, b);
    }
  }
}

TEST(PlannerTest, WorkspaceReuseAcrossInvocationsIsTransparent) {
  PlanWorkspace ws(2);
  // Alternate between a large and a small instance so the arena is carved
  // at different high-water marks; results must match fresh workspaces.
  for (const auto& [nodes, k, seed] :
       {std::tuple{40, 4, 71u}, std::tuple{6, 3, 72u}, std::tuple{36, 4, 73u}}) {
    Fixture f(nodes, seed);
    Prng prng(seed + 9);
    QuerySetup qs(k, f.net, prng);
    query::RateModel rates(qs.catalog, qs.q);

    PlannerInput in;
    in.rates = &rates;
    in.units = base_units(rates);
    in.target = rates.full();
    in.delivery = qs.q.sink;
    for (net::NodeId n = 0; n < f.net.node_count(); ++n) in.sites.push_back(n);
    in.dist = DistanceOracle::routing(f.rt);

    PlanWorkspace fresh(2);
    expect_identical(plan_optimal(in, ws), plan_optimal(in, fresh));
  }
  EXPECT_GT(ws.capacity(), 0u);
}

TEST(DistanceOracleTest, RoutingOracleMatchesRoutingTables) {
  Fixture f(8, 91);
  const DistanceOracle d = DistanceOracle::routing(f.rt);
  ASSERT_TRUE(d.valid());
  for (net::NodeId a = 0; a < f.net.node_count(); ++a) {
    for (net::NodeId b = 0; b < f.net.node_count(); ++b) {
      EXPECT_EQ(d(a, b), f.rt.cost(a, b));
    }
  }
  EXPECT_FALSE(DistanceOracle{}.valid());
}

}  // namespace
}  // namespace iflow::opt
