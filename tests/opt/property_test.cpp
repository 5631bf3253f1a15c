// Property sweeps over randomized instances:
//   * the mask-DP planner equals literal enumeration under Theorem-1
//     level-estimate oracles too (not just true costs);
//   * with arbitrary sets of derived units, the planner still matches brute
//     force over all reuse covers;
//   * Bottom-Up never beats, and is anchored by, the optimal placement of
//     its own chosen join tree (paper §2.3.2: sub-optimality is bounded
//     with respect to the best deployment of the same join ordering).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "cluster/hierarchy.h"
#include "net/gtitm.h"
#include "opt/bottom_up.h"
#include "opt/search/planner.h"
#include "query/rates.h"

namespace iflow::opt {
namespace {

using query::LeafUnit;
using query::Mask;

struct Instance {
  net::Network net;
  net::RoutingTables rt;
  query::Catalog catalog;
  query::Query q;
  std::vector<LeafUnit> units;

  Instance(int k, int deriveds, std::uint64_t seed) {
    Prng prng(seed);
    net::TransitStubParams p;
    p.transit_count = 1;
    p.stub_domains_per_transit = 2;
    p.stub_domain_size = 3;
    net = net::make_transit_stub(p, prng);
    rt = net::RoutingTables::build(net);
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
    query::RateModel rates(catalog, q);
    for (int i = 0; i < k; ++i) {
      LeafUnit u;
      u.mask = Mask{1} << i;
      u.location = rates.source_node(i);
      u.tuple_rate = rates.tuple_rate(u.mask);
      u.bytes_rate = rates.bytes_rate(u.mask);
      units.push_back(u);
    }
    // Random multi-source derived units (distinct masks with >= 2 bits).
    for (int d = 0; d < deriveds; ++d) {
      const Mask full = rates.full();
      Mask m = 0;
      while (std::popcount(m) < 2) {
        m = (prng.uniform_int(1, static_cast<std::int64_t>(full))) & full;
      }
      LeafUnit u;
      u.mask = m;
      u.location = static_cast<net::NodeId>(prng.index(net.node_count()));
      u.tuple_rate = rates.tuple_rate(m);
      u.bytes_rate = rates.bytes_rate(m);
      u.derived = true;
      units.push_back(u);
    }
  }
};

/// Literal exhaustive reference over covers × trees × placements (same as
/// planner_test's, kept independent on purpose).
double brute_force(const std::vector<LeafUnit>& units,
                   const query::RateModel& rates, net::NodeId delivery,
                   const std::vector<net::NodeId>& sites,
                   const DistanceOracle& dist) {
  double best = std::numeric_limits<double>::infinity();
  std::vector<int> cover;
  auto covers = [&](auto&& self, Mask remaining) -> void {
    if (remaining == 0) {
      std::vector<Mask> masks;
      for (int u : cover) masks.push_back(units[static_cast<std::size_t>(u)].mask);
      for (const query::JoinTree& tree : query::enumerate_join_trees(masks)) {
        // Optimal placement of this fixed tree via the per-tree DP (itself
        // validated against literal placement enumeration elsewhere).
        std::vector<LeafUnit> tree_units;
        for (int u : cover) tree_units.push_back(units[static_cast<std::size_t>(u)]);
        const TreePlacement tp = place_tree_optimal(tree, tree_units, rates,
                                                    delivery, sites, dist);
        if (tp.feasible) best = std::min(best, tp.cost);
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
  covers(covers, rates.full());
  return best;
}

class PlannerPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(PlannerPropertyTest, DpMatchesBruteForceUnderLevelEstimates) {
  const auto [k, deriveds, seed] = GetParam();
  Instance inst(k, deriveds, seed);
  query::RateModel rates(inst.catalog, inst.q);
  Prng hp(seed + 7);
  const cluster::Hierarchy h =
      cluster::Hierarchy::build(inst.net, inst.rt, 4, hp);

  std::vector<net::NodeId> sites;
  for (net::NodeId n = 0; n < inst.net.node_count(); ++n) sites.push_back(n);

  for (int level = 1; level <= h.height(); ++level) {
    const DistanceOracle dist = DistanceOracle::hierarchy(h, level);
    PlannerInput in;
    in.rates = &rates;
    in.units = inst.units;
    in.target = rates.full();
    in.delivery = inst.q.sink;
    in.sites = sites;
    in.dist = dist;
    const PlannerResult res = plan_optimal(in);
    ASSERT_TRUE(res.feasible);
    const double reference =
        brute_force(inst.units, rates, inst.q.sink, sites, dist);
    EXPECT_NEAR(res.cost, reference, 1e-6 * (1.0 + reference))
        << "level " << level;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, PlannerPropertyTest,
    ::testing::Values(std::tuple{3, 0, 1}, std::tuple{3, 1, 2},
                      std::tuple{3, 2, 3}, std::tuple{4, 0, 4},
                      std::tuple{4, 2, 5}, std::tuple{4, 3, 6},
                      std::tuple{5, 1, 7}, std::tuple{5, 3, 8}));

/// Rebuilds the join tree a deployment realised (units as leaves).
query::JoinTree tree_of(const query::Deployment& d) {
  query::JoinTree t;
  // Leaves first (same order as units), then ops in arena order.
  std::vector<int> unit_node(d.units.size());
  for (std::size_t u = 0; u < d.units.size(); ++u) {
    query::TreeNode leaf;
    leaf.unit = static_cast<int>(u);
    leaf.mask = d.units[u].mask;
    t.nodes.push_back(leaf);
    unit_node[u] = static_cast<int>(t.nodes.size()) - 1;
  }
  std::vector<int> op_node(d.ops.size());
  for (std::size_t i = 0; i < d.ops.size(); ++i) {
    auto resolve = [&](int child) {
      return query::child_is_unit(child)
                 ? unit_node[static_cast<std::size_t>(
                       query::child_unit_index(child))]
                 : op_node[static_cast<std::size_t>(child)];
    };
    query::TreeNode n;
    n.left = resolve(d.ops[i].left);
    n.right = resolve(d.ops[i].right);
    n.mask = d.ops[i].mask;
    t.nodes.push_back(n);
    op_node[i] = static_cast<int>(t.nodes.size()) - 1;
  }
  t.root = static_cast<int>(t.nodes.size()) - 1;
  return t;
}

class BottomUpBoundTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BottomUpBoundTest, AnchoredByOptimalPlacementOfItsOwnTree) {
  const std::uint64_t seed = GetParam();
  Prng prng(seed);
  net::TransitStubParams p;
  p.transit_count = 2;
  p.stub_domains_per_transit = 2;
  p.stub_domain_size = 4;
  const net::Network net = net::make_transit_stub(p, prng);
  const auto rt = net::RoutingTables::build(net);
  Prng hp(seed + 1);
  const cluster::Hierarchy h = cluster::Hierarchy::build(net, rt, 4, hp);

  Instance inst(4, 0, seed + 2);  // only for catalog/query shapes
  query::Catalog catalog;
  query::Query q;
  Prng qp(seed + 3);
  for (int i = 0; i < 4; ++i) {
    q.sources.push_back(catalog.add_stream(
        std::string("S").append(std::to_string(i)),
        static_cast<net::NodeId>(qp.index(net.node_count())),
        qp.uniform(5.0, 50.0), qp.uniform(10.0, 100.0)));
  }
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) {
      catalog.set_selectivity(q.sources[static_cast<std::size_t>(a)],
                              q.sources[static_cast<std::size_t>(b)],
                              qp.uniform(0.005, 0.05));
    }
  }
  q.sink = static_cast<net::NodeId>(qp.index(net.node_count()));
  query::RateModel rates(catalog, q);

  OptimizerEnv env;
  env.catalog = &catalog;
  env.network = &net;
  env.routing = &rt;
  env.hierarchy = &h;
  env.reuse = false;
  BottomUpOptimizer bu(env);
  const OptimizeResult res = bu.optimize(q);
  ASSERT_TRUE(res.feasible);

  // Optimal placement of the SAME join ordering over the whole network.
  const query::JoinTree tree = tree_of(res.deployment);
  std::vector<net::NodeId> sites;
  for (net::NodeId n = 0; n < net.node_count(); ++n) sites.push_back(n);
  const TreePlacement tp = place_tree_optimal(
      tree, res.deployment.units, rates, q.sink, sites,
      DistanceOracle::routing(rt));
  ASSERT_TRUE(tp.feasible);
  EXPECT_GE(res.actual_cost, tp.cost - 1e-6 * (1.0 + tp.cost));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BottomUpBoundTest,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace iflow::opt
