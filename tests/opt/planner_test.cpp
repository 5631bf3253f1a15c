#include "opt/search/planner.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <string>

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

/// The old nested-vector count: one vector of partition counts per subset
/// rank, terms added in the same order the planner adds them.
double textbook_count_plans(const std::vector<LeafUnit>& units, Mask target,
                            std::size_t site_count) {
  const int k = std::popcount(target);
  const std::size_t R = std::size_t{1} << k;
  // Ranks as in the planner: the i-th lowest bit of the target is bit i.
  const auto rank = [target](Mask m) {
    std::size_t r = 0;
    int out = 0;
    for (Mask t = target; t != 0; t &= t - 1, ++out) {
      if ((m & t & (~t + 1)) != 0) r |= std::size_t{1} << out;
    }
    return r;
  };
  std::vector<std::vector<double>> ways(R);
  ways[0].assign(1, 1.0);
  for (std::size_t r = 1; r < R; ++r) {
    ways[r].assign(static_cast<std::size_t>(k) + 1, 0.0);
    const std::size_t low = r & (~r + 1);
    for (const LeafUnit& u : units) {
      if ((u.mask & ~target) != 0) continue;
      const std::size_t ur = rank(u.mask);
      if (ur == 0 || (ur & low) == 0 || (ur & ~r) != 0) continue;
      const std::vector<double>& sub = ways[r ^ ur];
      for (std::size_t c = 0; c + 1 < ways[r].size() && c < sub.size(); ++c) {
        ways[r][c + 1] += sub[c];
      }
    }
  }
  double total = 0.0;
  for (std::size_t c = 1; c < ways[R - 1].size(); ++c) {
    if (ways[R - 1][c] == 0.0) continue;
    double trees = 1.0;
    for (int f = 2 * static_cast<int>(c) - 3; f >= 3; f -= 2) trees *= f;
    total += ways[R - 1][c] * trees *
             std::pow(static_cast<double>(site_count),
                      static_cast<double>(c) - 1.0);
  }
  return total;
}

/// How often a later candidate equalled a cell's running best, so lost the
/// tie to the earlier one under strict <.
struct TieCounts {
  std::size_t splits = 0;       // two splits of a mask at one site
  std::size_t relays = 0;       // two relay sites for one cell
  std::size_t unit_relay = 0;   // a relay equal to the best unit
};

/// Textbook mask DP that records every cell's argmin eagerly (splits, then
/// units by index, then relay sites by index, all under strict <, per
/// destination site in the outer loop) and reconstructs from the records.
/// Distances are read as the planner reads them: matrix rows through
/// fill_from, the sink column and the final cost pairwise.
PlannerResult textbook_plan(const PlannerInput& in, TieCounts* ties) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  const std::size_t S = in.sites.size();
  const std::size_t U = in.units.size();
  const Mask target = in.target;
  const bool deliver = in.delivery != net::kInvalidNode;
  std::vector<std::vector<double>> site_from(S, std::vector<double>(S));
  std::vector<std::vector<double>> unit_site(U, std::vector<double>(S));
  for (std::size_t q = 0; q < S; ++q) {
    in.dist.fill_from(in.sites[q], in.sites.data(), S, site_from[q].data());
  }
  for (std::size_t u = 0; u < U; ++u) {
    in.dist.fill_from(in.units[u].location, in.sites.data(), S,
                      unit_site[u].data());
  }

  struct Cell {
    double g = inf;
    int unit = -1;     // g came from this unit
    int relay = -1;    // ... or from an op at this site plus the edge
    double op = inf;   // best_op
    Mask split = 0;    // the op's A side
  };
  std::map<Mask, std::vector<Cell>> cells;
  // Submasks of the target in ascending order: every proper submask comes
  // before its supersets.
  for (Mask m = 0; m != target;) {
    m = (m - target) & target;
    std::vector<Cell>& row = cells[m];
    row.assign(S, Cell{});
    const bool joinable = std::popcount(m) >= 2;
    const Mask low = m & (~m + 1);
    for (std::size_t p = 0; p < S && joinable; ++p) {
      const Mask rest = m ^ low;
      for (Mask b = rest; b != 0; b = (b - 1) & rest) {
        const Mask a = m ^ b;
        const double c = cells[a][p].g + cells[b][p].g;
        if (ties != nullptr && c == row[p].op && c != inf) ++ties->splits;
        if (c < row[p].op) {
          row[p].op = c;
          row[p].split = a;
        }
      }
    }
    const double rate_m = in.rates->bytes_rate(m);
    for (std::size_t p = 0; p < S; ++p) {
      Cell& cell = row[p];
      for (std::size_t u = 0; u < U; ++u) {
        if (in.units[u].mask != m) continue;
        const double c = in.units[u].bytes_rate * unit_site[u][p];
        if (c < cell.g) {
          cell.g = c;
          cell.unit = static_cast<int>(u);
        }
      }
      for (std::size_t q = 0; q < S && joinable; ++q) {
        if (row[q].op == inf) continue;
        const double c = row[q].op + rate_m * site_from[q][p];
        if (ties != nullptr && c == cell.g && c != inf) {
          ++(cell.relay >= 0 ? ties->relays : ties->unit_relay);
        }
        if (c < cell.g) {
          cell.g = c;
          cell.unit = -1;
          cell.relay = static_cast<int>(q);
        }
      }
    }
  }

  PlannerResult result;
  result.plans_considered = textbook_count_plans(in.units, target, S);
  const double deliver_rate = in.delivery_bytes_rate >= 0.0
                                  ? in.delivery_bytes_rate
                                  : in.rates->bytes_rate(target);
  double best = inf;
  int final_unit = -1;
  int final_site = -1;
  for (std::size_t u = 0; u < U; ++u) {
    if (in.units[u].mask != target) continue;
    const double rate = in.delivery_bytes_rate >= 0.0
                            ? in.delivery_bytes_rate
                            : in.units[u].bytes_rate;
    const double c =
        deliver ? rate * in.dist(in.units[u].location, in.delivery) : 0.0;
    if (c < best) {
      best = c;
      final_unit = static_cast<int>(u);
    }
  }
  for (std::size_t q = 0; q < S && std::popcount(target) >= 2; ++q) {
    const double op = cells[target][q].op;
    if (op == inf) continue;
    const double c =
        op + (deliver ? deliver_rate * in.dist(in.sites[q], in.delivery)
                      : 0.0);
    if (c < best) {
      best = c;
      final_unit = -1;
      final_site = static_cast<int>(q);
    }
  }
  if (best == inf) return result;

  query::Deployment dep;
  dep.query = in.query_id;
  std::map<int, int> slot_of;
  const auto use_unit = [&](int u) {
    const auto [it, fresh] =
        slot_of.emplace(u, static_cast<int>(dep.units.size()));
    if (fresh) {
      dep.units.push_back(in.units[static_cast<std::size_t>(u)]);
      result.unit_sources.push_back(u);
    }
    return query::encode_unit_child(it->second);
  };
  const auto build = [&](auto&& self, Mask m, int unit, int site) -> int {
    if (unit >= 0) return use_unit(unit);
    const auto q = static_cast<std::size_t>(site);
    const Mask a = cells[m][q].split;
    const Mask b = m ^ a;
    const Cell& ca = cells[a][q];
    const Cell& cb = cells[b][q];
    const int left = self(self, a, ca.unit, ca.relay);
    const int right = self(self, b, cb.unit, cb.relay);
    query::DeployedOp op;
    op.mask = m;
    op.left = left;
    op.right = right;
    op.node = in.sites[q];
    op.out_bytes_rate = in.rates->bytes_rate(m);
    op.out_tuple_rate = in.rates->tuple_rate(m);
    dep.ops.push_back(op);
    return static_cast<int>(dep.ops.size()) - 1;
  };
  build(build, target, final_unit, final_site);
  dep.sink = deliver ? in.delivery : dep.root_node();

  double cost = 0.0;
  for (const query::DeployedOp& op : dep.ops) {
    for (const int child : {op.left, op.right}) {
      net::NodeId from = net::kInvalidNode;
      double rate = 0.0;
      if (query::child_is_unit(child)) {
        const LeafUnit& u =
            dep.units[static_cast<std::size_t>(query::child_unit_index(child))];
        from = u.location;
        rate = u.bytes_rate;
      } else {
        from = dep.ops[static_cast<std::size_t>(child)].node;
        rate = dep.ops[static_cast<std::size_t>(child)].out_bytes_rate;
      }
      cost += rate * in.dist(from, op.node);
    }
  }
  if (deliver) cost += deliver_rate * in.dist(dep.root_node(), dep.sink);
  result.feasible = true;
  result.cost = cost;
  result.deployment = std::move(dep);
  return result;
}

/// Full equality with the textbook DP, also in the deployment's units.
void expect_matches_textbook(const PlannerInput& in, const PlannerResult& got,
                             TieCounts* ties) {
  const PlannerResult want = textbook_plan(in, ties);
  expect_identical(got, want);
  ASSERT_EQ(got.deployment.units.size(), want.deployment.units.size());
  for (std::size_t i = 0; i < got.deployment.units.size(); ++i) {
    EXPECT_EQ(got.deployment.units[i].mask, want.deployment.units[i].mask);
    EXPECT_EQ(got.deployment.units[i].location,
              want.deployment.units[i].location);
  }
  if (got.feasible) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.deployment.planned_cost),
              std::bit_cast<std::uint64_t>(want.cost));
  }
}

/// A planner input over `net` with k sources: base units, plus (with
/// `derived`) reusable units for random submasks of two or more sources,
/// several per mask at different locations, one covering the whole target
/// now and then. With `integral`, every stream has tuple rate 1, an integer
/// width and selectivity 1, so every byte rate is an integer.
struct World {
  query::Catalog catalog;
  query::Query q;
  std::unique_ptr<query::RateModel> rates;
  PlannerInput in;

  World(const net::Network& net, int k, bool integral, bool derived,
        Prng& prng) {
    const auto node = [&] {
      return static_cast<net::NodeId>(prng.index(net.node_count()));
    };
    for (int i = 0; i < k; ++i) {
      const net::NodeId at = node();
      const double rate = integral ? 1.0 : prng.uniform(5.0, 50.0);
      const double width = integral ? static_cast<double>(1 + prng.index(3))
                                    : prng.uniform(10.0, 100.0);
      q.sources.push_back(
          catalog.add_stream("S" + std::to_string(i), at, rate, width));
    }
    for (int a = 0; a < k && !integral; ++a) {
      for (int b = a + 1; b < k; ++b) {
        catalog.set_selectivity(q.sources[static_cast<std::size_t>(a)],
                                q.sources[static_cast<std::size_t>(b)],
                                prng.uniform(0.005, 0.05));
      }
    }
    rates = std::make_unique<query::RateModel>(catalog, q);
    in.rates = rates.get();
    in.units = base_units(*rates);
    in.target = rates->full();
    for (int d = 0; derived && k >= 2 && d < k; ++d) {
      Mask m = 0;
      while (std::popcount(m) < 2) {
        m = static_cast<Mask>(prng.index(std::size_t{1} << k));
      }
      for (int copy = 1 + static_cast<int>(prng.index(3)); copy > 0; --copy) {
        LeafUnit u;
        u.mask = m;
        u.location = node();
        u.tuple_rate = rates->tuple_rate(m);
        u.bytes_rate = rates->bytes_rate(m);
        u.derived = true;
        in.units.push_back(u);
      }
    }
    for (net::NodeId n = 0; n < net.node_count(); ++n) in.sites.push_back(n);
  }
};

/// A connected random graph whose link costs are 1 or 2, so equal-cost
/// paths, relay sites and splits are common.
net::Network integer_network(int nodes, Prng& prng) {
  net::Network net;
  for (int i = 0; i < nodes; ++i) net.add_node();
  const auto cost = [&] { return 1.0 + static_cast<double>(prng.index(2)); };
  for (int i = 1; i < nodes; ++i) {
    const auto parent = prng.index(static_cast<std::size_t>(i));
    net.add_link(static_cast<net::NodeId>(i), static_cast<net::NodeId>(parent),
                 cost(), 1.0, 1e6);
  }
  for (int i = 0; i < nodes; ++i) {
    for (int j = i + 2; j < nodes; ++j) {
      if (prng.chance(0.15)) {
        net.add_link(static_cast<net::NodeId>(i), static_cast<net::NodeId>(j),
                     cost(), 1.0, 1e6);
      }
    }
  }
  return net;
}

/// Plans `w` serially and on four threads, with and without a delivery
/// node and with an aggregate delivery rate, and requires every result to
/// match the textbook DP bit for bit.
void expect_all_variants_match(World& w, net::NodeId sink, TieCounts& ties) {
  PlanWorkspace serial(1);
  PlanWorkspace parallel(4);
  for (const int variant : {0, 1, 2}) {
    w.in.delivery = variant == 1 ? net::kInvalidNode : sink;
    w.in.delivery_bytes_rate = variant == 2 ? 3.0 : -1.0;
    const PlannerResult a = plan_optimal(w.in, serial);
    const PlannerResult b = plan_optimal(w.in, parallel);
    expect_matches_textbook(w.in, a, &ties);
    expect_identical(a, b);
  }
}

TEST(PlannerTextbookTest, TieHeavyIntegerWorldsMatchBitForBit) {
  TieCounts ties;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Prng prng(seed * 101);
    // Alternate small worlds and ones wide enough for the pool to sweep.
    const int nodes = seed % 2 == 0 ? 36 : 9;
    const net::Network net = integer_network(nodes, prng);
    const net::RoutingTables rt = net::RoutingTables::build(net);
    const int k = 1 + static_cast<int>((seed - 1) % 6);
    World w(net, k, /*integral=*/true, /*derived=*/true, prng);
    const auto sink = static_cast<net::NodeId>(prng.index(net.node_count()));
    w.in.dist = DistanceOracle::routing(rt);
    expect_all_variants_match(w, sink, ties);
    if (HasFatalFailure()) FAIL() << "seed " << seed;
    // Theorem-1 estimates at every level, with two nodes out of the
    // hierarchy: their rows and columns read +inf.
    cluster::Hierarchy h = cluster::Hierarchy::build(net, rt, 4, prng);
    for (int gone = 0; gone < 2; ++gone) {
      h.remove_node(h.level(1)[prng.index(h.level(1).size())].members.front(),
                    rt);
    }
    for (int l = 1; l <= h.height(); ++l) {
      w.in.dist = DistanceOracle::hierarchy(h, l);
      expect_all_variants_match(w, sink, ties);
      if (HasFatalFailure()) FAIL() << "seed " << seed << " level " << l;
    }
  }
  // The worlds must actually exercise every kind of tie.
  EXPECT_GT(ties.splits, 0u);
  EXPECT_GT(ties.relays, 0u);
  EXPECT_GT(ties.unit_relay, 0u);
}

TEST(PlannerTextbookTest, RandomWorldsMatchBitForBit) {
  TieCounts ties;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const int nodes = seed % 3 == 0 ? 40 : 12;
    Fixture f(nodes, seed * 31);
    Prng prng(seed * 7 + 3);
    const int k = 1 + static_cast<int>((seed - 1) % 6);
    World w(f.net, k, /*integral=*/false, /*derived=*/seed % 2 == 0, prng);
    // Some worlds plan a sparse target (a source left out), some price
    // through a health penalty.
    if (seed % 4 == 1 && k >= 3) w.in.target &= ~Mask{2};
    std::vector<double> penalty(f.net.node_count());
    for (double& pen : penalty) pen = prng.uniform(1.0, 2.0);
    w.in.dist = DistanceOracle::routing(f.rt).with_node_penalty(
        seed % 3 == 2 ? &penalty : nullptr);
    expect_all_variants_match(
        w, static_cast<net::NodeId>(prng.index(f.net.node_count())), ties);
    if (HasFatalFailure()) FAIL() << "seed " << seed;
  }
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
