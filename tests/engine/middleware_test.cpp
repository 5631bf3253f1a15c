#include "engine/middleware.h"

#include <gtest/gtest.h>

#include "net/gtitm.h"
#include "workload/generator.h"

namespace iflow::engine {
namespace {

struct World {
  net::Network net;
  workload::Workload wl;

  explicit World(std::uint64_t seed, int queries = 4) {
    Prng prng(seed);
    net::TransitStubParams p;
    p.transit_count = 2;
    p.stub_domains_per_transit = 2;
    p.stub_domain_size = 4;
    net = net::make_transit_stub(p, prng);
    workload::WorkloadParams wp;
    wp.num_streams = 6;
    wp.min_joins = 2;
    wp.max_joins = 3;
    Prng wprng(seed + 1);
    wl = workload::make_workload(net, wp, queries, wprng);
  }
};

TEST(MiddlewareTest, DeployTracksActiveQueriesAndCosts) {
  World w(1);
  Middleware mw(w.net, w.wl.catalog, 4, Algorithm::kTopDown, 99);
  double total = 0.0;
  for (const query::Query& q : w.wl.queries) {
    const opt::OptimizeResult r = mw.deploy(q);
    ASSERT_TRUE(r.feasible);
    total += r.actual_cost;
  }
  EXPECT_EQ(mw.active_queries(), w.wl.queries.size());
  EXPECT_NEAR(mw.total_current_cost(), total, 1e-6 * (1.0 + total));
  EXPECT_GT(mw.registry().size(), 0u);
}

TEST(MiddlewareTest, NoAdaptationWithoutDrift) {
  World w(2);
  Middleware mw(w.net, w.wl.catalog, 4, Algorithm::kTopDown, 99);
  for (const query::Query& q : w.wl.queries) mw.deploy(q);
  EXPECT_TRUE(mw.adapt().empty());
}

TEST(MiddlewareTest, AdaptsWhenLinkCostSpikes) {
  World w(3);
  Middleware mw(w.net, w.wl.catalog, 4, Algorithm::kExhaustive, 99,
                /*drift_threshold=*/1.05);
  for (const query::Query& q : w.wl.queries) mw.deploy(q);
  const double before = mw.total_current_cost();

  // Blow up the cost of every link touching node 0's neighbourhood — some
  // deployment almost certainly crosses it.
  int changed = 0;
  for (const net::Link& l : std::vector<net::Link>(w.net.links())) {
    if (l.a == 0 || l.b == 0 || l.a == 1 || l.b == 1) {
      mw.set_link_cost(l.a, l.b, l.cost_per_byte * 50.0);
      ++changed;
    }
  }
  ASSERT_GT(changed, 0);
  const double drifted = mw.total_current_cost();

  const std::vector<Redeployment> redeployed = mw.adapt();
  const double after = mw.total_current_cost();
  EXPECT_LE(after, drifted + 1e-9);
  for (const Redeployment& r : redeployed) {
    EXPECT_LE(r.adapted_cost, r.drifted_cost + 1e-9);
  }
  // Costs should not fall below the pre-change level by magic.
  EXPECT_GE(after, 0.0);
  (void)before;
}

TEST(MiddlewareTest, AdaptedDeploymentsRemainValid) {
  World w(4);
  Middleware mw(w.net, w.wl.catalog, 4, Algorithm::kBottomUp, 17,
                /*drift_threshold=*/1.01);
  for (const query::Query& q : w.wl.queries) mw.deploy(q);
  for (const net::Link& l : std::vector<net::Link>(w.net.links())) {
    if (w.net.kind(l.a) == net::NodeKind::kTransit &&
        w.net.kind(l.b) == net::NodeKind::kTransit) {
      mw.set_link_cost(l.a, l.b, l.cost_per_byte * 20.0);
    }
  }
  mw.adapt();
  // total_current_cost() revalidates deployments via deployment_cost; this
  // must not throw.
  EXPECT_GE(mw.total_current_cost(), 0.0);
  EXPECT_GT(mw.registry().size(), 0u);
}

// An aggregating sink receives groups, not the join result, so it exports
// nothing a later query could reuse. A plain query over the same streams
// that planned against such an advertisement would draw on a producer the
// engine never registers.
TEST(MiddlewareTest, AggregatingSinkIsNotAReuseProvider) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    World w(seed, /*queries=*/1);
    const std::size_t nodes = w.net.node_count();
    Prng prng(seed + 2);
    query::Catalog catalog;
    const query::StreamId a = catalog.add_stream(
        "A", static_cast<net::NodeId>(prng.index(nodes)), 60.0, 100.0);
    const query::StreamId b = catalog.add_stream(
        "B", static_cast<net::NodeId>(prng.index(nodes)), 60.0, 100.0);
    catalog.set_selectivity(a, b, 0.02);
    query::Query counted;
    counted.id = 1;
    counted.sources = {a, b};
    counted.sink = static_cast<net::NodeId>(prng.index(nodes));
    counted.aggregate.fn = query::AggregateFn::kCount;
    query::Query plain = counted;
    plain.id = 2;
    plain.aggregate = query::Aggregation{};
    plain.sink = static_cast<net::NodeId>(prng.index(nodes));

    Middleware mw(w.net, catalog, 4, Algorithm::kExhaustive, seed);
    ASSERT_TRUE(mw.deploy(counted).feasible);
    ASSERT_TRUE(mw.deploy(plain).feasible);
    EngineConfig cfg;
    Simulation sim(w.net, mw.routing(), catalog, cfg, seed);
    EXPECT_TRUE(mw.deploy_actives(sim));
  }
}

// A query B identical to A reuses A's export. When a fault forces A to
// replan, B's export is off limits: reusing it would close a cycle in which
// each query claims the other produces the data. Both must still bind in
// the engine afterwards.
TEST(MiddlewareTest, ReplanNeverReusesADependentsExport) {
  int reached = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(seed);
    World w(seed);
    const query::Query& a = w.wl.queries[0];
    query::Query b = a;
    b.id = 900;
    b.name = "copy";
    Middleware mw(w.net, w.wl.catalog, 4, Algorithm::kExhaustive, seed);
    const opt::OptimizeResult ares = mw.deploy(a);
    if (!ares.feasible) continue;
    const opt::OptimizeResult bres = mw.deploy(b);
    if (!bres.feasible) continue;
    bool reused = false;
    for (const query::LeafUnit& u : bres.deployment.units) {
      reused = reused || u.derived;
    }
    if (!reused) continue;
    // A host of one of A's operators that is none of A's endpoints.
    const auto endpoint = [&](net::NodeId n) {
      if (n == a.sink) return true;
      for (const query::StreamId s : a.sources) {
        if (w.wl.catalog.stream(s).source == n) return true;
      }
      return false;
    };
    net::NodeId target = net::kInvalidNode;
    for (const query::DeployedOp& op : ares.deployment.ops) {
      if (!endpoint(op.node)) {
        target = op.node;
        break;
      }
    }
    if (target == net::kInvalidNode) continue;
    mw.fail_node(target);
    if (mw.active_queries() != 2) continue;
    ++reached;
    // B is the only other active, so any derived unit of A would be B's.
    for (const Middleware::ActiveView& v : mw.active_views()) {
      if (v.query->id != a.id) continue;
      for (const query::LeafUnit& u : v.deployment->units) {
        EXPECT_FALSE(u.derived);
      }
    }
    EngineConfig cfg;
    Simulation sim(w.net, mw.routing(), w.wl.catalog, cfg, seed);
    EXPECT_TRUE(mw.deploy_actives(sim));
  }
  EXPECT_GT(reached, 0);
}

}  // namespace
}  // namespace iflow::engine
