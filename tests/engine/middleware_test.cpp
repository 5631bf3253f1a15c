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

// replan() plans against the warm registry regrouped origin by origin in
// active order, which equals a rebuild only if every origin's warm entries
// are exactly what advertise_deployment makes from its current deployment.
// The Debug-only cross-check does not run in Release; this does, through
// public accessors.
void expect_registry_is_a_rebuild(const Middleware& mw, const char* step) {
  SCOPED_TRACE(step);
  std::vector<advert::DerivedStream> regrouped;
  advert::Registry rebuilt;
  for (const Middleware::ActiveView& v : mw.active_views()) {
    for (const advert::DerivedStream& ds : mw.registry().entries()) {
      if (ds.origin == v.query->id) regrouped.push_back(ds);
    }
    advert::advertise_deployment(rebuilt, *v.deployment,
                                 query::RateModel(mw.catalog(), *v.query));
  }
  EXPECT_EQ(mw.registry().size(), rebuilt.size());
  ASSERT_EQ(regrouped.size(), rebuilt.size());
  for (std::size_t i = 0; i < regrouped.size(); ++i) {
    SCOPED_TRACE(i);
    const advert::DerivedStream& warm = regrouped[i];
    const advert::DerivedStream& fresh = rebuilt.entries()[i];
    EXPECT_EQ(warm.streams, fresh.streams);
    EXPECT_EQ(warm.filters, fresh.filters);
    EXPECT_EQ(warm.location, fresh.location);
    EXPECT_EQ(warm.bytes_rate, fresh.bytes_rate);
    EXPECT_EQ(warm.tuple_rate, fresh.tuple_rate);
    EXPECT_EQ(warm.origin, fresh.origin);
  }
}

TEST(MiddlewareTest, WarmRegistryRegroupedInActiveOrderIsARebuild) {
  int reused = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    World w(seed, /*queries=*/5);
    // Copies of the first two queries reuse their operators.
    std::vector<query::Query> queries = w.wl.queries;
    for (std::size_t c = 0; c < 2; ++c) {
      query::Query copy = w.wl.queries[c];
      copy.id = static_cast<query::QueryId>(900 + c);
      queries.push_back(copy);
    }
    Middleware mw(w.net, w.wl.catalog, 4, Algorithm::kTopDown, seed);
    for (const query::Query& q : queries) {
      for (const query::LeafUnit& u : mw.deploy(q).deployment.units) {
        reused += u.derived ? 1 : 0;
      }
    }
    expect_registry_is_a_rebuild(mw, "deploy");

    const net::NodeId victim =
        mw.active_views().front().deployment->ops.front().node;
    mw.fail_node(victim);
    expect_registry_is_a_rebuild(mw, "fail_node");
    const query::StreamId s = queries[0].sources[0];
    mw.set_stream_rate(s, w.wl.catalog.stream(s).tuple_rate * 3.0);
    expect_registry_is_a_rebuild(mw, "set_stream_rate");
    mw.settle();
    expect_registry_is_a_rebuild(mw, "settle after the spike");
    mw.restore_node(victim);
    expect_registry_is_a_rebuild(mw, "restore_node");
    ASSERT_TRUE(mw.undeploy(queries[0].id));
    expect_registry_is_a_rebuild(mw, "undeploy");
    mw.settle();
    expect_registry_is_a_rebuild(mw, "settle after the departure");
  }
  EXPECT_GT(reused, 0);
}

TEST(MiddlewareTest, MigrationFeedRecordsOnlyWhileAttached) {
  // The join runs on the primary relay: failing it moves the join to the
  // backup, and the replan after the restore moves it back.
  workload::RelayStar w = workload::make_relay_star(30.0, 0.05);
  Middleware mw(w.net, w.catalog, 8, Algorithm::kBottomUp, 11);
  ASSERT_TRUE(mw.deploy(w.query).feasible);
  const auto cycles = [&](int count) {
    for (int i = 0; i < count; ++i) {
      mw.fail_node(w.primary);
      mw.restore_node(w.primary);
      mw.reoptimize();
    }
  };
  std::vector<StateMigration> feed;
  mw.record_migrations(&feed);
  cycles(3);
  const std::size_t recorded = feed.size();
  EXPECT_GE(recorded, 3u);
  mw.record_migrations(nullptr);
  cycles(3);
  EXPECT_EQ(feed.size(), recorded);
}

}  // namespace
}  // namespace iflow::engine
