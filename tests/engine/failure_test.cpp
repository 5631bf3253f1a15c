// Node-failure handling: operators migrate off a node that can no longer
// host processing (the paper handles node departures in the hierarchy;
// operator migration is the middleware's job).
#include <gtest/gtest.h>

#include <cmath>

#include "engine/middleware.h"
#include "net/gtitm.h"
#include "workload/generator.h"

namespace iflow::engine {
namespace {

struct World {
  net::Network net;
  workload::Workload wl;

  explicit World(std::uint64_t seed, int queries = 5) {
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

  /// A node hosting at least one operator but no source and no sink.
  net::NodeId victim(const Middleware& mw) const {
    std::vector<int> ops_at(net.node_count(), 0);
    for (const query::Deployment* d : mw.deployments()) {
      for (const query::DeployedOp& op : d->ops) ops_at[op.node]++;
    }
    for (query::StreamId s = 0; s < wl.catalog.stream_count(); ++s) {
      ops_at[wl.catalog.stream(s).source] = -1;
    }
    for (const query::Query& q : wl.queries) ops_at[q.sink] = -1;
    const auto it = std::max_element(ops_at.begin(), ops_at.end());
    return (*it > 0) ? static_cast<net::NodeId>(it - ops_at.begin())
                     : net::kInvalidNode;
  }
};

TEST(FailureTest, OperatorsMigrateOffFailedNode) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    World w(seed);
    Middleware mw(w.net, w.wl.catalog, 4, Algorithm::kTopDown, 99);
    for (const query::Query& q : w.wl.queries) mw.deploy(q);
    const net::NodeId victim = w.victim(mw);
    if (victim == net::kInvalidNode) continue;  // all ops on pinned nodes

    const auto moves = mw.fail_node(victim);
    EXPECT_FALSE(moves.empty()) << "seed " << seed;
    for (const query::Deployment* d : mw.deployments()) {
      for (const query::DeployedOp& op : d->ops) {
        EXPECT_NE(op.node, victim) << "seed " << seed;
      }
      for (const query::LeafUnit& u : d->units) {
        if (u.derived) {
          EXPECT_NE(u.location, victim) << "seed " << seed;
        }
      }
      EXPECT_NO_THROW(query::validate_deployment(*d));
    }
    // Costs remain well-defined and the registry holds no stale providers.
    EXPECT_GE(mw.total_current_cost(), 0.0);
  }
}

TEST(FailureTest, SubsequentDeploysAvoidFailedNodes) {
  // Star topology: three sources around a hub; joining at the hub is
  // strictly optimal, so the hub hosts operators and is a migratable
  // victim (it is neither a source nor a sink).
  net::Network net;
  const auto hub = net.add_node();
  const auto a_node = net.add_node();
  const auto b_node = net.add_node();
  const auto c_node = net.add_node();
  const auto sink = net.add_node();
  const auto spare = net.add_node();
  for (net::NodeId n : {a_node, b_node, c_node, sink, spare}) {
    net.add_link(hub, n, 1.0, 1.0, 1e6);
  }
  query::Catalog catalog;
  const auto a = catalog.add_stream("A", a_node, 50.0, 100.0);
  const auto b = catalog.add_stream("B", b_node, 50.0, 100.0);
  const auto c = catalog.add_stream("C", c_node, 50.0, 100.0);
  catalog.set_selectivity(a, b, 0.001);
  catalog.set_selectivity(a, c, 0.001);
  catalog.set_selectivity(b, c, 0.001);
  query::Query q1;
  q1.id = 1;
  q1.sources = {a, b, c};
  q1.sink = sink;

  Middleware mw(net, catalog, 4, Algorithm::kExhaustive, 7);
  const opt::OptimizeResult first = mw.deploy(q1);
  bool hub_used = false;
  for (const query::DeployedOp& op : first.deployment.ops) {
    hub_used |= (op.node == hub);
  }
  ASSERT_TRUE(hub_used) << "the hub must be the optimal meeting point";

  const auto moves = mw.fail_node(hub);
  EXPECT_FALSE(moves.empty());
  // A new query must also avoid the hub.
  query::Query q2 = q1;
  q2.id = 2;
  q2.sink = spare;
  const opt::OptimizeResult r = mw.deploy(q2);
  for (const query::DeployedOp& op : r.deployment.ops) {
    EXPECT_NE(op.node, hub);
  }
}

TEST(FailureTest, SuspendsQueriesWithFailedSource) {
  World w(5, 2);
  Middleware mw(w.net, w.wl.catalog, 4, Algorithm::kTopDown, 3);
  for (const query::Query& q : w.wl.queries) mw.deploy(q);
  const std::size_t before = mw.active_queries();
  ASSERT_GT(before, 0u);

  // Failing a source node suspends (never throws) every query drawing from
  // it; the others keep running or migrate.
  const net::NodeId src = w.wl.catalog.stream(0).source;
  std::size_t drawing = 0;
  for (const query::Query& q : w.wl.queries) {
    for (query::StreamId s : q.sources) {
      if (w.wl.catalog.stream(s).source == src) {
        ++drawing;
        break;
      }
    }
  }
  const auto reds = mw.fail_node(src);
  std::size_t suspended = 0;
  for (const Redeployment& r : reds) {
    if (r.outcome == Outcome::kSuspended) ++suspended;
  }
  EXPECT_EQ(suspended, drawing);
  EXPECT_EQ(mw.suspended_queries(), drawing);
  EXPECT_EQ(mw.active_queries(), before - drawing);
  for (const Middleware::SuspendedQuery& sq : mw.suspended()) {
    EXPECT_EQ(sq.attempts, 0);
  }

  // Restoring the node resumes every suspended query.
  const auto resumed = mw.restore_node(src);
  std::size_t resumed_count = 0;
  for (const Redeployment& r : resumed) {
    if (r.outcome == Outcome::kResumed) ++resumed_count;
  }
  EXPECT_EQ(resumed_count, drawing);
  EXPECT_EQ(mw.suspended_queries(), 0u);
  EXPECT_EQ(mw.active_queries(), before);
}

TEST(FailureTest, SuspendsQueriesWithFailedSink) {
  World w(5, 2);
  Middleware mw(w.net, w.wl.catalog, 4, Algorithm::kTopDown, 3);
  for (const query::Query& q : w.wl.queries) mw.deploy(q);
  const std::size_t before = mw.active_queries();
  const net::NodeId sink = w.wl.queries.front().sink;
  std::size_t sinking = 0;
  for (const query::Query& q : w.wl.queries) sinking += (q.sink == sink);

  const auto reds = mw.fail_node(sink);
  std::size_t suspended = 0;
  for (const Redeployment& r : reds) {
    if (r.outcome == Outcome::kSuspended) ++suspended;
  }
  EXPECT_EQ(suspended, sinking);
  EXPECT_EQ(mw.active_queries(), before - sinking);

  const auto resumed = mw.restore_node(sink);
  EXPECT_EQ(mw.suspended_queries(), 0u);
  EXPECT_EQ(mw.active_queries(), before);
  for (const Redeployment& r : resumed) {
    if (r.outcome == Outcome::kResumed) {
      EXPECT_TRUE(std::isfinite(r.adapted_cost));
    }
  }
}

TEST(FailureTest, DeployWhileEndpointDownParksTheQuery) {
  World w(5, 2);
  Middleware mw(w.net, w.wl.catalog, 4, Algorithm::kTopDown, 3);
  const net::NodeId src = w.wl.catalog.stream(0).source;
  mw.fail_node(src);
  query::Query q;
  for (const query::Query& cand : w.wl.queries) {
    bool uses = false;
    for (query::StreamId s : cand.sources) {
      uses |= (w.wl.catalog.stream(s).source == src);
    }
    if (uses) {
      q = cand;
      break;
    }
  }
  ASSERT_FALSE(q.sources.empty());
  const opt::OptimizeResult res = mw.deploy(q);
  EXPECT_FALSE(res.feasible);
  EXPECT_EQ(mw.suspended_queries(), 1u);
  EXPECT_EQ(mw.active_queries(), 0u);
  mw.restore_node(src);
  EXPECT_EQ(mw.suspended_queries(), 0u);
  EXPECT_EQ(mw.active_queries(), 1u);
}

TEST(FailureTest, UnaffectedDeploymentsStayPut) {
  World w(6);
  Middleware mw(w.net, w.wl.catalog, 4, Algorithm::kTopDown, 11);
  for (const query::Query& q : w.wl.queries) mw.deploy(q);
  // Fail a node hosting nothing.
  std::vector<char> used(w.net.node_count(), 0);
  for (const query::Deployment* d : mw.deployments()) {
    for (const query::DeployedOp& op : d->ops) used[op.node] = 1;
  }
  for (query::StreamId s = 0; s < w.wl.catalog.stream_count(); ++s) {
    used[w.wl.catalog.stream(s).source] = 1;
  }
  for (const query::Query& q : w.wl.queries) used[q.sink] = 1;
  net::NodeId idle = net::kInvalidNode;
  for (net::NodeId n = 0; n < w.net.node_count(); ++n) {
    if (!used[n]) {
      idle = n;
      break;
    }
  }
  ASSERT_NE(idle, net::kInvalidNode);
  const double before = mw.total_current_cost();
  const auto moves = mw.fail_node(idle);
  EXPECT_TRUE(moves.empty());
  EXPECT_NEAR(mw.total_current_cost(), before, 1e-9 * (1.0 + before));
}

TEST(FailureTest, OverloadedAnchorSuspendsInsteadOfLooping) {
  // Two nodes, each an endpoint of the single query: stream A and the sink
  // on node 0, stream B on node 1. Wherever the join runs, its input load
  // lands on one of the query's own anchor nodes, so once a rate spike
  // pushes that load over capacity no replan can ever vacate the node.
  net::Network net;
  net.add_node();
  net.add_node();
  net.add_link(0, 1, 1.0, 1.0, 1e6);
  query::Catalog catalog;
  const query::StreamId a = catalog.add_stream("A", 0, 50.0, 100.0);
  const query::StreamId b = catalog.add_stream("B", 1, 50.0, 100.0);
  catalog.set_selectivity(a, b, 0.01);
  query::Query q;
  q.id = 1;
  q.sources = {a, b};
  q.sink = 0;

  Middleware mw(net, catalog, 4, Algorithm::kTopDown, 99);
  ASSERT_TRUE(mw.deploy(q).feasible);
  const std::vector<double> loads = mw.node_loads();
  const double peak = *std::max_element(loads.begin(), loads.end());
  ASSERT_GT(peak, 0.0);
  AdmissionConfig cfg;
  cfg.node_capacity = peak * 1.5;
  mw.set_admission_config(cfg);
  EXPECT_TRUE(mw.rebalance_load().empty());  // within capacity as deployed

  // Spike both streams 10x: every possible host is now overloaded and
  // anchored. rebalance_load() must suspend the query (load shedding at
  // query granularity) rather than terminate with the node still drowning
  // — the historical behaviour was breaking out with "nothing can move".
  mw.set_stream_rate(a, 500.0);
  mw.set_stream_rate(b, 500.0);
  const std::vector<Redeployment> moves = mw.rebalance_load();
  bool suspended = false;
  for (const Redeployment& r : moves) {
    suspended |= (r.outcome == Outcome::kSuspended && r.query == q.id);
  }
  EXPECT_TRUE(suspended);
  EXPECT_EQ(mw.active_queries(), 0u);
  EXPECT_EQ(mw.suspended_queries(), 1u);
  // The shed node carries no operator load any more.
  const std::vector<double> after = mw.node_loads();
  for (const double l : after) EXPECT_DOUBLE_EQ(l, 0.0);
}

}  // namespace
}  // namespace iflow::engine
