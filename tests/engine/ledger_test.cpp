// ResourceLedger exactness under lifecycle interleavings (DESIGN.md §14/§15).
//
// The ledger is maintained by signed footprint applications on every
// deploy / undeploy / suspend / resume / migrate, never rebuilt. These tests
// drive the interleavings that historically corrupt incremental accounting —
// suspend -> undeploy-while-suspended -> restore, and quarantine ->
// undeploy -> release — and after every step compare the incremental
// node_load against an independent from-scratch recompute (footprint() over
// the active deployments). Debug builds additionally run the middleware's
// internal cross-check inside node_loads() itself.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

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
};

/// From-scratch node loads: price every active deployment's footprint,
/// independent of the middleware's ledger.
std::vector<double> recomputed_loads(const Middleware& mw,
                                     const net::Network& net,
                                     const query::Catalog& catalog) {
  std::vector<double> loads(net.node_count(), 0.0);
  for (const Middleware::ActiveView& v : mw.active_views()) {
    query::RateModel rates(catalog, *v.query);
    const DeploymentFootprint fp = footprint(*v.deployment, rates);
    for (const auto& [node, bytes] : fp.node_bytes) {
      loads[static_cast<std::size_t>(node)] += bytes;
    }
  }
  return loads;
}

/// Asserts the incremental ledger matches the independent recompute within
/// 1e-6 relative tolerance, and that tenant bytes sum to the total.
void expect_exact(const Middleware& mw, const net::Network& net,
                  const query::Catalog& catalog, const char* where) {
  const std::vector<double> incremental = mw.node_loads();
  const std::vector<double> scratch = recomputed_loads(mw, net, catalog);
  ASSERT_EQ(incremental.size(), scratch.size()) << where;
  for (std::size_t n = 0; n < scratch.size(); ++n) {
    EXPECT_NEAR(incremental[n], scratch[n], 1e-6 * (1.0 + scratch[n]))
        << where << ": node " << n;
  }
  double tenant_sum = 0.0;
  for (const auto& [tenant, bytes] : mw.ledger().tenant_usage()) {
    (void)tenant;
    tenant_sum += bytes;
  }
  EXPECT_NEAR(tenant_sum, mw.ledger().total_bytes(),
              1e-6 * (1.0 + mw.ledger().total_bytes()))
      << where;
}

TEST(LedgerTest, SuspendUndeployRestoreInterleavingStaysExact) {
  World w(41);
  Middleware mw(w.net, w.wl.catalog, 4, Algorithm::kTopDown, 7);
  for (const query::Query& q : w.wl.queries) {
    ASSERT_TRUE(mw.deploy(q).feasible);
  }
  expect_exact(mw, w.net, w.wl.catalog, "after deploy");

  // Kill the processing service on query 0's first source host: every query
  // rooted there suspends (its footprint must be fully retracted while the
  // query keeps holding its tenant slot).
  const net::NodeId victim =
      w.wl.catalog.stream(w.wl.queries[0].sources[0]).source;
  mw.fail_node(victim);
  ASSERT_GT(mw.suspended_queries(), 0u);
  expect_exact(mw, w.net, w.wl.catalog, "after fail_node");

  // Undeploy one query straight out of the suspended queue (slot released,
  // nothing double-retracted) and one still-active query.
  const query::QueryId parked = mw.suspended().front().q.id;
  const std::size_t slots_before = mw.ledger().tenant_queries(0);
  ASSERT_TRUE(mw.undeploy(parked));
  EXPECT_EQ(mw.ledger().tenant_queries(0), slots_before - 1);
  expect_exact(mw, w.net, w.wl.catalog, "after undeploy suspended");

  query::QueryId live = 0;
  for (const Middleware::ActiveView& v : mw.active_views()) {
    live = v.query->id;
  }
  ASSERT_TRUE(mw.undeploy(live));
  expect_exact(mw, w.net, w.wl.catalog, "after undeploy active");

  // Restore: the surviving suspended queries resume and their footprints
  // are re-applied at resume-time prices.
  mw.restore_node(victim);
  EXPECT_EQ(mw.suspended_queries(), 0u);
  expect_exact(mw, w.net, w.wl.catalog, "after restore");

  // Double undeploy of the already-removed query is a clean no-op.
  EXPECT_FALSE(mw.undeploy(parked));
  expect_exact(mw, w.net, w.wl.catalog, "after double undeploy");
}

TEST(LedgerTest, QuarantineUndeployReleaseInterleavingStaysExact) {
  World w(43);
  Middleware mw(w.net, w.wl.catalog, 4, Algorithm::kBottomUp, 11);
  for (const query::Query& q : w.wl.queries) {
    ASSERT_TRUE(mw.deploy(q).feasible);
  }

  // Quarantine the most-loaded host: actives migrate off (footprint swap)
  // or suspend (footprint retraction) — both paths must keep the ledger in
  // lockstep with the recompute.
  const std::vector<double> loads = mw.node_loads();
  net::NodeId heavy = 0;
  for (std::size_t n = 0; n < loads.size(); ++n) {
    if (loads[n] > loads[heavy]) heavy = static_cast<net::NodeId>(n);
  }
  mw.quarantine_node(heavy);
  expect_exact(mw, w.net, w.wl.catalog, "after quarantine");

  // Interleave a teardown while the quarantine is in force.
  ASSERT_TRUE(mw.undeploy(w.wl.queries[1].id));
  expect_exact(mw, w.net, w.wl.catalog, "after undeploy under quarantine");

  mw.release_quarantine(heavy);
  EXPECT_EQ(mw.suspended_queries(), 0u);
  expect_exact(mw, w.net, w.wl.catalog, "after release");

  // Idempotent release is accounting-neutral.
  mw.release_quarantine(heavy);
  expect_exact(mw, w.net, w.wl.catalog, "after double release");
}

TEST(LedgerTest, FullTeardownZeroesEveryCounter) {
  World w(47);
  Middleware mw(w.net, w.wl.catalog, 4, Algorithm::kTopDown, 13);
  for (const query::Query& q : w.wl.queries) {
    ASSERT_TRUE(mw.deploy(q).feasible);
  }
  // Churn first so the ledger has seen signed traffic in both directions,
  // then tear everything down; incremental residue would show up here.
  const net::NodeId victim =
      w.wl.catalog.stream(w.wl.queries[0].sources[0]).source;
  mw.fail_node(victim);
  mw.restore_node(victim);
  for (const query::Query& q : w.wl.queries) {
    EXPECT_TRUE(mw.undeploy(q.id)) << "query " << q.id;
  }
  EXPECT_EQ(mw.active_queries(), 0u);
  EXPECT_EQ(mw.suspended_queries(), 0u);
  for (const double l : mw.node_loads()) {
    EXPECT_NEAR(l, 0.0, 1e-9);
  }
  EXPECT_NEAR(mw.ledger().total_bytes(), 0.0, 1e-9);
  EXPECT_EQ(mw.ledger().tenant_queries(0), 0u);
}

}  // namespace
}  // namespace iflow::engine
