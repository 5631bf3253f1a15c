// Exact per-link byte accounting: with deterministic sources and no joins,
// every link on the cost-optimal route carries exactly tuples × width.
#include <gtest/gtest.h>

#include "engine/simulation.h"
#include "query/rates.h"

namespace iflow::engine {
namespace {

TEST(AccountingTest, EveryLinkOnTheRouteChargesExactly) {
  // Line: src(0) -1- (1) -1- (2) -1- sink(3), plus a pricey shortcut 0-3.
  net::Network net;
  for (int i = 0; i < 4; ++i) net.add_node();
  net.add_link(0, 1, 1.0, 1.0, 1e9);
  net.add_link(1, 2, 1.0, 1.0, 1e9);
  net.add_link(2, 3, 1.0, 1.0, 1e9);
  net.add_link(0, 3, 10.0, 1.0, 1e9);  // never used (cost 10 > 3)
  const auto rt = net::RoutingTables::build(net);

  query::Catalog catalog;
  catalog.add_stream("A", 0, 10.0, 100.0);
  query::Query q;
  q.id = 1;
  q.sources = {0};
  q.sink = 3;
  query::RateModel rates(catalog, q);

  query::Deployment d;
  d.query = q.id;
  query::LeafUnit u;
  u.mask = 1;
  u.location = 0;
  u.bytes_rate = rates.bytes_rate(1);
  u.tuple_rate = rates.tuple_rate(1);
  d.units = {u};
  d.sink = 3;

  EngineConfig cfg;
  cfg.duration_s = 10.0;
  cfg.poisson = false;  // exactly 10 t/s
  cfg.reliability.drain_s = 0.0;  // emit for the whole run
  Simulation sim(net, rt, catalog, cfg, 3);
  sim.deploy(d, rates);
  sim.run();

  const auto delivered = sim.tuples_delivered(q.id);
  EXPECT_NEAR(static_cast<double>(delivered), 100.0, 2.0);
  // Links 0,1,2 each carried exactly delivered×width bytes (no loss, no
  // duplication); the shortcut carried nothing.
  for (std::size_t link : {0u, 1u, 2u}) {
    EXPECT_NEAR(sim.link_bytes(link),
                static_cast<double>(delivered) * 100.0,
                0.03 * static_cast<double>(delivered) * 100.0)
        << "link " << link;
  }
  EXPECT_DOUBLE_EQ(sim.link_bytes(3), 0.0);
  // Total cost = 3 links × bytes × 1.0 / duration.
  EXPECT_NEAR(sim.measured_cost_per_second(),
              3.0 * sim.link_bytes(0) / cfg.duration_s,
              0.05 * sim.measured_cost_per_second());
}

TEST(AccountingTest, FanOutChargesOncePerConsumerEdge) {
  // One source, two sinks subscribing to the same stream: the shared link
  // src->mid carries the stream twice (once per consumer edge) — our cost
  // model charges per edge, not per multicast tree.
  net::Network net;
  const auto src = net.add_node();
  const auto mid = net.add_node();
  const auto s1 = net.add_node();
  const auto s2 = net.add_node();
  net.add_link(src, mid, 1.0, 1.0, 1e9);
  net.add_link(mid, s1, 1.0, 1.0, 1e9);
  net.add_link(mid, s2, 1.0, 1.0, 1e9);
  const auto rt = net::RoutingTables::build(net);

  query::Catalog catalog;
  catalog.add_stream("A", src, 10.0, 50.0);
  query::RateModel* rates_ptr = nullptr;
  (void)rates_ptr;

  EngineConfig cfg;
  cfg.duration_s = 10.0;
  cfg.poisson = false;
  cfg.reliability.drain_s = 0.0;
  Simulation sim(net, rt, catalog, cfg, 5);
  for (int i = 0; i < 2; ++i) {
    query::Query q;
    q.id = static_cast<query::QueryId>(i + 1);
    q.sources = {0};
    q.sink = (i == 0) ? s1 : s2;
    query::RateModel rates(catalog, q);
    query::Deployment d;
    d.query = q.id;
    query::LeafUnit u;
    u.mask = 1;
    u.location = src;
    u.bytes_rate = rates.bytes_rate(1);
    u.tuple_rate = rates.tuple_rate(1);
    d.units = {u};
    d.sink = q.sink;
    sim.deploy(d, rates);
  }
  sim.run();
  EXPECT_GT(sim.tuples_delivered(1), 0u);
  // src->mid (link 0) carries twice what each sink leg carries.
  EXPECT_NEAR(sim.link_bytes(0), sim.link_bytes(1) + sim.link_bytes(2),
              1e-6 * sim.link_bytes(0));
  EXPECT_NEAR(sim.link_bytes(1), sim.link_bytes(2),
              0.02 * sim.link_bytes(1) + 100.0);
}

}  // namespace
}  // namespace iflow::engine
