// Load-aware rebalancing: the paper's §1.1 "node N2 may be overloaded"
// scenario — operators shed off over-capacity nodes.
#include <gtest/gtest.h>

#include "engine/middleware.h"
#include "net/network.h"

namespace iflow::engine {
namespace {

/// Star network where the hub is the optimal (and only attractive) meeting
/// point for every query, so piling on queries overloads it.
struct Star {
  net::Network net;
  query::Catalog catalog;
  net::NodeId hub;
  std::vector<net::NodeId> leaves;

  Star() {
    hub = net.add_node();
    for (int i = 0; i < 6; ++i) {
      leaves.push_back(net.add_node());
      net.add_link(hub, leaves.back(), 1.0, 1.0, 1e6);
    }
    // Streams on leaves 0..3.
    for (int i = 0; i < 4; ++i) {
      catalog.add_stream(std::string("S").append(std::to_string(i)),
                         leaves[static_cast<std::size_t>(i)], 50.0, 100.0);
    }
    for (query::StreamId a = 0; a < 4; ++a) {
      for (query::StreamId b = static_cast<query::StreamId>(a + 1); b < 4; ++b) {
        catalog.set_selectivity(a, b, 0.001);
      }
    }
  }

  query::Query make_query(query::QueryId id, std::vector<query::StreamId> src,
                          net::NodeId sink) const {
    query::Query q;
    q.id = id;
    q.sources = std::move(src);
    q.sink = sink;
    return q;
  }
};

TEST(LoadRebalanceTest, ShedsOperatorsOffOverloadedHub) {
  Star s;
  Middleware mw(s.net, s.catalog, 4, Algorithm::kExhaustive, 9);
  // Three 2-way joins, all optimally placed at the hub.
  mw.deploy(s.make_query(1, {0, 1}, s.leaves[4]));
  mw.deploy(s.make_query(2, {2, 3}, s.leaves[5]));
  mw.deploy(s.make_query(3, {0, 2}, s.leaves[4]));
  const std::vector<double> before = mw.node_loads();
  ASSERT_GT(before[s.hub], 0.0) << "queries should meet at the hub";

  // Capacity below the hub's current load, above what one query brings.
  AdmissionConfig cfg;
  cfg.node_capacity = before[s.hub] * 0.6;
  mw.set_admission_config(cfg);
  const auto moves = mw.rebalance_load();
  EXPECT_FALSE(moves.empty());
  const std::vector<double> after = mw.node_loads();
  EXPECT_EQ(after[s.hub], 0.0)
      << "the hub was excluded from hosting, so all its operators moved";
  // Everything still valid and deliverable.
  for (const query::Deployment* d : mw.deployments()) {
    EXPECT_NO_THROW(query::validate_deployment(*d));
    for (const query::DeployedOp& op : d->ops) EXPECT_NE(op.node, s.hub);
  }
}

TEST(LoadRebalanceTest, NoCapacityMeansNoAction) {
  Star s;
  Middleware mw(s.net, s.catalog, 4, Algorithm::kExhaustive, 9);
  mw.deploy(s.make_query(1, {0, 1}, s.leaves[4]));
  EXPECT_TRUE(mw.rebalance_load().empty());  // unlimited by default
}

TEST(LoadRebalanceTest, UnderCapacityStaysPut) {
  Star s;
  Middleware mw(s.net, s.catalog, 4, Algorithm::kExhaustive, 9);
  mw.deploy(s.make_query(1, {0, 1}, s.leaves[4]));
  const double hub_load = mw.node_loads()[s.hub];
  AdmissionConfig cfg;
  cfg.node_capacity = hub_load * 2.0;
  mw.set_admission_config(cfg);
  EXPECT_TRUE(mw.rebalance_load().empty());
  EXPECT_DOUBLE_EQ(mw.node_loads()[s.hub], hub_load);
}

TEST(LoadRebalanceTest, LoadAccountingSumsOperatorInputs) {
  Star s;
  Middleware mw(s.net, s.catalog, 4, Algorithm::kExhaustive, 9);
  const opt::OptimizeResult r = mw.deploy(s.make_query(1, {0, 1}, s.leaves[4]));
  double expected = 0.0;
  for (const query::DeployedOp& op : r.deployment.ops) {
    for (int child : {op.left, op.right}) {
      expected += query::child_is_unit(child)
                      ? r.deployment
                            .units[static_cast<std::size_t>(
                                query::child_unit_index(child))]
                            .bytes_rate
                      : r.deployment.ops[static_cast<std::size_t>(child)]
                            .out_bytes_rate;
    }
  }
  double total = 0.0;
  for (double l : mw.node_loads()) total += l;
  EXPECT_NEAR(total, expected, 1e-9 * (1.0 + expected));
}

}  // namespace
}  // namespace iflow::engine
