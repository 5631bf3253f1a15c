// UNION ALL queries (the paper's other future-work item): every branch is
// an independent SPJ block delivered to the same sink.
#include <gtest/gtest.h>

#include "engine/simulation.h"
#include "net/gtitm.h"
#include "opt/exhaustive.h"
#include "query/rates.h"
#include "sql/binder.h"

namespace iflow::sql {
namespace {

TEST(SqlUnionTest, SplitsBranchesAndSharesSink) {
  query::Catalog catalog;
  catalog.add_stream("A", 0, 10.0, 10.0);
  catalog.add_stream("B", 1, 10.0, 10.0);
  catalog.add_stream("C", 2, 10.0, 10.0);
  catalog.set_selectivity(0, 1, 0.1);
  const auto bound = compile_union(
      "SELECT A.x FROM A, B WHERE A.k = B.k "
      "UNION ALL SELECT C.x FROM C WHERE C.level > 3",
      catalog, 10, 4);
  ASSERT_EQ(bound.size(), 2u);
  EXPECT_EQ(bound[0].query.id, 10u);
  EXPECT_EQ(bound[1].query.id, 11u);
  EXPECT_EQ(bound[0].query.sink, 4u);
  EXPECT_EQ(bound[1].query.sink, 4u);
  EXPECT_EQ(bound[0].query.k(), 2);
  EXPECT_EQ(bound[1].query.k(), 1);
  EXPECT_LT(bound[1].query.filter(0), 1.0);
}

TEST(SqlUnionTest, SingleBlockPassesThrough) {
  query::Catalog catalog;
  catalog.add_stream("A", 0, 10.0, 10.0);
  const auto bound = compile_union("SELECT A.x FROM A", catalog, 1, 2);
  ASSERT_EQ(bound.size(), 1u);
  EXPECT_EQ(bound[0].query.k(), 1);
}

TEST(SqlUnionTest, ThreeWayChain) {
  query::Catalog catalog;
  catalog.add_stream("A", 0, 10.0, 10.0);
  catalog.add_stream("B", 1, 10.0, 10.0);
  catalog.add_stream("C", 2, 10.0, 10.0);
  const auto bound = compile_union(
      "SELECT A.x FROM A union all SELECT B.x FROM B UNION ALL "
      "SELECT C.x FROM C",
      catalog, 0, 3);
  EXPECT_EQ(bound.size(), 3u);
}

TEST(SqlUnionTest, RejectsUnionWithoutAll) {
  query::Catalog catalog;
  catalog.add_stream("A", 0, 10.0, 10.0);
  EXPECT_THROW(
      compile_union("SELECT A.x FROM A UNION SELECT A.y FROM A", catalog, 0, 1),
      SqlError);
}

TEST(SqlUnionTest, UnionInsideStringLiteralIsIgnored) {
  query::Catalog catalog;
  catalog.add_stream("A", 0, 10.0, 10.0);
  const auto bound = compile_union(
      "SELECT A.x FROM A WHERE A.tag = 'UNION ALL STATION'", catalog, 0, 1);
  EXPECT_EQ(bound.size(), 1u);
}

TEST(SqlUnionTest, BranchesInterleaveAtTheSinkInTheEngine) {
  Prng prng(5);
  net::TransitStubParams p;
  p.transit_count = 1;
  p.stub_domains_per_transit = 2;
  p.stub_domain_size = 3;
  const net::Network net = net::make_transit_stub(p, prng);
  const auto rt = net::RoutingTables::build(net);

  query::Catalog catalog;
  catalog.add_stream("A", 0, 20.0, 50.0);
  catalog.add_stream("B", 3, 30.0, 50.0);
  const auto bound = compile_union(
      "SELECT A.x FROM A UNION ALL SELECT B.x FROM B", catalog, 7,
      static_cast<net::NodeId>(net.node_count() - 1));
  ASSERT_EQ(bound.size(), 2u);

  opt::OptimizerEnv env;
  env.catalog = &catalog;
  env.network = &net;
  env.routing = &rt;
  env.reuse = false;
  opt::ExhaustiveOptimizer ex(env);

  engine::EngineConfig cfg;
  cfg.duration_s = 30.0;
  cfg.poisson = false;
  cfg.reliability.drain_s = 0.0;  // emit for the whole run
  engine::Simulation sim(net, rt, catalog, cfg, 9);
  // Deploy both branches under the SAME logical query id: their delivered
  // counts accumulate at the union sink.
  for (const BoundQuery& b : bound) {
    query::Query q = b.query;
    q.id = 7;
    query::RateModel rates(catalog, q);
    sim.deploy(ex.optimize(q).deployment, rates);
  }
  sim.run();
  // Union delivery rate = sum of branch rates (20 + 30).
  EXPECT_NEAR(sim.delivered_rate(7), 50.0, 5.0);
}

}  // namespace
}  // namespace iflow::sql
