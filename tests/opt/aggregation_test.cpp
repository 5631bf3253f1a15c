// Windowed aggregation (the paper's §2/§5 future-work item) across the
// stack: cost model, every optimizer, the engine, and the SQL front-end.
#include <gtest/gtest.h>

#include "engine/simulation.h"
#include "net/gtitm.h"
#include "opt/bottom_up.h"
#include "opt/exhaustive.h"
#include "opt/plan_then_deploy.h"
#include "opt/top_down.h"
#include "query/rates.h"
#include "sql/binder.h"

namespace iflow::opt {
namespace {

struct World {
  net::Network net;
  net::RoutingTables rt;
  cluster::Hierarchy hierarchy;
  query::Catalog catalog;
  query::Query q;  // 2-way join, unaggregated

  explicit World(std::uint64_t seed)
      : net([&] {
          Prng prng(seed);
          net::TransitStubParams p;
          p.transit_count = 2;
          p.stub_domains_per_transit = 2;
          p.stub_domain_size = 4;
          return net::make_transit_stub(p, prng);
        }()),
        rt(net::RoutingTables::build(net)),
        hierarchy([&] {
          Prng prng(seed + 1);
          return cluster::Hierarchy::build(net, rt, 4, prng);
        }()) {
    const auto a = catalog.add_stream("A", 0, 60.0, 100.0);
    const auto b = catalog.add_stream("B", 5, 60.0, 100.0);
    catalog.set_selectivity(a, b, 0.02);
    q.id = 1;
    q.sources = {a, b};
    q.sink = static_cast<net::NodeId>(net.node_count() - 1);
  }

  OptimizerEnv env() {
    OptimizerEnv e;
    e.catalog = &catalog;
    e.network = &net;
    e.routing = &rt;
    e.hierarchy = &hierarchy;
    e.reuse = false;
    return e;
  }
};

query::Aggregation count_agg(double groups, double window = 1.0) {
  query::Aggregation a;
  a.fn = query::AggregateFn::kCount;
  a.groups = groups;
  a.window_s = window;
  return a;
}

TEST(AggregationTest, DeliveryEdgeUsesAggregatedRate) {
  World w(1);
  query::Query agg_q = w.q;
  agg_q.aggregate = count_agg(4.0);

  auto env = w.env();
  ExhaustiveOptimizer ex(env);
  const OptimizeResult raw = ex.optimize(w.q);
  const OptimizeResult agg = ex.optimize(agg_q);
  ASSERT_TRUE(agg.feasible);
  // The aggregated stream (4 tuples/s x 24 B) is far lighter than the raw
  // result, so total cost must drop.
  EXPECT_LT(agg.actual_cost, raw.actual_cost);
  // And deployment_cost agrees with the optimizer's accounting.
  EXPECT_NEAR(query::deployment_cost(agg.deployment, w.rt), agg.actual_cost,
              1e-9 * (1.0 + agg.actual_cost));
}

TEST(AggregationTest, MoreGroupsNeverCheaper) {
  World w(2);
  auto env = w.env();
  ExhaustiveOptimizer ex(env);
  double prev = 0.0;
  for (double groups : {1.0, 4.0, 16.0, 64.0, 1e9}) {
    query::Query agg_q = w.q;
    agg_q.aggregate = count_agg(groups);
    const double cost = ex.optimize(agg_q).actual_cost;
    EXPECT_GE(cost, prev - 1e-9) << "groups " << groups;
    prev = cost;
  }
}

TEST(AggregationTest, OutputRateCappedByInputRate) {
  World w(3);
  query::Query agg_q = w.q;
  agg_q.aggregate = count_agg(1e12);  // absurd group count
  query::RateModel rates(w.catalog, agg_q);
  auto env = w.env();
  ExhaustiveOptimizer ex(env);
  const OptimizeResult res = ex.optimize(agg_q);
  // Delivered rate is min(raw tuple rate, groups/window) * out_width.
  const double expect =
      rates.tuple_rate(rates.full()) * agg_q.aggregate.out_width;
  EXPECT_NEAR(res.deployment.delivered_bytes_rate(), expect, 1e-9 * expect);
}

TEST(AggregationTest, AllOptimizersAgreeOnValidity) {
  World w(4);
  query::Query agg_q = w.q;
  agg_q.aggregate = count_agg(8.0, 2.0);
  auto env = w.env();
  ExhaustiveOptimizer ex(env);
  TopDownOptimizer td(env);
  BottomUpOptimizer bu(env);
  PlanThenDeployOptimizer ptd(env);
  const double optimal = ex.optimize(agg_q).actual_cost;
  for (Optimizer* alg : std::vector<Optimizer*>{&td, &bu, &ptd}) {
    const OptimizeResult r = alg->optimize(agg_q);
    ASSERT_TRUE(r.feasible) << alg->name();
    EXPECT_TRUE(r.deployment.aggregate.enabled()) << alg->name();
    EXPECT_GE(r.actual_cost, optimal - 1e-9) << alg->name();
    EXPECT_NEAR(query::deployment_cost(r.deployment, w.rt), r.actual_cost,
                1e-9 * (1.0 + r.actual_cost))
        << alg->name();
  }
}

TEST(AggregationTest, EngineEmitsOneTuplePerGroupPerWindow) {
  World w(5);
  // Single-source aggregation: input 60 t/s, 5 groups, 1 s windows =>
  // virtually every window emits all 5 groups.
  query::Query agg_q;
  agg_q.id = 9;
  agg_q.sources = {0};
  agg_q.sink = w.q.sink;
  agg_q.aggregate = count_agg(5.0, 1.0);
  query::RateModel rates(w.catalog, agg_q);

  auto env = w.env();
  ExhaustiveOptimizer ex(env);
  const OptimizeResult res = ex.optimize(agg_q);

  engine::EngineConfig cfg;
  cfg.duration_s = 40.0;
  cfg.poisson = false;
  // Sized to compare measured with planned cost (DESIGN.md §11).
  cfg.reliability.drain_s = 0.0;
  cfg.reliability.ack_timeout_s = 1.0;
  cfg.reliability.max_backoff_s = 4.0;
  engine::Simulation sim(w.net, w.rt, w.catalog, cfg, 31);
  sim.deploy(res.deployment, rates);
  sim.run();
  EXPECT_NEAR(sim.delivered_rate(agg_q.id), 5.0, 1.5);
  EXPECT_NEAR(sim.measured_cost_per_second(), res.actual_cost,
              0.15 * res.actual_cost);
}

TEST(AggregationTest, SqlGroupByBindsToAggregation) {
  query::Catalog catalog;
  const auto flights = catalog.add_stream("FLIGHTS", 0, 50.0, 100.0);
  catalog.set_columns(flights, {"DESTN", "DELAY"});
  const sql::BoundQuery b = sql::compile(
      "SELECT FLIGHTS.DESTN, AVG(FLIGHTS.DELAY) FROM FLIGHTS "
      "GROUP BY FLIGHTS.DESTN",
      catalog, 1, 0, sql::default_filter_estimate,
      [](query::StreamId, const std::string&) { return 25.0; });
  EXPECT_EQ(b.query.aggregate.fn, query::AggregateFn::kAvg);
  EXPECT_DOUBLE_EQ(b.query.aggregate.groups, 25.0);
}

TEST(AggregationTest, SqlCountStarAndValidation) {
  query::Catalog catalog;
  catalog.add_stream("A", 0, 10.0, 10.0);
  const sql::BoundQuery b =
      sql::compile("SELECT COUNT(*) FROM A", catalog, 1, 0);
  EXPECT_EQ(b.query.aggregate.fn, query::AggregateFn::kCount);
  EXPECT_DOUBLE_EQ(b.query.aggregate.groups, 1.0);

  EXPECT_THROW(
      sql::compile("SELECT A.x FROM A GROUP BY A.x", catalog, 2, 0),
      sql::SqlError);
  EXPECT_THROW(
      sql::compile("SELECT COUNT(*), SUM(A.x) FROM A", catalog, 3, 0),
      sql::SqlError);
}

TEST(AggregationTest, SqlMultiColumnGroupByMultipliesGroups) {
  query::Catalog catalog;
  const auto a = catalog.add_stream("A", 0, 10.0, 10.0);
  const auto b = catalog.add_stream("B", 1, 10.0, 10.0);
  catalog.set_selectivity(a, b, 0.1);
  const sql::BoundQuery bq = sql::compile(
      "SELECT COUNT(*) FROM A, B WHERE A.k = B.k GROUP BY A.x, B.y",
      catalog, 1, 0);
  EXPECT_DOUBLE_EQ(bq.query.aggregate.groups, 100.0);  // 10 x 10 default
}

}  // namespace
}  // namespace iflow::opt
