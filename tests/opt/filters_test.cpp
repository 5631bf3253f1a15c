// Select-project-join: filter predicates and containment-based reuse
// (the paper's §5 future-work direction) exercised end to end.
#include <gtest/gtest.h>

#include "engine/simulation.h"
#include "net/gtitm.h"
#include "opt/exhaustive.h"
#include "opt/top_down.h"
#include "query/rates.h"
#include "workload/generator.h"

namespace iflow::opt {
namespace {

struct World {
  net::Network net;
  net::RoutingTables rt;
  query::Catalog catalog;

  explicit World(std::uint64_t seed) {
    Prng prng(seed);
    net::TransitStubParams p;
    p.transit_count = 2;
    p.stub_domains_per_transit = 2;
    p.stub_domain_size = 3;
    net = net::make_transit_stub(p, prng);
    rt = net::RoutingTables::build(net);
  }

  OptimizerEnv env(advert::Registry* registry) {
    OptimizerEnv e;
    e.catalog = &catalog;
    e.network = &net;
    e.routing = &rt;
    e.registry = registry;
    e.reuse = registry != nullptr;
    return e;
  }
};

TEST(FiltersTest, FilterScalesEveryDownstreamRate) {
  World w(1);
  const auto a = w.catalog.add_stream("A", 0, 100.0, 10.0);
  const auto b = w.catalog.add_stream("B", 1, 50.0, 10.0);
  w.catalog.set_selectivity(a, b, 0.01);

  query::Query plain;
  plain.sources = {a, b};
  plain.sink = 3;
  query::Query filtered = plain;
  filtered.filter_selectivity = {0.25, 1.0};

  query::RateModel rp(w.catalog, plain);
  query::RateModel rf(w.catalog, filtered);
  EXPECT_DOUBLE_EQ(rf.tuple_rate(0b01), 0.25 * rp.tuple_rate(0b01));
  EXPECT_DOUBLE_EQ(rf.tuple_rate(0b10), rp.tuple_rate(0b10));
  EXPECT_DOUBLE_EQ(rf.tuple_rate(0b11), 0.25 * rp.tuple_rate(0b11));
}

TEST(FiltersTest, FilteredQueryCostsLess) {
  World w(2);
  const auto a = w.catalog.add_stream("A", 0, 100.0, 10.0);
  const auto b = w.catalog.add_stream("B", 5, 50.0, 10.0);
  w.catalog.set_selectivity(a, b, 0.01);
  query::Query plain;
  plain.id = 1;
  plain.sources = {a, b};
  plain.sink = 10;
  query::Query filtered = plain;
  filtered.id = 2;
  filtered.filter_selectivity = {0.2, 0.5};

  ExhaustiveOptimizer ex(w.env(nullptr));
  const double plain_cost = ex.optimize(plain).actual_cost;
  const double filtered_cost = ex.optimize(filtered).actual_cost;
  EXPECT_LT(filtered_cost, plain_cost);
}

TEST(FiltersTest, ContainmentReusePicksResidualFilter) {
  World w(3);
  const auto a = w.catalog.add_stream("A", 0, 100.0, 10.0);
  const auto b = w.catalog.add_stream("B", 1, 80.0, 10.0);
  w.catalog.set_selectivity(a, b, 0.01);

  advert::Registry registry;
  ExhaustiveOptimizer ex(w.env(&registry));

  // Unfiltered broad query deployed first.
  query::Query broad;
  broad.id = 1;
  broad.sources = {a, b};
  broad.sink = 9;
  query::RateModel broad_rates(w.catalog, broad);
  const OptimizeResult first = ex.optimize(broad);
  advert::advertise_deployment(registry, first.deployment, broad_rates);

  // Stricter query: same join, extra selection on A.
  query::Query strict = broad;
  strict.id = 2;
  strict.sink = 10;
  strict.filter_selectivity = {0.1, 1.0};
  const OptimizeResult second = ex.optimize(strict);
  ASSERT_TRUE(second.feasible);

  bool contained = false;
  for (const query::LeafUnit& u : second.deployment.units) {
    if (u.derived && u.residual_filter < 1.0) contained = true;
  }
  EXPECT_TRUE(contained)
      << "strict query should reuse the broad join via a residual filter";
  // Transported volume is the strict query's own (filtered) rate, so the
  // reuse deployment is much cheaper than planning from scratch.
  advert::Registry empty;
  ExhaustiveOptimizer scratch(w.env(&empty));
  EXPECT_LT(second.actual_cost, scratch.optimize(strict).actual_cost);
}

TEST(FiltersTest, StricterAdvertisementIsNeverReused) {
  World w(4);
  const auto a = w.catalog.add_stream("A", 0, 100.0, 10.0);
  const auto b = w.catalog.add_stream("B", 1, 80.0, 10.0);
  w.catalog.set_selectivity(a, b, 0.01);

  advert::Registry registry;
  ExhaustiveOptimizer ex(w.env(&registry));

  query::Query strict;
  strict.id = 1;
  strict.sources = {a, b};
  strict.sink = 9;
  strict.filter_selectivity = {0.1, 1.0};
  query::RateModel strict_rates(w.catalog, strict);
  advert::advertise_deployment(registry, ex.optimize(strict).deployment,
                               strict_rates);

  query::Query broad = strict;
  broad.id = 2;
  broad.filter_selectivity.clear();
  const OptimizeResult res = ex.optimize(broad);
  for (const query::LeafUnit& u : res.deployment.units) {
    EXPECT_FALSE(u.derived)
        << "broad query must not consume the filtered derived stream";
  }
}

TEST(FiltersTest, EngineFiltersMatchAnalyticRates) {
  World w(5);
  const auto a = w.catalog.add_stream("A", 0, 60.0, 50.0);
  const auto b = w.catalog.add_stream("B", 1, 60.0, 50.0);
  w.catalog.set_selectivity(a, b, 0.02);

  query::Query q;
  q.id = 7;
  q.sources = {a, b};
  q.sink = 8;
  q.filter_selectivity = {0.5, 0.25};
  query::RateModel rates(w.catalog, q);

  ExhaustiveOptimizer ex(w.env(nullptr));
  const OptimizeResult res = ex.optimize(q);

  engine::EngineConfig cfg;
  cfg.duration_s = 60.0;
  cfg.poisson = false;
  // Sized to compare measured with planned cost (DESIGN.md §11).
  cfg.reliability.drain_s = 0.0;
  cfg.reliability.ack_timeout_s = 1.0;
  cfg.reliability.max_backoff_s = 4.0;
  engine::Simulation sim(w.net, w.rt, w.catalog, cfg, 17);
  sim.deploy(res.deployment, rates);
  sim.run();

  // Analytic: 60*0.5 * 60*0.25 * 0.02 = 9 results/s.
  EXPECT_NEAR(sim.delivered_rate(q.id), 9.0, 2.5);
  EXPECT_NEAR(sim.measured_cost_per_second(), res.actual_cost,
              0.2 * res.actual_cost);
}

TEST(FiltersTest, HierarchicalAlgorithmsHandleFilteredWorkloads) {
  Prng prng(6);
  net::TransitStubParams p;
  p.transit_count = 2;
  p.stub_domains_per_transit = 2;
  p.stub_domain_size = 4;
  const net::Network net = net::make_transit_stub(p, prng);
  const auto rt = net::RoutingTables::build(net);
  Prng hp(7);
  const cluster::Hierarchy hierarchy = cluster::Hierarchy::build(net, rt, 4, hp);

  workload::WorkloadParams wp;
  wp.num_streams = 6;
  wp.min_joins = 2;
  wp.max_joins = 3;
  wp.filter_probability = 0.6;
  Prng wprng(8);
  const workload::Workload wl = workload::make_workload(net, wp, 10, wprng);

  advert::Registry registry;
  OptimizerEnv env;
  env.catalog = &wl.catalog;
  env.network = &net;
  env.routing = &rt;
  env.hierarchy = &hierarchy;
  env.registry = &registry;
  env.reuse = true;
  Session session(env, std::make_unique<TopDownOptimizer>(env));
  for (const query::Query& q : wl.queries) {
    const OptimizeResult r = session.submit(q);
    ASSERT_TRUE(r.feasible) << q.name;
    EXPECT_NO_THROW(query::validate_deployment(r.deployment));
  }
  EXPECT_GT(registry.size(), 0u);
}

}  // namespace
}  // namespace iflow::opt
