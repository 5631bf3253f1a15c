// The paper's motivating scenario (§1.1): Delta Air Lines' Operational
// Information System.
//
// Recreates the example network of Figure 3 — WEATHER, FLIGHTS and
// CHECK-INS sources, processing nodes N1..N5 and terminal sinks — then
// walks through the paper's two optimizations:
//
//   1. Network-aware join ordering: the selectivity-optimal order
//      (FLIGHTS x WEATHER first) can lose to an alternative order once
//      link costs are taken into account.
//   2. Operator reuse: once Q2 (FLIGHTS x CHECK-INS to Sink3) is deployed,
//      Q1 prefers the plan that reuses that operator even though its
//      selectivity-only ordering differs.
#include <iostream>

#include "advert/registry.h"
#include "engine/simulation.h"
#include "net/network.h"
#include "opt/exhaustive.h"
#include "query/rates.h"
#include "sql/binder.h"

using namespace iflow;

namespace {

struct Ois {
  net::Network net;
  // Node ids, mirroring Figure 3.
  net::NodeId weather_src, flights_src, checkins_src;
  net::NodeId n1, n2, n3, n4, n5;
  net::NodeId sink3, sink4;

  Ois() {
    weather_src = net.add_node();
    flights_src = net.add_node();
    checkins_src = net.add_node();
    n1 = net.add_node();
    n2 = net.add_node();
    n3 = net.add_node();
    n4 = net.add_node();
    n5 = net.add_node();
    sink3 = net.add_node();
    sink4 = net.add_node();
    auto link = [this](net::NodeId a, net::NodeId b, double cost) {
      net.add_link(a, b, cost, /*delay=*/5.0, /*bw=*/1e7);
    };
    // Sources feed the processing mesh; FLIGHTS -> N2 is congested
    // (expensive), which is exactly the situation of optimization 1.
    link(weather_src, n2, 2.0);
    link(flights_src, n1, 1.0);
    link(flights_src, n2, 8.0);  // congested link
    link(checkins_src, n1, 1.0);
    link(n1, n2, 2.0);
    link(n1, n3, 2.0);
    link(n2, n3, 2.0);
    link(n3, n4, 2.0);
    link(n4, n5, 2.0);
    link(n3, sink3, 1.0);
    link(n4, sink4, 1.0);
  }
};

const char* name_of(const Ois& ois, net::NodeId n) {
  if (n == ois.weather_src) return "WEATHER";
  if (n == ois.flights_src) return "FLIGHTS";
  if (n == ois.checkins_src) return "CHECK-INS";
  if (n == ois.n1) return "N1";
  if (n == ois.n2) return "N2";
  if (n == ois.n3) return "N3";
  if (n == ois.n4) return "N4";
  if (n == ois.n5) return "N5";
  if (n == ois.sink3) return "Sink3";
  if (n == ois.sink4) return "Sink4";
  return "?";
}

void describe(const Ois& ois, const query::Deployment& d,
              const query::RateModel& rates) {
  for (const query::DeployedOp& op : d.ops) {
    std::string inputs;
    for (int child : {op.left, op.right}) {
      if (!inputs.empty()) inputs += " JOIN ";
      if (query::child_is_unit(child)) {
        const query::LeafUnit& u =
            d.units[static_cast<std::size_t>(query::child_unit_index(child))];
        std::string leaf;
        for (int i = 0; i < rates.k(); ++i) {
          if (u.mask >> i & 1) {
            if (!leaf.empty()) leaf += "x";
            leaf += rates.catalog().stream(rates.stream(i)).name;
          }
        }
        if (u.derived) leaf += "[reused@" + std::string(name_of(ois, u.location)) + "]";
        inputs += leaf;
      } else {
        inputs += "(op@" + std::string(name_of(
                               ois, d.ops[static_cast<std::size_t>(child)].node)) +
                  ")";
      }
    }
    std::cout << "    " << inputs << "  at " << name_of(ois, op.node) << "\n";
  }
  std::cout << "    -> delivered to " << name_of(ois, d.sink) << "\n";
}

}  // namespace

int main() {
  Ois ois;
  const net::RoutingTables routing = net::RoutingTables::build(ois.net);

  // Stream statistics (historical observations, §1.1). FLIGHTS x WEATHER is
  // the most selective pair, so a statistics-only planner would join it
  // first.
  query::Catalog catalog;
  const auto weather = catalog.add_stream("WEATHER", ois.weather_src, 30.0, 100.0);
  const auto flights = catalog.add_stream("FLIGHTS", ois.flights_src, 60.0, 150.0);
  const auto checkins = catalog.add_stream("CHECK-INS", ois.checkins_src, 90.0, 80.0);
  catalog.set_columns(weather, {"CITY", "FORECAST"});
  catalog.set_columns(flights,
                      {"STATUS", "DEPARTING", "DESTN", "NUM", "DP-TIME"});
  catalog.set_columns(checkins, {"STATUS", "FLNUM"});
  catalog.set_selectivity(flights, weather, 0.004);   // most selective
  catalog.set_selectivity(flights, checkins, 0.008);
  catalog.set_selectivity(weather, checkins, 0.05);

  // Selectivity estimates for the paper's selection predicates (from
  // historical statistics): Atlanta departures are ~40% of FLIGHTS,
  // the 12-hour window keeps ~60%.
  const sql::FilterEstimator estimator =
      [&](query::StreamId, const sql::FilterPredicate& p) {
        if (p.value == "ATLANTA") return 0.4;
        if (p.column.column == "DP-TIME") return 0.6;
        return sql::default_filter_estimate(0, p);
      };

  advert::Registry registry;
  opt::OptimizerEnv env;
  env.catalog = &catalog;
  env.network = &ois.net;
  env.routing = &routing;
  env.registry = &registry;
  env.reuse = true;
  // Figure 3 marks only N1..N5 as "available for processing".
  env.processing_nodes = {ois.n1, ois.n2, ois.n3, ois.n4, ois.n5};
  opt::ExhaustiveOptimizer optimizer(env);

  // ---------------------------------------------------------------- Q1 ---
  // Q1, exactly as the paper writes it: flight + weather + check-in status
  // for Atlanta departures in the next 12 hours, to overhead display Sink4.
  const char* q1_sql =
      "SELECT FLIGHTS.STATUS, WEATHER.FORECAST, CHECK-INS.STATUS "
      "FROM FLIGHTS, WEATHER, CHECK-INS "
      "WHERE FLIGHTS.DEPARTING = 'ATLANTA' "
      "AND FLIGHTS.DESTN = WEATHER.CITY "
      "AND FLIGHTS.NUM = CHECK-INS.FLNUM "
      "AND FLIGHTS.DP-TIME - CURRENT_TIME < '12:00:00'";
  const sql::BoundQuery q1_bound =
      sql::compile(q1_sql, catalog, 1, ois.sink4, estimator);
  query::Query q1 = q1_bound.query;
  q1.name = "Q1";
  query::RateModel rates1(catalog, q1);
  std::cout << "Q1 compiled from SQL: " << q1.k() << " streams, FLIGHTS "
               "filtered to "
            << 100.0 * q1.filter_on(flights) << "% by its predicates\n\n";

  std::cout << "=== Optimization 1: network-aware join ordering ===\n";
  std::cout << "Q1 alone (FLIGHTS->N2 link congested at cost 8/byte):\n";
  const opt::OptimizeResult q1_alone = optimizer.optimize(q1);
  describe(ois, q1_alone.deployment, rates1);
  std::cout << "  cost " << q1_alone.actual_cost
            << "/unit time — the planner avoids shipping FLIGHTS over the "
               "congested link even though FLIGHTSxWEATHER is the most "
               "selective pair\n\n";

  // ---------------------------------------------------------------- Q2 ---
  std::cout << "=== Optimization 2: operator reuse ===\n";
  const char* q2_sql =
      "SELECT FLIGHTS.STATUS, CHECK-INS.STATUS "
      "FROM FLIGHTS, CHECK-INS "
      "WHERE FLIGHTS.DEPARTING = 'ATLANTA' "
      "AND FLIGHTS.NUM = CHECK-INS.FLNUM "
      "AND FLIGHTS.DP-TIME - CURRENT_TIME < '12:00:00'";
  const sql::BoundQuery q2_bound =
      sql::compile(q2_sql, catalog, 2, ois.sink3, estimator);
  query::Query q2 = q2_bound.query;
  q2.name = "Q2";
  query::RateModel rates2(catalog, q2);
  const opt::OptimizeResult q2_res = optimizer.optimize(q2);
  std::cout << "Q2 (FLIGHTS x CHECK-INS to Sink3) deployed first:\n";
  describe(ois, q2_res.deployment, rates2);
  advert::advertise_deployment(registry, q2_res.deployment, rates2);

  std::cout << "\nQ1 planned again, now aware of Q2's operators:\n";
  const opt::OptimizeResult q1_reuse = optimizer.optimize(q1);
  describe(ois, q1_reuse.deployment, rates1);
  bool reused = false;
  for (const query::LeafUnit& u : q1_reuse.deployment.units) {
    reused |= u.derived;
  }
  std::cout << "  cost " << q1_reuse.actual_cost << " vs " << q1_alone.actual_cost
            << " standalone — " << (reused ? "reuses" : "does not reuse")
            << " the deployed FLIGHTSxCHECK-INS operator, switching to the "
               "(FLIGHTS x CHECK-INS) x WEATHER ordering\n\n";

  // ------------------------------------------------------------ execute ---
  std::cout << "=== Executing both queries in the engine ===\n";
  engine::EngineConfig cfg;
  cfg.duration_s = 30.0;
  // Sized to compare measured with planned cost (DESIGN.md §11).
  cfg.reliability.drain_s = 0.0;
  cfg.reliability.ack_timeout_s = 1.0;
  cfg.reliability.max_backoff_s = 4.0;
  engine::Simulation sim(ois.net, routing, catalog, cfg, 7);
  sim.deploy(q2_res.deployment, rates2);
  sim.deploy(q1_reuse.deployment, rates1);
  sim.run();
  std::cout << "  Q2 delivered " << sim.tuples_delivered(q2.id)
            << " result tuples, Q1 delivered " << sim.tuples_delivered(q1.id)
            << " in " << cfg.duration_s << " s\n";
  std::cout << "  measured network cost " << sim.measured_cost_per_second()
            << "/s vs planned "
            << q2_res.actual_cost + q1_reuse.actual_cost << "/s\n";
  return 0;
}
