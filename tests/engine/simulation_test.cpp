#include "engine/simulation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>

#include "engine/middleware.h"
#include "net/gtitm.h"
#include "opt/exhaustive.h"
#include "opt/top_down.h"
#include "workload/generator.h"

namespace iflow::engine {
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
};

/// Sized to compare measured with planned cost (DESIGN.md §11): no drain,
/// and a timeout above the GT-ITM round trip, so nothing is retransmitted.
EngineConfig low_variance_config(double duration = 40.0) {
  EngineConfig cfg;
  cfg.duration_s = duration;
  cfg.poisson = false;  // deterministic arrivals for tight tolerances
  cfg.reliability.drain_s = 0.0;
  cfg.reliability.ack_timeout_s = 1.0;
  cfg.reliability.max_backoff_s = 4.0;
  return cfg;
}

TEST(SimulationTest, SingleStreamDeliveryMatchesRateAndCost) {
  World w(1);
  const query::StreamId s = w.catalog.add_stream("A", 0, 50.0, 100.0);
  query::Query q;
  q.id = 1;
  q.sources = {s};
  q.sink = static_cast<net::NodeId>(w.net.node_count() - 1);
  query::RateModel rates(w.catalog, q);

  query::Deployment d;
  d.query = q.id;
  query::LeafUnit u;
  u.mask = 1;
  u.location = 0;
  u.bytes_rate = rates.bytes_rate(1);
  u.tuple_rate = rates.tuple_rate(1);
  d.units = {u};
  d.sink = q.sink;

  Simulation sim(w.net, w.rt, w.catalog, low_variance_config(), 7);
  sim.deploy(d, rates);
  sim.run();

  EXPECT_NEAR(sim.delivered_rate(q.id), 50.0, 2.0);
  const double analytic = query::deployment_cost(d, w.rt);
  EXPECT_NEAR(sim.measured_cost_per_second(), analytic, 0.05 * analytic);
}

TEST(SimulationTest, JoinOutputRateMatchesAnalyticModel) {
  World w(2);
  const query::StreamId a = w.catalog.add_stream("A", 0, 40.0, 80.0);
  const query::StreamId b = w.catalog.add_stream("B", 1, 40.0, 80.0);
  w.catalog.set_selectivity(a, b, 0.02);  // exact inverse: domain 50

  query::Query q;
  q.id = 2;
  q.sources = {a, b};
  q.sink = 5;
  query::RateModel rates(w.catalog, q);

  opt::OptimizerEnv env;
  env.catalog = &w.catalog;
  env.network = &w.net;
  env.routing = &w.rt;
  env.reuse = false;
  opt::ExhaustiveOptimizer ex(env);
  const opt::OptimizeResult res = ex.optimize(q);
  ASSERT_TRUE(res.feasible);

  Simulation sim(w.net, w.rt, w.catalog, low_variance_config(60.0), 11);
  sim.deploy(res.deployment, rates);
  sim.run();

  // Analytic: 40 * 40 * 0.02 = 32 result tuples per second.
  EXPECT_NEAR(sim.delivered_rate(q.id), 32.0, 5.0);
  EXPECT_NEAR(sim.measured_cost_per_second(), res.actual_cost,
              0.15 * res.actual_cost + 1e-9);
}

TEST(SimulationTest, ThreeWayJoinCostTracksPlannedCost) {
  World w(3);
  const query::StreamId a = w.catalog.add_stream("A", 0, 30.0, 60.0);
  const query::StreamId b = w.catalog.add_stream("B", 3, 30.0, 60.0);
  const query::StreamId c = w.catalog.add_stream("C", 7, 30.0, 60.0);
  w.catalog.set_selectivity(a, b, 0.05);
  w.catalog.set_selectivity(a, c, 0.04);
  w.catalog.set_selectivity(b, c, 0.025);

  query::Query q;
  q.id = 3;
  q.sources = {a, b, c};
  q.sink = 9;
  query::RateModel rates(w.catalog, q);

  opt::OptimizerEnv env;
  env.catalog = &w.catalog;
  env.network = &w.net;
  env.routing = &w.rt;
  env.reuse = false;
  opt::ExhaustiveOptimizer ex(env);
  const opt::OptimizeResult res = ex.optimize(q);
  ASSERT_TRUE(res.feasible);

  Simulation sim(w.net, w.rt, w.catalog, low_variance_config(60.0), 13);
  sim.deploy(res.deployment, rates);
  sim.run();
  // The dominant cost comes from base-stream edges (deterministic); join
  // outputs add stochastic but small contributions.
  EXPECT_NEAR(sim.measured_cost_per_second(), res.actual_cost,
              0.2 * res.actual_cost + 1e-9);
}

TEST(SimulationTest, ReusedOperatorStreamsOnlyOnce) {
  // Two identical queries with different sinks. With reuse, the second
  // deployment adds only a provider→sink edge; base streams flow once.
  World w(4);
  const query::StreamId a = w.catalog.add_stream("A", 0, 40.0, 100.0);
  const query::StreamId b = w.catalog.add_stream("B", 2, 40.0, 100.0);
  w.catalog.set_selectivity(a, b, 0.02);

  query::Query q1;
  q1.id = 10;
  q1.sources = {a, b};
  q1.sink = 8;
  query::Query q2 = q1;
  q2.id = 11;
  q2.sink = 9;
  query::RateModel rates1(w.catalog, q1);
  query::RateModel rates2(w.catalog, q2);

  opt::OptimizerEnv env;
  env.catalog = &w.catalog;
  env.network = &w.net;
  env.routing = &w.rt;
  advert::Registry registry;
  env.registry = &registry;
  env.reuse = true;
  opt::ExhaustiveOptimizer ex(env);

  const opt::OptimizeResult r1 = ex.optimize(q1);
  advert::advertise_deployment(registry, r1.deployment, rates1);
  const opt::OptimizeResult r2 = ex.optimize(q2);
  ASSERT_TRUE(r2.feasible);
  // The second plan must reuse a derived stream rather than re-join.
  bool reused = false;
  for (const query::LeafUnit& u : r2.deployment.units) reused |= u.derived;
  ASSERT_TRUE(reused);

  Simulation sim(w.net, w.rt, w.catalog, low_variance_config(60.0), 17);
  sim.deploy(r1.deployment, rates1);
  sim.deploy(r2.deployment, rates2);
  sim.run();

  EXPECT_GT(sim.tuples_delivered(q1.id), 0u);
  EXPECT_GT(sim.tuples_delivered(q2.id), 0u);
  // Both sinks receive comparable result volumes from ONE joint pipeline.
  EXPECT_NEAR(static_cast<double>(sim.tuples_delivered(q2.id)),
              static_cast<double>(sim.tuples_delivered(q1.id)),
              0.35 * static_cast<double>(sim.tuples_delivered(q1.id)) + 10.0);
  // Measured total tracks the combined marginal costs.
  const double combined = r1.actual_cost + r2.actual_cost;
  EXPECT_NEAR(sim.measured_cost_per_second(), combined, 0.2 * combined + 1e-9);
}

TEST(SimulationTest, DerivedUnitWithoutProducerIsRejected) {
  World w(5);
  const query::StreamId a = w.catalog.add_stream("A", 0, 10.0, 10.0);
  const query::StreamId b = w.catalog.add_stream("B", 1, 10.0, 10.0);
  w.catalog.set_selectivity(a, b, 0.1);
  query::Query q;
  q.id = 20;
  q.sources = {a, b};
  q.sink = 3;
  query::RateModel rates(w.catalog, q);

  query::Deployment d;
  d.query = q.id;
  query::LeafUnit u;
  u.mask = 0b11;
  u.location = 2;
  u.derived = true;
  u.bytes_rate = rates.bytes_rate(0b11);
  u.tuple_rate = rates.tuple_rate(0b11);
  d.units = {u};
  d.sink = q.sink;

  Simulation sim(w.net, w.rt, w.catalog, low_variance_config(), 19);
  EXPECT_THROW(sim.deploy(d, rates), CheckError);
}

TEST(SimulationTest, SelectiveJoinProducesNoSpuriousMatches) {
  // Selectivity 1/1000 with low rates: expect (almost) no output.
  World w(6);
  const query::StreamId a = w.catalog.add_stream("A", 0, 5.0, 10.0);
  const query::StreamId b = w.catalog.add_stream("B", 1, 5.0, 10.0);
  w.catalog.set_selectivity(a, b, 0.001);
  query::Query q;
  q.id = 30;
  q.sources = {a, b};
  q.sink = 4;
  query::RateModel rates(w.catalog, q);

  opt::OptimizerEnv env;
  env.catalog = &w.catalog;
  env.network = &w.net;
  env.routing = &w.rt;
  env.reuse = false;
  opt::ExhaustiveOptimizer ex(env);
  const opt::OptimizeResult res = ex.optimize(q);

  Simulation sim(w.net, w.rt, w.catalog, low_variance_config(30.0), 23);
  sim.deploy(res.deployment, rates);
  sim.run();
  // Expected output: 5*5*0.001 = 0.025/s => ~0.75 tuples in 30 s.
  EXPECT_LE(sim.tuples_delivered(q.id), 6u);
}

TEST(SimulationTest, PoissonAndDeterministicAgreeOnAverages) {
  World w(7);
  const query::StreamId a = w.catalog.add_stream("A", 0, 50.0, 50.0);
  query::Query q;
  q.id = 40;
  q.sources = {a};
  q.sink = 6;
  query::RateModel rates(w.catalog, q);
  query::Deployment d;
  d.query = q.id;
  query::LeafUnit u;
  u.mask = 1;
  u.location = 0;
  u.bytes_rate = rates.bytes_rate(1);
  u.tuple_rate = rates.tuple_rate(1);
  d.units = {u};
  d.sink = q.sink;

  EngineConfig det = low_variance_config(40.0);
  EngineConfig poi = det;
  poi.poisson = true;

  Simulation s1(w.net, w.rt, w.catalog, det, 29);
  s1.deploy(d, rates);
  s1.run();
  Simulation s2(w.net, w.rt, w.catalog, poi, 31);
  s2.deploy(d, rates);
  s2.run();
  EXPECT_NEAR(s1.delivered_rate(q.id), s2.delivered_rate(q.id),
              0.12 * s1.delivered_rate(q.id));
}

/// Line 0—1—2 with one stream at node 0 delivered to a sink at node 2;
/// crashing node 1 severs the only route.
struct FaultRig {
  net::Network net;
  net::RoutingTables rt;
  query::Catalog catalog;
  query::Query q;
  query::Deployment d;

  FaultRig() {
    for (int i = 0; i < 3; ++i) net.add_node();
    net.add_link(0, 1, 1.0, 1.0, 1e6);
    net.add_link(1, 2, 1.0, 1.0, 1e6);
    rt = net::RoutingTables::build(net);
    const query::StreamId s = catalog.add_stream("A", 0, 50.0, 100.0);
    q.id = 50;
    q.sources = {s};
    q.sink = 2;
    query::RateModel rates(catalog, q);
    d.query = q.id;
    query::LeafUnit u;
    u.mask = 1;
    u.location = 0;
    u.bytes_rate = rates.bytes_rate(1);
    u.tuple_rate = rates.tuple_rate(1);
    d.units = {u};
    d.sink = q.sink;
  }
};

TEST(SimulationFaultTest, NoFaultsMeansFullAvailabilityAndZeroDowntime) {
  FaultRig r;
  query::RateModel rates(r.catalog, r.q);
  Simulation sim(r.net, r.rt, r.catalog, low_variance_config(), 7);
  sim.deploy(r.d, rates);
  sim.run();
  EXPECT_NEAR(sim.availability(r.q.id), 1.0, 0.05);
  EXPECT_DOUBLE_EQ(sim.downtime_s(r.q.id), 0.0);
  EXPECT_EQ(sim.tuples_dropped(), 0u);
}

/// Fire-and-forget delivery: no retransmission, so an outage loses exactly
/// what was sent into it.
EngineConfig no_retry_config(double duration) {
  EngineConfig cfg = low_variance_config(duration);
  cfg.reliability.max_retries = 0;
  return cfg;
}

TEST(SimulationFaultTest, MidRunCrashHalvesAvailability) {
  FaultRig r;
  query::RateModel rates(r.catalog, r.q);
  Simulation sim(r.net, r.rt, r.catalog, no_retry_config(40.0), 7);
  sim.deploy(r.d, rates);
  sim.schedule_fault({20.0, SimFault::Kind::kCrashNode, 1, net::kInvalidNode});
  sim.run();
  // Delivery works for the first half only; the severed route loses the
  // rest in flight (or at the source's send).
  EXPECT_NEAR(sim.availability(r.q.id), 0.5, 0.05);
  EXPECT_NEAR(sim.downtime_s(r.q.id), 20.0, 0.5);
  EXPECT_GT(sim.delivery_stats(r.q.id).lost, 0u);
}

TEST(SimulationFaultTest, RestoreResumesDelivery) {
  FaultRig r;
  query::RateModel rates(r.catalog, r.q);
  Simulation sim(r.net, r.rt, r.catalog, no_retry_config(40.0), 7);
  sim.deploy(r.d, rates);
  sim.schedule_fault({10.0, SimFault::Kind::kCrashNode, 1, net::kInvalidNode});
  sim.schedule_fault({20.0, SimFault::Kind::kRestoreNode, 1,
                      net::kInvalidNode});
  sim.run();
  EXPECT_NEAR(sim.availability(r.q.id), 0.75, 0.05);
  EXPECT_NEAR(sim.downtime_s(r.q.id), 10.0, 0.5);
}

TEST(SimulationFaultTest, LinkFlapDropsOnlyTheOutageWindow) {
  FaultRig r;
  query::RateModel rates(r.catalog, r.q);
  Simulation sim(r.net, r.rt, r.catalog, no_retry_config(40.0), 7);
  sim.deploy(r.d, rates);
  sim.schedule_fault({10.0, SimFault::Kind::kFailLink, 0, 1});
  sim.schedule_fault({30.0, SimFault::Kind::kRestoreLink, 0, 1});
  sim.run();
  EXPECT_NEAR(sim.availability(r.q.id), 0.5, 0.05);
  EXPECT_NEAR(sim.downtime_s(r.q.id), 20.0, 0.5);
  EXPECT_GT(sim.delivery_stats(r.q.id).lost, 0u);
}

EngineConfig reliable_config(double duration = 30.0) {
  EngineConfig cfg;
  cfg.duration_s = duration;
  cfg.poisson = false;
  return cfg;
}

TEST(SimulationReliabilityTest, DisablingTheChannelPlaneIsRejected) {
  FaultRig r;
  EngineConfig cfg = reliable_config();
  cfg.reliability.enabled = false;
  EXPECT_THROW(Simulation(r.net, r.rt, r.catalog, cfg, 7), CheckError);
}

TEST(SimulationReliabilityTest, LossyRunDeliversLossFreeCounts) {
  FaultRig clean_rig;
  query::RateModel clean_rates(clean_rig.catalog, clean_rig.q);
  Simulation clean(clean_rig.net, clean_rig.rt, clean_rig.catalog,
                   reliable_config(), 7);
  clean.deploy(clean_rig.d, clean_rates);
  clean.run();

  FaultRig lossy_rig;
  lossy_rig.net.set_link_loss(0, 1, 0.08);
  lossy_rig.net.set_link_loss(1, 2, 0.08);
  query::RateModel lossy_rates(lossy_rig.catalog, lossy_rig.q);
  Simulation lossy(lossy_rig.net, lossy_rig.rt, lossy_rig.catalog,
                   reliable_config(), 7);
  lossy.deploy(lossy_rig.d, lossy_rates);
  lossy.run();

  // Ack-based retransmission + receiver dedup: the lossy run delivers
  // exactly the loss-free counts (at-least-once made effectively
  // exactly-once), at the price of retransmissions and suppressed
  // duplicates from lost acks.
  ASSERT_GT(clean.tuples_delivered(clean_rig.q.id), 0u);
  EXPECT_EQ(lossy.tuples_delivered(lossy_rig.q.id),
            clean.tuples_delivered(clean_rig.q.id));
  const DeliveryStats ds = lossy.delivery_stats(lossy_rig.q.id);
  EXPECT_EQ(ds.lost, 0u);
  EXPECT_GT(ds.retransmits, 0u);
  EXPECT_GT(ds.duplicates, 0u);
  EXPECT_GT(ds.retransmit_bytes, 0.0);
  EXPECT_EQ(clean.delivery_stats(clean_rig.q.id).retransmits, 0u);
}

TEST(SimulationReliabilityTest, ReplayAfterLinkFlapLosesNothing) {
  FaultRig clean_rig;
  query::RateModel clean_rates(clean_rig.catalog, clean_rig.q);
  Simulation clean(clean_rig.net, clean_rig.rt, clean_rig.catalog,
                   reliable_config(), 7);
  clean.deploy(clean_rig.d, clean_rates);
  clean.run();

  // A 2 s outage sits well inside the retry budget's reach (12 retries
  // with the backoff capped at 0.4 s spans > 4 s), so the ack-trimmed
  // replay buffer re-delivers everything sent into the dead link.
  FaultRig r;
  query::RateModel rates(r.catalog, r.q);
  Simulation sim(r.net, r.rt, r.catalog, reliable_config(), 7);
  sim.deploy(r.d, rates);
  sim.schedule_fault({10.0, SimFault::Kind::kFailLink, 0, 1});
  sim.schedule_fault({12.0, SimFault::Kind::kRestoreLink, 0, 1});
  sim.run();

  EXPECT_EQ(sim.tuples_delivered(r.q.id),
            clean.tuples_delivered(clean_rig.q.id));
  const DeliveryStats ds = sim.delivery_stats(r.q.id);
  EXPECT_EQ(ds.lost, 0u);
  EXPECT_GT(ds.retransmits, 0u);
}

TEST(SimulationReliabilityTest, ReplayAfterShortCrashLosesNothing) {
  FaultRig clean_rig;
  query::RateModel clean_rates(clean_rig.catalog, clean_rig.q);
  Simulation clean(clean_rig.net, clean_rig.rt, clean_rig.catalog,
                   reliable_config(), 7);
  clean.deploy(clean_rig.d, clean_rates);
  clean.run();

  FaultRig r;
  query::RateModel rates(r.catalog, r.q);
  Simulation sim(r.net, r.rt, r.catalog, reliable_config(), 7);
  sim.deploy(r.d, rates);
  sim.schedule_fault({10.0, SimFault::Kind::kCrashNode, 1, net::kInvalidNode});
  sim.schedule_fault({12.0, SimFault::Kind::kRestoreNode, 1,
                      net::kInvalidNode});
  sim.run();

  EXPECT_EQ(sim.tuples_delivered(r.q.id),
            clean.tuples_delivered(clean_rig.q.id));
  EXPECT_EQ(sim.delivery_stats(r.q.id).lost, 0u);
}

TEST(SimulationReliabilityTest, OutageLongerThanTheRetryBudgetIsCountedLost) {
  // A 20 s crash of the relay outlasts the retry chain (12 retries with the
  // backoff capped at 0.4 s span under 5 s): what was sent into the outage
  // is given up and counted lost, never silently dropped.
  FaultRig r;
  query::RateModel rates(r.catalog, r.q);
  Simulation sim(r.net, r.rt, r.catalog, reliable_config(40.0), 7);
  sim.deploy(r.d, rates);
  sim.schedule_fault({10.0, SimFault::Kind::kCrashNode, 1, net::kInvalidNode});
  sim.schedule_fault({30.0, SimFault::Kind::kRestoreNode, 1,
                      net::kInvalidNode});
  sim.run();

  const DeliveryStats ds = sim.delivery_stats(r.q.id);
  EXPECT_GT(ds.lost, 0u);
  EXPECT_LT(ds.delivered, sim.tuples_emitted());
  // Every emitted tuple is delivered or counted lost. The sum may exceed
  // the emitted count: a tuple delivered just before the crash whose ack
  // died with the relay is given up as well.
  EXPECT_GE(ds.delivered + ds.lost, sim.tuples_emitted());
}

TEST(SimulationReliabilityTest, MidRunLossFaultForcesRetransmission) {
  FaultRig r;
  query::RateModel rates(r.catalog, r.q);
  Simulation sim(r.net, r.rt, r.catalog, reliable_config(), 7);
  sim.deploy(r.d, rates);
  sim.schedule_fault({5.0, SimFault::Kind::kSetLinkLoss, 0, 1, 0.10});
  sim.schedule_fault({5.0, SimFault::Kind::kSetLinkJitter, 1, 2, 2.0});
  sim.run();

  const DeliveryStats ds = sim.delivery_stats(r.q.id);
  EXPECT_GT(ds.retransmits, 0u);
  EXPECT_EQ(ds.lost, 0u);
  EXPECT_EQ(static_cast<std::uint64_t>(sim.tuples_emitted()), ds.delivered);
}

TEST(SimulationReliabilityTest, BackpressureNeverDropsAndBoundsDepth) {
  FaultRig r;
  query::RateModel rates(r.catalog, r.q);
  EngineConfig cfg = reliable_config();
  cfg.poisson = true;  // bursts actually exercise the bounded queue
  cfg.reliability.queue_capacity = 4;
  cfg.reliability.service_s = 0.015;  // 50 t/s arrivals: utilization 0.75
  cfg.reliability.overflow = OverflowPolicy::kBackpressure;
  Simulation sim(r.net, r.rt, r.catalog, cfg, 7);
  sim.deploy(r.d, rates);
  sim.run();

  const DeliveryStats ds = sim.delivery_stats(r.q.id);
  // Backpressure refuses instead of dropping: everything emitted is
  // eventually serviced, and the queue never exceeds its capacity.
  EXPECT_EQ(ds.shed, 0u);
  EXPECT_EQ(ds.lost, 0u);
  EXPECT_EQ(ds.delivered, sim.tuples_emitted());
  EXPECT_GE(ds.max_queue_depth, 2u);
  EXPECT_LE(ds.max_queue_depth, 4u);
}

TEST(SimulationReliabilityTest, DropPoliciesShedExactlyTheOverload) {
  // Sustained 2x overload (50 t/s into a 25 t/s server): every emitted
  // tuple is either delivered or shed, never silently lost, under both
  // shedding policies.
  const auto run_policy = [](OverflowPolicy policy) {
    FaultRig r;
    query::RateModel rates(r.catalog, r.q);
    EngineConfig cfg = reliable_config();
    cfg.reliability.queue_capacity = 4;
    cfg.reliability.service_s = 0.04;
    cfg.reliability.overflow = policy;
    Simulation sim(r.net, r.rt, r.catalog, cfg, 7);
    sim.deploy(r.d, rates);
    sim.run();
    const DeliveryStats ds = sim.delivery_stats(r.q.id);
    EXPECT_EQ(ds.delivered + ds.shed, sim.tuples_emitted());
    EXPECT_GT(ds.shed, 0u);
    EXPECT_GT(ds.delivered, 0u);
    EXPECT_EQ(ds.lost, 0u);
    return std::make_pair(ds, sim.mean_latency_ms(r.q.id));
  };

  const auto [oldest, oldest_latency] =
      run_policy(OverflowPolicy::kDropOldest);
  const auto [newest, newest_latency] =
      run_policy(OverflowPolicy::kDropNewest);
  // Drop-oldest favours fresh tuples: what it delivers queued for less
  // time than drop-newest's survivors, which sat through a full queue.
  EXPECT_LT(oldest_latency, newest_latency);
  // Both run service-bound at ~25 t/s, so they shed similar volumes.
  EXPECT_NEAR(static_cast<double>(oldest.shed),
              static_cast<double>(newest.shed),
              0.2 * static_cast<double>(newest.shed));
}

TEST(SimulationFaultTest, CrashedSourcePausesEmission) {
  FaultRig r;
  query::RateModel rates(r.catalog, r.q);
  Simulation sim(r.net, r.rt, r.catalog, low_variance_config(40.0), 7);
  sim.deploy(r.d, rates);
  sim.schedule_fault({20.0, SimFault::Kind::kCrashNode, 0, net::kInvalidNode});
  sim.run();
  // The source stops producing: nothing is dropped downstream, delivery
  // just halves.
  EXPECT_NEAR(sim.availability(r.q.id), 0.5, 0.05);
  EXPECT_NEAR(static_cast<double>(sim.tuples_emitted()), 50.0 * 20.0,
              50.0 * 2.0);
}

// --- Pinned engine outputs ---------------------------------------------------

/// FNV-1a over the text of a run's outputs; doubles enter as hexfloat so a
/// one-ulp change shows.
struct OutputDigest {
  std::uint64_t h = 1469598103934665603ULL;
  void add(const std::string& s) {
    for (const unsigned char c : s) h = (h ^ c) * 1099511628211ULL;
    h = (h ^ 0xFFU) * 1099511628211ULL;  // field separator
  }
  void count(std::uint64_t v) { add(std::to_string(v)); }
  void real(double v) {
    std::ostringstream o;
    o << std::hexfloat << v;
    add(o.str());
  }
};

/// A seeded 64-node transit-stub world with six join queries deployed
/// through the middleware (Top-Down, reuse on).
struct PinnedWorld {
  net::Network net;
  workload::Workload wl;
  std::unique_ptr<Middleware> mw;
  std::vector<Middleware::ActiveView> views;

  PinnedWorld() {
    Prng prng(2007);
    Prng net_prng = prng.fork(1);
    net = net::make_transit_stub(net::scale_to(64), net_prng);
    workload::WorkloadParams wp;
    wp.num_streams = 10;
    wp.min_joins = 1;
    wp.max_joins = 2;
    wp.selectivity_min = 0.1;
    wp.selectivity_max = 0.3;
    wp.tuple_rate_min = 20.0;
    wp.tuple_rate_max = 60.0;
    Prng wl_prng = prng.fork(2);
    wl = workload::make_workload(net, wp, 6, wl_prng);
    mw = std::make_unique<Middleware>(net, wl.catalog, 32, Algorithm::kTopDown,
                                      5);
    mw->workspace().set_threads(1);
    for (const query::Query& q : wl.queries) mw->deploy(q);
    views = mw->active_views();
  }

  /// Digest of every per-query, per-link and plane-wide output of a run.
  std::uint64_t digest(const Simulation& sim,
                       const net::Network& run_net) const {
    OutputDigest d;
    for (const Middleware::ActiveView& v : views) {
      const query::QueryId q = v.query->id;
      d.count(sim.tuples_delivered(q));
      d.real(sim.mean_latency_ms(q));
      const DeliveryStats s = sim.delivery_stats(q);
      for (const std::uint64_t c :
           {s.delivered, s.shed, s.lost, s.duplicates, s.retransmits,
            std::uint64_t{s.max_queue_depth}, std::uint64_t{s.seen_high_water},
            std::uint64_t{s.retained_high_water}}) {
        d.count(c);
      }
      for (const double r : {s.goodput_tps, s.data_bytes, s.retransmit_bytes,
                             s.snapshot_bytes}) {
        d.real(r);
      }
    }
    const SnapshotStats ss = sim.snapshot_stats();
    for (const std::int64_t c :
         {ss.epochs_committed, ss.epochs_aborted, ss.recoveries}) {
      d.count(static_cast<std::uint64_t>(c));
    }
    d.count(ss.replayed_tuples);
    d.count(ss.retained_high_water);
    for (const double r :
         {ss.bytes_last, ss.bytes_total, ss.bytes_max, ss.barrier_latency_sum_s,
          ss.barrier_latency_max_s, ss.recovery_latency_sum_s,
          ss.recovery_latency_max_s}) {
      d.real(r);
    }
    for (std::size_t i = 0; i < run_net.link_count(); ++i) {
      d.real(sim.link_bytes(i));
    }
    d.count(sim.tuples_dropped());
    d.count(sim.tuples_emitted());
    return d.h;
  }
};

EngineConfig pinned_reliable_config() {
  EngineConfig cfg;
  cfg.duration_s = 15.0;
  cfg.reliability.ack_timeout_s = 1.0;
  cfg.reliability.max_backoff_s = 4.0;
  return cfg;
}

// Pins the engine's outputs across commits: every delivered count, delivery
// and snapshot statistic, link byte total and mean latency of four runs on
// one seeded world. A change to the engine that should not change behaviour
// must leave these values as they are. The values also depend on the
// standard library's random distributions (libstdc++ here), which the
// standard leaves implementation-defined.
TEST(SimulationPinnedTest, OutputsMatchRecordedDigests) {
  const PinnedWorld w;
  ASSERT_GE(w.views.size(), 4u);
  std::map<std::string, std::uint64_t> got;

  {  // Loss-free, emitting for the whole run: no retransmission at all.
    EngineConfig cfg = pinned_reliable_config();
    cfg.reliability.drain_s = 0.0;
    Simulation sim(w.net, w.mw->routing(), w.mw->catalog(), cfg, 11);
    ASSERT_TRUE(w.mw->deploy_actives(sim));
    sim.run();
    for (const auto& v : w.views) {
      EXPECT_EQ(sim.delivery_stats(v.query->id).retransmits, 0u);
    }
    got["loss-free"] = w.digest(sim, w.net);
  }

  net::Network lossy = w.net;
  for (const net::Link& l : w.net.links()) lossy.set_link_loss(l.a, l.b, 0.02);
  const net::RoutingTables lossy_rt = net::RoutingTables::build(lossy);
  {  // Reliable plane at 2% loss with coordinated checkpoints.
    EngineConfig cfg = pinned_reliable_config();
    cfg.checkpoint.enabled = true;
    cfg.checkpoint.interval_s = 2.0;
    Simulation sim(lossy, lossy_rt, w.mw->catalog(), cfg, 11);
    ASSERT_TRUE(w.mw->deploy_actives(sim));
    sim.run();
    EXPECT_GT(sim.snapshot_stats().epochs_committed, 0);
    got["lossy-checkpointed"] = w.digest(sim, lossy);
  }

  {  // A timeout below the path RTT: spurious retransmits, duplicates,
     // acks of superseded copies and retry timers, reordered by jitter.
    net::Network jittery = w.net;
    for (const net::Link& l : w.net.links()) {
      jittery.set_link_loss(l.a, l.b, 0.01);
      jittery.set_link_jitter(l.a, l.b, 5.0);
    }
    const net::RoutingTables rt = net::RoutingTables::build(jittery);
    EngineConfig cfg = pinned_reliable_config();
    cfg.reliability.ack_timeout_s = 0.02;
    cfg.reliability.max_backoff_s = 0.4;
    Simulation sim(jittery, rt, w.mw->catalog(), cfg, 11);
    ASSERT_TRUE(w.mw->deploy_actives(sim));
    sim.run();
    std::uint64_t dups = 0;
    for (const auto& v : w.views) {
      dups += sim.delivery_stats(v.query->id).duplicates;
    }
    EXPECT_GT(dups, 0u);
    got["spurious-timeouts"] = w.digest(sim, jittery);
  }

  {  // Volatile checkpoints with a link flap, a crash/restore and a warm
     // migration: rollback, replay and route changes mid-run. The targets
     // are the first join placed away from one of its inputs (crashed, then
     // migrated onto that input's node) and the first link the input crosses.
    net::NodeId op_node = net::kInvalidNode;
    net::NodeId input = net::kInvalidNode;
    for (const auto& v : w.views) {
      for (const query::LeafUnit& u : v.deployment->units) {
        if (!v.deployment->ops.empty() &&
            u.location != v.deployment->ops.front().node &&
            op_node == net::kInvalidNode) {
          op_node = v.deployment->ops.front().node;
          input = u.location;
        }
      }
    }
    ASSERT_NE(op_node, net::kInvalidNode);
    const std::vector<net::NodeId> path =
        w.mw->routing().cost_path(input, op_node);
    ASSERT_GE(path.size(), 2u);
    EngineConfig cfg = pinned_reliable_config();
    cfg.duration_s = 20.0;
    cfg.checkpoint.enabled = true;
    cfg.checkpoint.volatile_state = true;
    cfg.checkpoint.interval_s = 2.0;
    Simulation sim(w.net, w.mw->routing(), w.mw->catalog(), cfg, 11);
    ASSERT_TRUE(w.mw->deploy_actives(sim));
    sim.schedule_fault({4.0, SimFault::Kind::kFailLink, path[0], path[1]});
    sim.schedule_fault({5.5, SimFault::Kind::kRestoreLink, path[0], path[1]});
    sim.schedule_fault({9.0, SimFault::Kind::kCrashNode, op_node});
    sim.schedule_fault({10.0, SimFault::Kind::kRestoreNode, op_node});
    // The migration lands while the 12 s barrier is still aligning: its
    // abort drains parked arrivals, which send through the moved operators
    // before and after they move.
    sim.schedule_fault({12.2, SimFault::Kind::kMigrateOps, op_node, input});
    sim.run();
    EXPECT_GT(sim.snapshot_stats().recoveries, 0);
    EXPECT_GT(sim.snapshot_stats().epochs_aborted, 0);
    got["faults-volatile"] = w.digest(sim, w.net);
  }

  const std::map<std::string, std::uint64_t> pinned = {
      {"loss-free", 0x101ee8c97cf28d4cULL},
      {"lossy-checkpointed", 0xc2f24c6bd602ad2fULL},
      {"spurious-timeouts", 0x24d905c02717bdaaULL},
      {"faults-volatile", 0x2adac50a4b23df3cULL},
  };
  for (const auto& [arm, h] : got) {
    EXPECT_EQ(h, pinned.at(arm)) << arm << " digest 0x" << std::hex << h;
  }
}

}  // namespace
}  // namespace iflow::engine
