// Gray-failure health plane (DESIGN.md §15): φ-accrual detection over
// channel telemetry, exonerate-then-cover attribution, the quarantine /
// probation lifecycle, health-aware planning, and the run_gray detection
// contract.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/health.h"
#include "engine/middleware.h"
#include "net/routing.h"
#include "workload/generator.h"

namespace iflow::engine {
namespace {

/// Telemetry for one channel along `path`, either bit-exact clean (RTT
/// equals the stored expectation, zero retransmits) or heavily sick.
ChannelTelemetry channel(std::vector<net::NodeId> path, bool sick) {
  ChannelTelemetry t;
  t.from = path.front();
  t.to = path.back();
  t.path = std::move(path);
  t.sent = 100;
  t.rtt_samples = sick ? 40 : 100;
  t.expected_rtt_sum_ms = static_cast<double>(t.rtt_samples) * 2.0;
  if (sick) {
    t.retransmits = 60;
    t.rtt_sum_ms = t.expected_rtt_sum_ms * 4.0;
  } else {
    t.retransmits = 0;
    t.rtt_sum_ms = t.expected_rtt_sum_ms;
  }
  return t;
}

TEST(HealthMonitorTest, CleanTelemetryRaisesNoSuspicion) {
  net::Network net;
  for (int i = 0; i < 4; ++i) net.add_node();
  net.add_link(0, 1, 1.0, 1.0, 1e6);
  net.add_link(1, 2, 1.0, 1.0, 1e6);
  net.add_link(1, 3, 1.0, 1.0, 1e6);
  HealthMonitor hm(4, 7);
  for (int epoch = 0; epoch < 6; ++epoch) {
    hm.observe({channel({0, 1, 2}, false), channel({0, 1, 3}, false)});
    const auto trans = hm.step(net, 10.0 * (epoch + 1), 10.0);
    EXPECT_TRUE(trans.empty());
  }
  for (net::NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(hm.state(n), HealthState::kHealthy);
    EXPECT_EQ(hm.phi(n), 0.0);  // exact: clean signals are exactly zero
  }
  // Exactly-1.0 penalties are the digest-stability foundation: multiplying
  // by them cannot perturb a single bit of any planner price.
  for (const double p : hm.node_penalty()) EXPECT_EQ(p, 1.0);
  EXPECT_TRUE(hm.quarantined().empty());
  EXPECT_EQ(hm.quarantines_total(), 0u);
}

TEST(HealthMonitorTest, GreedyCoverBlamesTheSharedHubNotTheEndpoints) {
  // Star: every channel crosses hub 1. All channels sick -> the hub alone
  // explains every observation, so only it accrues suspicion. (A naive
  // min-over-crossing-channels rule inverts this: the hub's min ranges
  // over all channels, giving it the LOWEST suspicion in its own star.)
  net::Network net;
  for (int i = 0; i < 5; ++i) net.add_node();
  for (net::NodeId n : {0u, 2u, 3u, 4u}) net.add_link(1, n, 1.0, 1.0, 1e6);
  HealthMonitor hm(5, 7);
  hm.observe({channel({0, 1, 2}, true), channel({0, 1, 3}, true),
              channel({4, 1, 2}, true)});
  hm.step(net, 10.0, 10.0);
  EXPECT_GT(hm.phi(1), 0.0);
  for (net::NodeId n : {0u, 2u, 3u, 4u}) {
    EXPECT_EQ(hm.phi(n), 0.0) << "endpoint " << n << " wrongly blamed";
  }
}

TEST(HealthMonitorTest, CleanChannelExoneratesSharedPathNodes) {
  // Node 1 carries one sick and one clean channel: the clean one proves it
  // healthy, so the blame must fall past it — onto the sick channel's
  // other nodes (the greedy cover picks node 2, which nothing exonerates).
  net::Network net;
  for (int i = 0; i < 4; ++i) net.add_node();
  net.add_link(0, 1, 1.0, 1.0, 1e6);
  net.add_link(1, 2, 1.0, 1.0, 1e6);
  net.add_link(1, 3, 1.0, 1.0, 1e6);
  HealthMonitor hm(4, 7);
  hm.observe({channel({0, 1, 2}, true), channel({0, 1, 3}, false)});
  hm.step(net, 10.0, 10.0);
  EXPECT_EQ(hm.phi(0), 0.0);
  EXPECT_EQ(hm.phi(1), 0.0);
  EXPECT_GT(hm.phi(2), 0.0);
}

TEST(HealthMonitorTest, LifecycleConfirmsQuarantinesAndReadmitsViaProbes) {
  // Two sick channels share the {1, 2} segment; node 1 covers both and wins
  // the greedy cover (tie with node 2 breaks toward the lower id).
  net::Network net;
  for (int i = 0; i < 4; ++i) net.add_node();
  net.add_link(0, 1, 1.0, 1.0, 1e6);
  net.add_link(1, 2, 1.0, 1.0, 1e6);
  net.add_link(1, 3, 1.0, 1.0, 1e6);
  // Detector constants: 2 confirm epochs, 2 probes per epoch, budget 4.
  HealthMonitor hm(4, 7);
  net.degrade_node(1, net::Degradation{3.0, 0.6, 0.0});

  // Epoch 0: the hub turns suspect (phi crosses both thresholds but the
  // confirm streak is 1 < 2).
  hm.observe({channel({0, 1, 2}, true), channel({3, 1, 2}, true)});
  auto trans = hm.step(net, 10.0, 10.0);
  ASSERT_EQ(trans.size(), 1u);
  EXPECT_EQ(trans[0].node, 1u);
  EXPECT_EQ(trans[0].to, HealthState::kSuspect);

  // Epoch 1: second confirmation quarantines it.
  hm.observe({channel({0, 1, 2}, true), channel({3, 1, 2}, true)});
  trans = hm.step(net, 20.0, 10.0);
  ASSERT_EQ(trans.size(), 1u);
  EXPECT_EQ(trans[0].to, HealthState::kQuarantined);
  EXPECT_EQ(hm.quarantines_total(), 1u);
  EXPECT_EQ(hm.node_penalty()[1], kHealthPenaltyMax);

  // Still degraded: probes stay dirty (slowdown 3.0 >= the RTT floor is
  // deterministically visible), so it stays quarantined.
  trans = hm.step(net, 30.0, 10.0);
  EXPECT_TRUE(trans.empty());
  EXPECT_EQ(hm.state(1), HealthState::kQuarantined);

  // Heal the element: first clean probe epoch moves it to probation (still
  // excluded), the second completes the budget and fully re-admits it.
  net.degrade_node(1, net::Degradation{});
  trans = hm.step(net, 40.0, 10.0);
  ASSERT_EQ(trans.size(), 1u);
  EXPECT_EQ(trans[0].to, HealthState::kProbation);
  EXPECT_FALSE(hm.quarantined().empty());  // probation still excluded
  trans = hm.step(net, 50.0, 10.0);
  ASSERT_EQ(trans.size(), 1u);
  EXPECT_EQ(trans[0].to, HealthState::kHealthy);
  EXPECT_EQ(hm.phi(1), 0.0);  // re-admission forgets the old suspicion
  EXPECT_EQ(hm.node_penalty()[1], 1.0);
  EXPECT_EQ(hm.quarantines_total(), 1u);  // probation return did not count
}

TEST(HealthMonitorTest, OnRestoreClearsAccruedSuspicion) {
  // A restored node is (modelled) replacement hardware: the φ accrued
  // against the old incarnation must not leak into its probation window as
  // stale suspicion. on_restore resets the lifecycle, the penalty and every
  // link-suspicion entry touching the node.
  net::Network net;
  for (int i = 0; i < 4; ++i) net.add_node();
  net.add_link(0, 1, 1.0, 1.0, 1e6);
  net.add_link(1, 2, 1.0, 1.0, 1e6);
  net.add_link(1, 3, 1.0, 1.0, 1e6);
  HealthMonitor hm(4, 7);
  net.degrade_node(1, net::Degradation{3.0, 0.6, 0.0});
  hm.observe({channel({0, 1, 2}, true), channel({3, 1, 2}, true)});
  hm.step(net, 10.0, 10.0);
  hm.observe({channel({0, 1, 2}, true), channel({3, 1, 2}, true)});
  hm.step(net, 20.0, 10.0);
  ASSERT_EQ(hm.state(1), HealthState::kQuarantined);
  ASSERT_GT(hm.phi(1), 0.0);
  ASSERT_FALSE(hm.link_suspicion().empty());

  hm.on_restore(1);
  EXPECT_EQ(hm.state(1), HealthState::kHealthy);
  EXPECT_EQ(hm.phi(1), 0.0);
  EXPECT_EQ(hm.node_penalty()[1], 1.0);
  EXPECT_TRUE(hm.quarantined().empty());
  for (const HealthMonitor::LinkSuspicion& l : hm.link_suspicion()) {
    EXPECT_NE(l.a, 1u);
    EXPECT_NE(l.b, 1u);
  }
  // Mid-epoch accumulators are gone too: a clean step raises nothing.
  const auto trans = hm.step(net, 30.0, 10.0);
  EXPECT_TRUE(trans.empty());
  EXPECT_EQ(hm.state(1), HealthState::kHealthy);
}

TEST(HealthMonitorTest, DirtyProbeSendsProbationBackToQuarantine) {
  net::Network net;
  for (int i = 0; i < 4; ++i) net.add_node();
  net.add_link(0, 1, 1.0, 1.0, 1e6);
  net.add_link(1, 2, 1.0, 1.0, 1e6);
  net.add_link(1, 3, 1.0, 1.0, 1e6);
  HealthMonitor hm(4, 7);
  net.degrade_node(1, net::Degradation{3.0, 0.0, 0.0});
  hm.observe({channel({0, 1, 2}, true), channel({3, 1, 2}, true)});
  hm.step(net, 10.0, 10.0);
  hm.observe({channel({0, 1, 2}, true), channel({3, 1, 2}, true)});
  hm.step(net, 20.0, 10.0);
  ASSERT_EQ(hm.state(1), HealthState::kQuarantined);
  // Clean epoch -> probation; re-degrading makes the next probe dirty and
  // demotes it straight back.
  net.degrade_node(1, net::Degradation{});
  hm.step(net, 30.0, 10.0);
  ASSERT_EQ(hm.state(1), HealthState::kProbation);
  net.degrade_node(1, net::Degradation{3.0, 0.0, 0.0});
  const auto trans = hm.step(net, 40.0, 10.0);
  ASSERT_EQ(trans.size(), 1u);
  EXPECT_EQ(trans[0].from, HealthState::kProbation);
  EXPECT_EQ(trans[0].to, HealthState::kQuarantined);
}

TEST(RunGrayTest, DetectorMeetsTheDetectionContractAtDefaultIntensity) {
  const workload::RelayStar w = workload::make_relay_star(30.0, 0.05);
  const GrayReport rep = run_gray(w.net, w.catalog, {w.query}, 8,
                                  Algorithm::kTopDown, 20070806);
  EXPECT_EQ(rep.violations, 0u) << rep.violation_detail;
  EXPECT_EQ(rep.false_positives, 0u);
  EXPECT_GE(rep.detection_epoch, 0);
  EXPECT_GE(rep.recovery_ratio, 1.5);
  EXPECT_TRUE(rep.contract_ok);
  ASSERT_EQ(rep.targets.size(), 1u);
  EXPECT_EQ(rep.targets[0], w.primary);
}

TEST(RunGrayTest, HealthyTwinNeverQuarantines) {
  const workload::RelayStar w = workload::make_relay_star(30.0, 0.05);
  GrayConfig cfg;
  cfg.degradation.loss = 0.0;  // degrade() applies a no-op degradation
  cfg.degradation.slowdown = 1.0;
  const GrayReport rep = run_gray(w.net, w.catalog, {w.query}, 8,
                                  Algorithm::kBottomUp, 11, cfg);
  EXPECT_EQ(rep.false_positives, 0u);
  EXPECT_EQ(rep.violations, 0u) << rep.violation_detail;
  // With nothing degraded anywhere, on == off == healthy bit for bit.
  EXPECT_EQ(rep.goodput_on, rep.goodput_off);
  EXPECT_EQ(rep.goodput_on, rep.goodput_healthy);
}

TEST(RunGrayTest, DigestsAreStableAcrossPlannerThreadCounts) {
  const workload::RelayStar w = workload::make_relay_star(30.0, 0.05);
  GrayConfig one;
  one.threads = 1;
  GrayConfig four;
  four.threads = 4;
  const GrayReport a = run_gray(w.net, w.catalog, {w.query}, 8,
                                Algorithm::kTopDown, 20070806, one);
  const GrayReport b = run_gray(w.net, w.catalog, {w.query}, 8,
                                Algorithm::kTopDown, 20070806, four);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.goodput_on, b.goodput_on);
  EXPECT_EQ(a.recovery_ratio, b.recovery_ratio);
}

TEST(MiddlewareHealthTest, QuarantineVacatesHostForEveryAlgorithm) {
  for (const Algorithm alg :
       {Algorithm::kTopDown, Algorithm::kBottomUp, Algorithm::kExhaustive,
        Algorithm::kPlanThenDeploy, Algorithm::kRelaxation,
        Algorithm::kInNetwork}) {
    workload::RelayStar w = workload::make_relay_star(30.0, 0.05);
    Middleware mw(w.net, w.catalog, 8, alg, 13);
    mw.deploy(w.query);
    mw.quarantine_node(w.primary);
    for (const Middleware::ActiveView& v : mw.active_views()) {
      for (const query::DeployedOp& op : v.deployment->ops) {
        EXPECT_NE(op.node, w.primary) << to_string(alg);
      }
      for (const query::LeafUnit& u : v.deployment->units) {
        if (u.derived) {
          EXPECT_NE(u.location, w.primary) << to_string(alg);
        }
      }
    }
    // New deployments avoid it too.
    query::Query q2 = w.query;
    q2.id = 2;
    mw.deploy(q2);
    for (const Middleware::ActiveView& v : mw.active_views()) {
      for (const query::DeployedOp& op : v.deployment->ops) {
        EXPECT_NE(op.node, w.primary) << to_string(alg);
      }
    }
    EXPECT_EQ(mw.quarantined_nodes().size(), 1u);
    mw.release_quarantine(w.primary);
    EXPECT_TRUE(mw.quarantined_nodes().empty());
  }
}

TEST(MiddlewareHealthTest, SuspicionPenaltySteersPlacementOffSickHosts) {
  // No quarantine at all: a suspicion-priced primary relay alone must push
  // fresh placements onto the clean backup, for every optimizer.
  for (const Algorithm alg :
       {Algorithm::kTopDown, Algorithm::kBottomUp, Algorithm::kExhaustive,
        Algorithm::kPlanThenDeploy, Algorithm::kRelaxation,
        Algorithm::kInNetwork}) {
    workload::RelayStar w = workload::make_relay_star(30.0, 0.05);
    Middleware mw(w.net, w.catalog, 8, alg, 13);
    std::vector<double> penalty(w.net.node_count(), 1.0);
    penalty[w.primary] = 8.0;
    mw.set_health_penalty(penalty);
    mw.deploy(w.query);
    for (const Middleware::ActiveView& v : mw.active_views()) {
      for (const query::DeployedOp& op : v.deployment->ops) {
        EXPECT_NE(op.node, w.primary) << to_string(alg);
      }
    }
  }
}

TEST(DegradationTest, DegradationsJournalAsQualityOnlyMutations) {
  workload::RelayStar w = workload::make_relay_star(30.0, 0.05);
  net::RoutingTables rt = net::RoutingTables::build(w.net);
  const std::uint64_t v0 = w.net.version();
  w.net.degrade_node(w.primary, net::Degradation{2.0, 0.1, 0.0});
  w.net.degrade_link(w.primary, w.sink, net::Degradation{1.0, 0.2, 0.0});
  const auto log = w.net.mutations_since(v0);
  ASSERT_TRUE(log.has_value());
  ASSERT_EQ(log->size(), 2u);
  for (const net::Mutation& m : *log) {
    EXPECT_EQ(m.kind, net::MutationKind::kQuality);
  }
  // Quality-only batches cost sync() nothing: no rebuild, metrics intact.
  const double before = rt.cost(2, w.sink);
  const net::RoutingSyncStats stats = rt.sync(w.net);
  EXPECT_TRUE(stats.quality_only);
  EXPECT_FALSE(stats.full_rebuild);
  EXPECT_EQ(rt.cost(2, w.sink), before);
}

}  // namespace
}  // namespace iflow::engine
