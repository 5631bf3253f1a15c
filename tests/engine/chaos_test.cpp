// Seeded chaos scenarios over the failure & churn subsystem.
//
// Each scenario replays a deterministic schedule of crashes, processing
// failures, link flaps, restores and rate spikes against a live Middleware
// and asserts the DESIGN.md §10 invariants: the validator stays silent
// after every event, full restoration resumes every suspended query, the
// churned system converges to within a constant factor of a fresh
// optimization of the same end state, and the whole transcript is
// bitwise-identical across planner thread counts.
#include <gtest/gtest.h>

#include <cmath>

#include "engine/chaos.h"
#include "net/gtitm.h"
#include "workload/generator.h"

namespace iflow::engine {
namespace {

struct Scenario {
  net::Network net;
  workload::Workload wl;

  explicit Scenario(std::uint64_t seed, int queries = 4) {
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

constexpr std::uint64_t kBaseSeed = 20070806;
constexpr int kScenarios = 20;
constexpr int kEventsPerScenario = 32;

TEST(ChaosTest, TwentySeededScenariosHoldEveryInvariant) {
  for (int i = 0; i < kScenarios; ++i) {
    const std::uint64_t seed = kBaseSeed + static_cast<std::uint64_t>(i);
    Scenario s(seed);
    ChaosConfig cfg;
    cfg.events = kEventsPerScenario;
    const ChaosReport report =
        run_churn(s.net, s.wl.catalog, s.wl.queries, 4,
                  Algorithm::kTopDown, seed, cfg);

    ASSERT_EQ(report.steps.size(),
              static_cast<std::size_t>(kEventsPerScenario));
    EXPECT_EQ(report.violations, 0u)
        << "seed " << seed << ": " << report.violation_detail;
    EXPECT_TRUE(report.all_resumed) << "seed " << seed;
    EXPECT_TRUE(report.converged)
        << "seed " << seed << ": final " << report.final_cost << " vs fresh "
        << report.fresh_cost;
    // Active + suspended always accounts for the whole workload: queries
    // are parked, never lost.
    for (const ChaosStep& step : report.steps) {
      EXPECT_EQ(step.active + step.suspended, s.wl.queries.size())
          << "seed " << seed;
      EXPECT_TRUE(std::isfinite(step.total_cost)) << "seed " << seed;
    }
  }
}

TEST(ChaosTest, DigestIsBitwiseDeterministicAcrossThreadCounts) {
  for (std::uint64_t seed : {kBaseSeed, kBaseSeed + 7, kBaseSeed + 13}) {
    Scenario s(seed);
    ChaosConfig serial;
    serial.events = kEventsPerScenario;
    serial.threads = 1;
    ChaosConfig parallel = serial;
    parallel.threads = 4;
    const ChaosReport a = run_churn(s.net, s.wl.catalog, s.wl.queries, 4,
                                    Algorithm::kTopDown, seed, serial);
    const ChaosReport b = run_churn(s.net, s.wl.catalog, s.wl.queries, 4,
                                    Algorithm::kTopDown, seed, parallel);
    EXPECT_EQ(a.digest, b.digest) << "seed " << seed;
    EXPECT_EQ(a.final_cost, b.final_cost) << "seed " << seed;
  }
}

TEST(ChaosTest, ReplaySameSeedIsIdentical) {
  Scenario s(kBaseSeed + 3);
  ChaosConfig cfg;
  cfg.events = kEventsPerScenario;
  const ChaosReport a = run_churn(s.net, s.wl.catalog, s.wl.queries, 4,
                                  Algorithm::kTopDown, kBaseSeed + 3, cfg);
  const ChaosReport b = run_churn(s.net, s.wl.catalog, s.wl.queries, 4,
                                  Algorithm::kTopDown, kBaseSeed + 3, cfg);
  EXPECT_EQ(a.digest, b.digest);
}

/// Loss, jitter and queue-pressure events mixed into the usual crash/flap
/// churn. After the schedule the delivery contract must hold: with per-link
/// loss capped far below the retry budget's tolerance, every surviving
/// query delivers exactly its loss-free baseline counts (at-least-once +
/// dedup = effectively exactly-once) with zero tuples lost after retries.
ChaosConfig loss_config() {
  ChaosConfig cfg;
  cfg.events = kEventsPerScenario;
  cfg.loss_probability = 0.25;
  cfg.jitter_probability = 0.15;
  cfg.queue_probability = 0.1;
  cfg.delivery_check = true;
  return cfg;
}

TEST(ChaosTest, LossChurnPreservesDeliveryCounts) {
  for (int i = 0; i < 3; ++i) {
    const std::uint64_t seed = kBaseSeed + 40 + static_cast<std::uint64_t>(i);
    Scenario s(seed);
    const ChaosReport report = run_churn(s.net, s.wl.catalog, s.wl.queries,
                                         4, Algorithm::kTopDown, seed,
                                         loss_config());
    EXPECT_EQ(report.violations, 0u)
        << "seed " << seed << ": " << report.violation_detail;
    EXPECT_TRUE(report.all_resumed) << "seed " << seed;
    ASSERT_TRUE(report.delivery_checked) << "seed " << seed;
    EXPECT_TRUE(report.delivery_ok) << "seed " << seed;
    EXPECT_GT(report.delivered_total, 0u) << "seed " << seed;

    // The schedule genuinely mixed delivery-layer events with faults.
    bool saw_loss = false;
    bool saw_fault = false;
    for (const ChaosStep& step : report.steps) {
      switch (step.event.kind) {
        case ChaosEventKind::kSetLinkLoss:
        case ChaosEventKind::kSetLinkJitter:
          EXPECT_GE(step.event.rate, 0.0);
          saw_loss = true;
          break;
        case ChaosEventKind::kCrashNode:
        case ChaosEventKind::kFailNode:
        case ChaosEventKind::kFailLink:
          saw_fault = true;
          break;
        default:
          break;
      }
    }
    EXPECT_TRUE(saw_loss) << "seed " << seed;
    EXPECT_TRUE(saw_fault) << "seed " << seed;
  }
}

TEST(ChaosTest, LossChurnDigestIsThreadCountInvariant) {
  const std::uint64_t seed = kBaseSeed + 41;
  Scenario s(seed);
  ChaosConfig serial = loss_config();
  serial.threads = 1;
  ChaosConfig parallel = loss_config();
  parallel.threads = 4;
  const ChaosReport a = run_churn(s.net, s.wl.catalog, s.wl.queries, 4,
                                  Algorithm::kTopDown, seed, serial);
  const ChaosReport b = run_churn(s.net, s.wl.catalog, s.wl.queries, 4,
                                  Algorithm::kTopDown, seed, parallel);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.delivered_total, b.delivered_total);
  EXPECT_EQ(a.retransmits_total, b.retransmits_total);
}

TEST(ChaosTest, InjectorNeverDrawsInvalidEvents) {
  Scenario s(kBaseSeed + 5);
  ChaosConfig cfg;
  cfg.max_down_nodes = 3;
  cfg.max_down_links = 4;
  cfg.gray_probability = 0.3;  // exercise the gray-failure families too
  FaultInjector inj(s.net, s.wl.catalog, cfg, 42);
  std::vector<char> node_down(s.net.node_count(), 0);
  std::vector<char> node_gray(s.net.node_count(), 0);
  std::size_t degraded = 0;
  std::size_t gray_events = 0;
  for (int i = 0; i < 500; ++i) {
    const ChaosEvent e = inj.next();
    switch (e.kind) {
      case ChaosEventKind::kCrashNode:
      case ChaosEventKind::kFailNode:
        ASSERT_FALSE(node_down[e.a]) << "double fault at event " << i;
        node_down[e.a] = 1;
        break;
      case ChaosEventKind::kRestoreNode:
        ASSERT_TRUE(node_down[e.a]) << "restore of a live node at " << i;
        node_down[e.a] = 0;
        break;
      case ChaosEventKind::kFailLink:
      case ChaosEventKind::kRestoreLink:
      case ChaosEventKind::kSetLinkLoss:
      case ChaosEventKind::kSetLinkJitter:
        ASSERT_NE(e.a, e.b);
        break;
      case ChaosEventKind::kRateSpike:
        ASSERT_LT(e.stream, s.wl.catalog.stream_count());
        ASSERT_GT(e.rate, 0.0);
        break;
      case ChaosEventKind::kQueuePressure:
        break;
      case ChaosEventKind::kDegradeNode:
        ASSERT_FALSE(node_gray[e.a]) << "double degradation at event " << i;
        // Every family carries a visible symptom.
        ASSERT_TRUE(e.slowdown >= 1.5 || e.rate > 0.0) << "event " << i;
        node_gray[e.a] = 1;
        ++degraded;
        ++gray_events;
        break;
      case ChaosEventKind::kDegradeLink:
        ASSERT_NE(e.a, e.b);
        ASSERT_TRUE(e.slowdown >= 1.5 || e.rate > 0.0) << "event " << i;
        ++degraded;
        ++gray_events;
        break;
      case ChaosEventKind::kClearNode:
        ASSERT_TRUE(node_gray[e.a]) << "clear of a well node at " << i;
        node_gray[e.a] = 0;
        ASSERT_GT(degraded, 0u);
        --degraded;
        break;
      case ChaosEventKind::kClearLink:
        ASSERT_NE(e.a, e.b);
        ASSERT_GT(degraded, 0u);
        --degraded;
        break;
      case ChaosEventKind::kRegister:
      case ChaosEventKind::kUnregister:
      case ChaosEventKind::kSetQuota:
        FAIL() << "population event at " << i;
    }
    ASSERT_LE(inj.state().down_nodes().size(), 3u);
    ASSERT_LE(inj.state().down_links().size(), 4u);
    ASSERT_LE(inj.state().down_nodes().size() * 2, s.net.node_count());
    ASSERT_LE(degraded, kMaxDegraded);
  }
  EXPECT_GT(gray_events, 0u);  // the gray families actually fired
}

TEST(ChaosTest, ScriptOfTheDrawnEventsReplaysTheDrawnRun) {
  // A drawn run is the replay of its own schedule: passing the injector's
  // draws back as a script reproduces the transcript bit for bit, restoration
  // sweep and delivery twins included.
  const std::uint64_t seed = kBaseSeed + 2;
  Scenario s(seed);
  ChaosConfig cfg = loss_config();
  cfg.gray_probability = 0.2;
  const ChaosReport drawn = run_churn(s.net, s.wl.catalog, s.wl.queries, 4,
                                      Algorithm::kTopDown, seed, cfg);
  std::vector<ChaosEvent> script;
  for (const ChaosStep& step : drawn.steps) script.push_back(step.event);
  const ChaosReport replay = run_churn(s.net, s.wl.catalog, s.wl.queries, 4,
                                       Algorithm::kTopDown, seed, cfg, script);
  EXPECT_EQ(drawn.digest, replay.digest);
  EXPECT_TRUE(drawn.delivery_checked);
}

TEST(ChaosTest, MalformedScriptsThrowInBothRunners) {
  Scenario s(kBaseSeed + 9);
  const net::Link& l = s.net.links().front();
  const auto node = [](ChaosEventKind kind) {
    ChaosEvent e;
    e.kind = kind;
    e.a = 0;
    return e;
  };
  const auto link = [&](ChaosEventKind kind, bool reversed = false) {
    ChaosEvent e;
    e.kind = kind;
    e.a = reversed ? l.b : l.a;
    e.b = reversed ? l.a : l.b;
    if (kind == ChaosEventKind::kDegradeLink) e.rate = 0.1;
    return e;
  };
  ChaosEvent sick = node(ChaosEventKind::kDegradeNode);
  sick.slowdown = 2.0;
  const std::vector<std::vector<ChaosEvent>> malformed = {
      {node(ChaosEventKind::kCrashNode), node(ChaosEventKind::kFailNode)},
      {node(ChaosEventKind::kRestoreNode)},
      {link(ChaosEventKind::kFailLink),
       link(ChaosEventKind::kFailLink, /*reversed=*/true)},
      {link(ChaosEventKind::kRestoreLink)},
      {sick, sick},
      {link(ChaosEventKind::kDegradeLink),
       link(ChaosEventKind::kDegradeLink, /*reversed=*/true)},
      {node(ChaosEventKind::kClearNode)},
      {link(ChaosEventKind::kClearLink)},
  };
  for (std::size_t i = 0; i < malformed.size(); ++i) {
    EXPECT_THROW(run_churn(s.net, s.wl.catalog, s.wl.queries, 4,
                           Algorithm::kTopDown, 5, {}, malformed[i]),
                 CheckError)
        << "script " << i;
    EXPECT_THROW(run_registration_churn(s.net, s.wl.catalog, s.wl.queries, 4,
                                        Algorithm::kTopDown, 5, {},
                                        malformed[i]),
                 CheckError)
        << "script " << i;
  }
  // Population events belong to the registration runner only.
  ChaosEvent reg;
  reg.kind = ChaosEventKind::kRegister;
  EXPECT_THROW(run_churn(s.net, s.wl.catalog, s.wl.queries, 4,
                         Algorithm::kTopDown, 5, {}, {reg}),
               CheckError);
}

TEST(ChaosTest, CrashPartitionSuspendsAndHealsOnRestore) {
  // A dumbbell: two triangles joined by a single bridge. Crashing a bridge
  // endpoint partitions the network; the cross-partition query suspends
  // and resumes when the endpoint returns.
  net::Network net;
  const auto l0 = net.add_node();
  const auto l1 = net.add_node();
  const auto l2 = net.add_node();
  const auto r0 = net.add_node();
  const auto r1 = net.add_node();
  const auto r2 = net.add_node();
  net.add_link(l0, l1, 1.0, 1.0, 1e6);
  net.add_link(l1, l2, 1.0, 1.0, 1e6);
  net.add_link(l0, l2, 1.0, 1.0, 1e6);
  net.add_link(r0, r1, 1.0, 1.0, 1e6);
  net.add_link(r1, r2, 1.0, 1.0, 1e6);
  net.add_link(r0, r2, 1.0, 1.0, 1e6);
  net.add_link(l2, r0, 2.0, 1.0, 1e6);  // the bridge

  query::Catalog catalog;
  const auto a = catalog.add_stream("A", l0, 20.0, 50.0);
  const auto b = catalog.add_stream("B", r1, 20.0, 50.0);
  catalog.set_selectivity(a, b, 0.01);
  query::Query q;
  q.id = 1;
  q.sources = {a, b};
  q.sink = r2;

  Middleware mw(net, catalog, 3, Algorithm::kExhaustive, 9);
  ASSERT_TRUE(mw.deploy(q).feasible);

  // Crashing the left bridge endpoint severs A's side from the sink AND
  // kills no endpoint of the query itself — yet no plan can exist, so the
  // query must suspend rather than deploy across the partition.
  const auto reds = mw.crash_node(l2);
  ASSERT_EQ(reds.size(), 1u);
  EXPECT_EQ(reds.front().outcome, Outcome::kSuspended);
  EXPECT_EQ(mw.active_queries(), 0u);
  EXPECT_EQ(mw.suspended_queries(), 1u);

  const auto back = mw.restore_node(l2);
  bool resumed = false;
  for (const Redeployment& r : back) {
    resumed |= (r.outcome == Outcome::kResumed);
  }
  EXPECT_TRUE(resumed);
  EXPECT_EQ(mw.active_queries(), 1u);
  EXPECT_EQ(mw.suspended_queries(), 0u);
  EXPECT_TRUE(std::isfinite(mw.total_current_cost()));
}

TEST(ChaosTest, LinkFlapMigratesAcrossRedundantPaths) {
  // A square with a diagonal: failing one edge leaves the network
  // connected, so queries migrate (or stand pat) but never suspend.
  net::Network net;
  const auto n0 = net.add_node();
  const auto n1 = net.add_node();
  const auto n2 = net.add_node();
  const auto n3 = net.add_node();
  net.add_link(n0, n1, 1.0, 1.0, 1e6);
  net.add_link(n1, n2, 1.0, 1.0, 1e6);
  net.add_link(n2, n3, 1.0, 1.0, 1e6);
  net.add_link(n3, n0, 1.0, 1.0, 1e6);
  net.add_link(n0, n2, 3.0, 1.0, 1e6);

  query::Catalog catalog;
  const auto a = catalog.add_stream("A", n0, 10.0, 40.0);
  const auto b = catalog.add_stream("B", n1, 10.0, 40.0);
  catalog.set_selectivity(a, b, 0.02);
  query::Query q;
  q.id = 7;
  q.sources = {a, b};
  q.sink = n2;

  Middleware mw(net, catalog, 3, Algorithm::kExhaustive, 11);
  ASSERT_TRUE(mw.deploy(q).feasible);

  const auto reds = mw.fail_link(n1, n2);
  for (const Redeployment& r : reds) {
    EXPECT_NE(r.outcome, Outcome::kSuspended);
  }
  EXPECT_EQ(mw.active_queries(), 1u);
  const double degraded = mw.total_current_cost();
  EXPECT_TRUE(std::isfinite(degraded));

  mw.restore_link(n1, n2);
  EXPECT_EQ(mw.active_queries(), 1u);
  // With the cheap edge back, adapt() can only improve or hold the cost.
  mw.adapt();
  EXPECT_LE(mw.total_current_cost(), degraded + 1e-9 * (1.0 + degraded));
}

TEST(ChaosTest, ResumeAttemptsAreBoundedUntilNextRestore) {
  // Crash a query's source node: the query suspends. adapt() retries at
  // most max_resume_attempts times, then stops burning replans until a
  // restore arrives.
  Scenario s(kBaseSeed + 11, /*queries=*/2);
  Middleware mw(s.net, s.wl.catalog, 4, Algorithm::kTopDown, 5);
  for (const query::Query& q : s.wl.queries) mw.deploy(q);
  mw.set_max_resume_attempts(2);

  const net::NodeId src = s.wl.catalog.stream(0).source;
  mw.crash_node(src);
  if (mw.suspended_queries() == 0) GTEST_SKIP() << "no query uses stream 0";

  for (int i = 0; i < 4; ++i) mw.adapt();
  for (const Middleware::SuspendedQuery& sq : mw.suspended()) {
    EXPECT_LE(sq.attempts, 2);
  }
  // The restore resets the budget and resumes everything.
  mw.restore_node(src);
  EXPECT_EQ(mw.suspended_queries(), 0u);
  EXPECT_EQ(mw.active_queries(), s.wl.queries.size());
}

}  // namespace
}  // namespace iflow::engine
