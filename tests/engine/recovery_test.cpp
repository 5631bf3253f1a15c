// Checkpoint/recovery plane (DESIGN.md §16): coordinated snapshots,
// rollback recovery with upstream replay, state-preserving migration, and
// the run_recovery result-transparency contract.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/chaos.h"
#include "engine/simulation.h"
#include "net/routing.h"
#include "opt/exhaustive.h"
#include "workload/generator.h"

namespace iflow::engine {
namespace {

/// Line 0(A) — 1 — 2(B), sink 3 hanging off the relay: the exhaustive
/// optimizer hosts the windowed join somewhere on the line, and node 1 / 3
/// are migration sources/targets for the Simulation-level tests.
struct JoinRig {
  net::Network net;
  net::RoutingTables rt;
  query::Catalog catalog;
  query::Query q;
  query::Deployment d;
  net::NodeId op_node = net::kInvalidNode;

  JoinRig() {
    for (int i = 0; i < 4; ++i) net.add_node();
    net.add_link(0, 1, 1.0, 1.0, 1e6);
    net.add_link(1, 2, 1.0, 1.0, 1e6);
    net.add_link(1, 3, 1.0, 1.0, 1e6);
    rt = net::RoutingTables::build(net);
    const query::StreamId a = catalog.add_stream("A", 0, 40.0, 80.0);
    const query::StreamId b = catalog.add_stream("B", 2, 40.0, 80.0);
    catalog.set_selectivity(a, b, 0.02);
    q.id = 60;
    q.sources = {a, b};
    q.sink = 3;
    opt::OptimizerEnv env;
    env.catalog = &catalog;
    env.network = &net;
    env.routing = &rt;
    env.reuse = false;
    opt::ExhaustiveOptimizer ex(env);
    const opt::OptimizeResult res = ex.optimize(q);
    EXPECT_TRUE(res.feasible);
    d = res.deployment;
    op_node = d.ops.at(0).node;
  }
};

EngineConfig checkpointed_config(double duration = 30.0) {
  EngineConfig cfg;
  cfg.duration_s = duration;
  cfg.poisson = false;
  cfg.reliability.enabled = true;
  // Rollback replay re-delivers tuples up to a checkpoint interval plus a
  // crash window late; the count-equality contract needs the event-time
  // slack to cover that depth, so joins still meet replayed partners.
  cfg.reliability.lateness_s = duration;
  cfg.checkpoint.enabled = true;
  cfg.checkpoint.volatile_state = true;
  cfg.checkpoint.interval_s = 5.0;
  return cfg;
}

TEST(CheckpointConfigTest, CheckpointingRequiresTheReliableDataPlane) {
  JoinRig r;
  EngineConfig cfg;
  cfg.checkpoint.enabled = true;  // reliability left off
  EXPECT_THROW(Simulation(r.net, r.rt, r.catalog, cfg, 7), CheckError);
}

TEST(CheckpointTest, CleanRunCommitsEpochsAndAccountsBytes) {
  JoinRig r;
  query::RateModel rates(r.catalog, r.q);
  Simulation sim(r.net, r.rt, r.catalog, checkpointed_config(), 7);
  sim.deploy(r.d, rates);
  sim.run();

  const SnapshotStats ss = sim.snapshot_stats();
  // 30 s at a 5 s interval: barriers at 5..25 all commit (one in flight at
  // a time, each commits in well under an interval on this tiny world).
  EXPECT_GE(ss.epochs_committed, 4);
  EXPECT_EQ(ss.epochs_aborted, 0);
  EXPECT_EQ(ss.recoveries, 0);
  EXPECT_GT(ss.bytes_total, 0.0);
  EXPECT_GE(ss.bytes_max, ss.bytes_last);
  EXPECT_GE(ss.barrier_latency_max_s, 0.0);
  EXPECT_GT(ss.retained_high_water, 0u);
  const DeliveryStats ds = sim.delivery_stats(r.q.id);
  EXPECT_GT(ds.snapshot_bytes, 0.0);
}

TEST(CheckpointTest, CheckpointingDoesNotChangeDeliveredCounts) {
  // Barriers, alignment buffering and retention are pure overhead: the
  // same seed with the checkpoint plane off delivers identical counts.
  JoinRig r;
  query::RateModel rates(r.catalog, r.q);
  EngineConfig plain = checkpointed_config();
  plain.checkpoint.enabled = false;
  plain.checkpoint.volatile_state = false;
  Simulation off(r.net, r.rt, r.catalog, plain, 7);
  off.deploy(r.d, rates);
  off.run();
  Simulation on(r.net, r.rt, r.catalog, checkpointed_config(), 7);
  on.deploy(r.d, rates);
  on.run();
  ASSERT_GT(off.tuples_delivered(r.q.id), 0u);
  EXPECT_EQ(on.tuples_delivered(r.q.id), off.tuples_delivered(r.q.id));
}

TEST(CheckpointTest, CrashRecoveryRestoresCommittedStateAndReplays) {
  // A mid-stream crash of the join host with volatile state: rollback to
  // the committed epoch plus upstream replay must deliver the fault-free
  // twin's counts exactly.
  JoinRig r;
  query::RateModel rates(r.catalog, r.q);
  Simulation twin(r.net, r.rt, r.catalog, checkpointed_config(40.0), 7);
  twin.deploy(r.d, rates);
  twin.run();

  Simulation sim(r.net, r.rt, r.catalog, checkpointed_config(40.0), 7);
  sim.deploy(r.d, rates);
  sim.schedule_fault({18.0, SimFault::Kind::kCrashNode, r.op_node,
                      net::kInvalidNode});
  sim.schedule_fault({21.0, SimFault::Kind::kRestoreNode, r.op_node,
                      net::kInvalidNode});
  sim.run();

  ASSERT_GT(twin.tuples_delivered(r.q.id), 0u);
  EXPECT_EQ(sim.tuples_delivered(r.q.id), twin.tuples_delivered(r.q.id));
  EXPECT_EQ(sim.delivery_stats(r.q.id).lost, 0u);
  const SnapshotStats ss = sim.snapshot_stats();
  EXPECT_EQ(ss.recoveries, 1);
  EXPECT_GT(ss.replayed_tuples, 0u);
  EXPECT_GT(ss.recovery_latency_max_s, 0.0);
}

TEST(CheckpointTest, VolatileCrashWithoutSnapshotsLosesResults) {
  // Teeth: the same crash with the checkpoint plane OFF wipes the join
  // windows with nothing to roll back to — results must go missing.
  JoinRig r;
  query::RateModel rates(r.catalog, r.q);
  EngineConfig vol = checkpointed_config(40.0);
  vol.checkpoint.enabled = false;  // volatile_state stays on
  Simulation twin(r.net, r.rt, r.catalog, vol, 7);
  twin.deploy(r.d, rates);
  twin.run();

  Simulation sim(r.net, r.rt, r.catalog, vol, 7);
  sim.deploy(r.d, rates);
  sim.schedule_fault({18.0, SimFault::Kind::kCrashNode, r.op_node,
                      net::kInvalidNode});
  sim.schedule_fault({21.0, SimFault::Kind::kRestoreNode, r.op_node,
                      net::kInvalidNode});
  sim.run();

  ASSERT_GT(twin.tuples_delivered(r.q.id), 0u);
  EXPECT_LT(sim.tuples_delivered(r.q.id), twin.tuples_delivered(r.q.id));
}

TEST(CheckpointTest, WarmMigrationMidWindowIsResultTransparent) {
  // The planner hands the join to another host mid-window; with the
  // checkpoint plane on the state moves with it, so the sink cannot tell.
  JoinRig r;
  query::RateModel rates(r.catalog, r.q);
  Simulation twin(r.net, r.rt, r.catalog, checkpointed_config(), 7);
  twin.deploy(r.d, rates);
  twin.run();

  const net::NodeId dest = r.op_node == 1 ? 3 : 1;
  Simulation sim(r.net, r.rt, r.catalog, checkpointed_config(), 7);
  sim.deploy(r.d, rates);
  sim.schedule_fault({15.0, SimFault::Kind::kMigrateOps, r.op_node, dest});
  sim.run();

  ASSERT_GT(twin.tuples_delivered(r.q.id), 0u);
  EXPECT_EQ(sim.tuples_delivered(r.q.id), twin.tuples_delivered(r.q.id));
  EXPECT_EQ(sim.delivery_stats(r.q.id).lost, 0u);
}

TEST(CheckpointTest, ColdMigrationMidWindowVisiblyDiffers) {
  // The same move without the checkpoint plane restarts the join empty:
  // mid-window partners are lost and the counts must differ (this is what
  // gives the warm-equivalence test its teeth).
  JoinRig r;
  query::RateModel rates(r.catalog, r.q);
  EngineConfig cold = checkpointed_config();
  cold.checkpoint.enabled = false;
  Simulation twin(r.net, r.rt, r.catalog, cold, 7);
  twin.deploy(r.d, rates);
  twin.run();

  const net::NodeId dest = r.op_node == 1 ? 3 : 1;
  Simulation sim(r.net, r.rt, r.catalog, cold, 7);
  sim.deploy(r.d, rates);
  sim.schedule_fault({15.0, SimFault::Kind::kMigrateOps, r.op_node, dest});
  sim.run();

  ASSERT_GT(twin.tuples_delivered(r.q.id), 0u);
  EXPECT_LT(sim.tuples_delivered(r.q.id), twin.tuples_delivered(r.q.id));
}

TEST(SeenSetTest, LossSoakBoundsTheOutOfOrderSetByTheWindow) {
  // Receiver dedup compaction (the seen set collapses into the floor on
  // every advance): under sustained loss the out-of-order set grows past
  // zero but never past the sliding window.
  JoinRig r;
  r.net.set_link_loss(0, 1, 0.10);
  r.net.set_link_loss(1, 2, 0.10);
  r.net.set_link_loss(1, 3, 0.10);
  query::RateModel rates(r.catalog, r.q);
  EngineConfig cfg;
  cfg.duration_s = 30.0;
  cfg.poisson = false;
  cfg.reliability.enabled = true;
  Simulation sim(r.net, r.rt, r.catalog, cfg, 7);
  sim.deploy(r.d, rates);
  sim.run();

  const DeliveryStats ds = sim.delivery_stats(r.q.id);
  EXPECT_EQ(ds.lost, 0u);
  EXPECT_GT(ds.retransmits, 0u);
  EXPECT_GT(ds.seen_high_water, 0u);
  EXPECT_LE(ds.seen_high_water, cfg.reliability.window);
}

TEST(RunRecoveryTest, ContractHoldsAtDefaultIntensity) {
  const workload::RelayStar w = workload::make_relay_star(30.0, 0.05);
  const RecoveryReport rep = run_recovery(w.net, w.catalog, {w.query}, 8,
                                          Algorithm::kTopDown, 20070806);
  EXPECT_EQ(rep.violations, 0u) << rep.violation_detail;
  EXPECT_TRUE(rep.counts_match)
      << "twin " << rep.twin_delivered << " faulted "
      << rep.faulted_delivered;
  EXPECT_EQ(rep.faulted_lost, 0u);
  EXPECT_TRUE(rep.loss_without_snapshots)
      << "volatile " << rep.volatile_delivered << " twin "
      << rep.twin_delivered;
  EXPECT_GE(rep.epochs_committed, 1);
  EXPECT_GT(rep.snapshot_bytes_total, 0.0);
  EXPECT_GT(rep.events, 0u);
  EXPECT_TRUE(rep.contract_ok);
}

TEST(RunRecoveryTest, DigestsAreStableAcrossPlannerThreadCounts) {
  const workload::RelayStar w = workload::make_relay_star(30.0, 0.05);
  RecoveryConfig one;
  one.threads = 1;
  RecoveryConfig four;
  four.threads = 4;
  const RecoveryReport a = run_recovery(w.net, w.catalog, {w.query}, 8,
                                        Algorithm::kTopDown, 20070806, one);
  const RecoveryReport b = run_recovery(w.net, w.catalog, {w.query}, 8,
                                        Algorithm::kTopDown, 20070806, four);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.twin_delivered, b.twin_delivered);
  EXPECT_EQ(a.faulted_delivered, b.faulted_delivered);
  EXPECT_EQ(a.snapshot_bytes_total, b.snapshot_bytes_total);
}

TEST(RunRecoveryTest, ChurnPhaseRecordsWarmStateMigrations) {
  const workload::RelayStar w = workload::make_relay_star(30.0, 0.05);
  RecoveryConfig cfg;
  cfg.events = 8;
  const RecoveryReport rep = run_recovery(w.net, w.catalog, {w.query}, 8,
                                          Algorithm::kBottomUp, 11, cfg);
  EXPECT_EQ(rep.events, 8u);
  // Crashing / quarantining the join's host forces at least one adoption.
  EXPECT_GE(rep.migrations, 1u);
  EXPECT_EQ(rep.violations, 0u) << rep.violation_detail;
  EXPECT_TRUE(rep.contract_ok);
}

}  // namespace
}  // namespace iflow::engine
