// Seeded episode harnesses for the failure & churn subsystem (DESIGN.md
// §10, §12, §14–§16).
//
// Every harness replays an event sequence — drawn by a seeded injector or
// given as a fixed script — against a live Middleware. Events share one
// vocabulary (ChaosEvent): node crashes, processing failures, link flaps,
// restores, stream-rate spikes, loss/jitter/queue pressure, gray
// degradations, and the registration plane's register / unregister /
// quota changes. After EVERY event the harness re-validates every active
// deployment with verify::validate (structural + placement checks for
// untouched deployments; full semantic + cost checks for the ones the
// event just re-planned) and records a digest line, so a fixed seed yields
// a bitwise-identical transcript regardless of the planner thread count
// (the planner's determinism contract extended to churn).
//
// `run_churn` drives the convergence contract: deploy a workload, replay
// the events, then restore everything still down and adapt until
// quiescent. The report asserts the invariants the chaos tests (and the
// differential fuzzer's --churn, --loss and --scenario modes) check:
//   * zero validator violations across the whole run;
//   * every suspended query resumed after full restoration;
//   * the churned system's total cost lands within a configurable factor
//     of a fresh Middleware optimizing the same end-state from scratch.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/prng.h"
#include "engine/middleware.h"

namespace iflow::engine {

struct ChaosConfig {
  /// Injector-drawn events to replay (the chaos tests use >= 30 per
  /// scenario). Scripted runs replay the whole script and ignore this.
  int events = 32;
  /// Concurrently down nodes (crashed or processing-failed). The injector
  /// additionally never takes down more than half the network, so the
  /// hierarchy always keeps members.
  int max_down_nodes = 2;
  /// Concurrently administratively-down link pairs.
  int max_down_links = 3;
  /// Probability of drawing a restore when something is down (biases
  /// schedules toward churn rather than monotone destruction).
  double restore_bias = 0.45;
  /// Probability of a rate-spike event (scales a random stream's rate by a
  /// factor in [0.25, 4] and runs adapt()).
  double spike_probability = 0.15;
  /// Probability of a set-link-loss event (a random link pair's loss
  /// probability is re-drawn in [0, max_link_loss]). Loss does not affect
  /// planning costs; it exercises the engine's reliable delivery layer via
  /// the post-churn delivery check.
  double loss_probability = 0.0;
  /// Probability of a set-link-jitter event (delay jitter re-drawn in
  /// [0, max_jitter_ms]).
  double jitter_probability = 0.0;
  /// Probability of a queue-pressure event: the post-churn delivery check
  /// runs with bounded per-operator queues (kBackpressure) and the drawn
  /// per-tuple service time, so retransmission interacts with queueing.
  double queue_probability = 0.0;
  /// Probability of a gray-failure event: a node or link degrades — slow,
  /// lossy or flapping while staying administratively up — or, restore-
  /// biased, an existing degradation heals. Quality-only mutations: routing
  /// and planning costs are untouched (the incremental sync is free); the
  /// reliable delivery layer feels them. The restoration sweep heals every
  /// degradation before the delivery twins and the fresh baseline run.
  double gray_probability = 0.0;
  /// Concurrently degraded elements (nodes plus link pairs).
  int max_degraded = 2;
  /// Upper bounds of drawn degradations: delay multiplier, extra loss
  /// probability, and flap frequency (Hz of the on/off square wave).
  double max_gray_slowdown = 3.0;
  double max_gray_loss = 0.3;
  double max_gray_flap_hz = 0.5;
  /// Upper bound of drawn per-link loss probabilities. Kept well under the
  /// default retry budget's tolerance (12 retries at <= 5% per-hop loss
  /// makes residual loss negligible over a bounded run).
  double max_link_loss = 0.04;
  /// Upper bound of drawn per-link delay jitter (must stay far below the
  /// engine's lateness allowance so event-time results are unaffected).
  double max_jitter_ms = 2.0;
  /// Run the post-churn delivery contract: deploy the surviving actives
  /// into two simulations — one over the churned network
  /// (with its accumulated loss/jitter), one over a loss-free copy — and
  /// require per-query delivered counts to match exactly with zero tuples
  /// lost after retries (at-least-once + dedup = effectively exactly-once).
  bool delivery_check = false;
  /// Horizon of the delivery-check simulations (must exceed the engine's
  /// default drain window).
  double delivery_duration_s = 20.0;
  /// Optional time-varying source rates for the delivery-check simulations
  /// (scenario rate curves): multiplier on a stream's catalog rate at
  /// simulation time t. Must be a pure function — the digest stays bitwise
  /// stable because both the lossy and the loss-free twin see it. Null =
  /// constant catalog rates.
  std::function<double(query::StreamId, double)> rate_modulation;
  /// Planner threads pinned on the middleware workspace (determinism
  /// checks run the same seed at 1 and N and diff the digests).
  int threads = 1;
  /// Post-churn total cost must be <= this factor times a fresh
  /// optimization of the same end state (and vice versa).
  double convergence_factor = 2.0;
  /// Drift threshold handed to the Middleware under test.
  double drift_threshold = 1.2;
};

enum class ChaosEventKind : std::uint8_t {
  kCrashNode,    // node stops forwarding; incident links die with it
  kFailNode,     // processing service dies; node keeps forwarding
  kRestoreNode,  // recovers from either failure class
  kFailLink,     // administrative link-pair failure (possible partition)
  kRestoreLink,
  kRateSpike,      // stream rate scaled; adapt() re-plans drifted queries
  kSetLinkLoss,    // link loss probability re-drawn (delivery layer)
  kSetLinkJitter,  // link delay jitter re-drawn (delivery layer)
  kQueuePressure,  // delivery check runs with bounded queues + service time
  kDegradeNode,    // gray failure: node slow/lossy/flapping, still up
  kDegradeLink,    // gray failure on every parallel (a, b) link
  kClearNode,      // node degradation heals
  kClearLink,      // link degradation heals
  kRegister,       // deploy a pool query through admission control
  kUnregister,     // tear down an in-system query (with dependent repair)
  kSetQuota,       // replace one tenant's quota (affects future admissions)
};

const char* to_string(ChaosEventKind k);

struct ChaosEvent {
  ChaosEventKind kind = ChaosEventKind::kCrashNode;
  net::NodeId a = net::kInvalidNode;   // node, or link end
  net::NodeId b = net::kInvalidNode;   // other link end (links only)
  query::StreamId stream = query::kInvalidStream;  // rate spikes only
  /// Overloaded by kind: new tuple rate (kRateSpike), loss probability
  /// (kSetLinkLoss), jitter in ms (kSetLinkJitter), per-tuple service time
  /// in seconds (kQueuePressure), extra loss probability (kDegrade*).
  double rate = 0.0;
  /// Gray-failure degradation (kDegrade* only): delay multiplier and flap
  /// frequency; `rate` doubles as the degradation's extra loss.
  double slowdown = 1.0;
  double flap_hz = 0.0;
  std::size_t query = 0;     // pool index (kRegister / kUnregister)
  std::uint32_t tenant = 0;  // kSetQuota
  TenantQuota quota;         // kSetQuota
};

/// One replayed event plus the system state it left behind.
struct ChaosStep {
  ChaosEvent event;
  std::vector<Redeployment> redeployments;
  std::size_t active = 0;
  std::size_t suspended = 0;
  double total_cost = 0.0;     // finite: only intact actives are summed
  std::size_t violations = 0;  // validator violations after this event
  std::string violation_detail;  // first violation of this step, if any
};

struct ChaosReport {
  std::vector<ChaosStep> steps;
  std::size_t violations = 0;        // summed over steps + final sweep
  std::string violation_detail;      // first violation description, if any
  bool all_resumed = false;          // every query active after restoration
  bool converged = false;            // cost within convergence_factor
  double final_cost = 0.0;           // churned middleware, post-restore
  double fresh_cost = 0.0;           // fresh middleware on the end state
  /// Modeled planning latency of the initial workload deployment (summed
  /// OptimizeResult::deploy_time_ms over the first deploy sweep).
  double deploy_time_ms = 0.0;
  /// Post-churn delivery contract (only when cfg.delivery_check).
  bool delivery_checked = false;   // both sims deployed + ran to completion
  bool delivery_ok = false;        // per-query lossy == loss-free, 0 lost
  std::uint64_t delivered_total = 0;    // lossy run, summed over queries
  std::uint64_t retransmits_total = 0;  // retransmissions the loss forced
  std::uint64_t duplicates_total = 0;   // duplicates the dedup suppressed
  /// Mean per-query availability of the lossy run (delivered rate over the
  /// analytic no-fault rate at the *base* catalog rates; rate-modulated
  /// scenarios legitimately land away from 1.0).
  double mean_availability = 0.0;
  /// Aggregate delivered results per second of the lossy run.
  double goodput_tps = 0.0;
  /// One line per step (event + hexfloat cost + counts); bitwise-identical
  /// across planner thread counts for a fixed seed.
  std::string digest;
};

using LinkPair = std::pair<net::NodeId, net::NodeId>;

/// Distinct (min, max) endpoint pairs of `net`'s links, in first-seen link
/// order. Network::fail_link downs every parallel (a, b) link at once, so
/// the harnesses model link state per pair.
std::vector<LinkPair> distinct_link_pairs(const net::Network& net);

/// Applicability tracker: what an event sequence has left down or degraded.
/// Replayed scripts and the injectors' own bookkeeping both go through
/// apply(), and the restoration sweep brings back whatever it still holds.
class FaultState {
 public:
  /// Records `e`. Throws CheckError when `e` is not applicable: a fault of
  /// a down node or link pair, a restore of an up one, a degradation of a
  /// degraded element, a clear of a healthy one. Rate, loss, jitter, queue
  /// and population events change nothing here.
  void apply(const ChaosEvent& e);

  /// In fault order (restores remove in place).
  const std::vector<net::NodeId>& down_nodes() const { return down_nodes_; }
  const std::vector<LinkPair>& down_links() const { return down_links_; }
  const std::vector<net::NodeId>& degraded_nodes() const {
    return degraded_nodes_;
  }
  const std::vector<LinkPair>& degraded_links() const {
    return degraded_links_;
  }

 private:
  std::vector<net::NodeId> down_nodes_;
  std::vector<LinkPair> down_links_;
  std::vector<net::NodeId> degraded_nodes_;
  std::vector<LinkPair> degraded_links_;
};

/// What both seeded injectors (FaultInjector and the registration-churn
/// injector) draw from: a Prng, the distinct link pairs, the catalog's base
/// stream rates, and the FaultState their own draws go through. Each
/// injector keeps its own draw order on top of these.
struct InjectorCore {
  InjectorCore(const net::Network& net, const query::Catalog& catalog,
               std::uint64_t seed);

  /// A uniformly drawn stream's base rate scaled by a factor in [0.25, 4].
  ChaosEvent spike();

  /// The budgeted fault-or-restore draw. With something down, restores a
  /// uniformly drawn down node or link pair with probability
  /// `restore_bias`, or always when no fault budget is left. Otherwise
  /// faults an up node (never more than half the network; `crash_coin`
  /// flips crash vs processing failure, else it is a processing failure)
  /// or an up link pair within the caps. Empty when nothing is down and
  /// both budgets are spent.
  std::optional<ChaosEvent> fault_or_restore(int max_down_nodes,
                                             int max_down_links,
                                             double restore_bias,
                                             bool crash_coin);

  Prng prng;
  std::vector<net::NodeId> nodes;  // 0 .. node_count - 1
  std::vector<LinkPair> link_pairs;
  std::vector<double> base_rates;  // indexed by stream id
  FaultState state;
};

/// Draws valid events against the injector's model of what is currently
/// down: it never double-fails a target, only restores things that are
/// down, respects the concurrency caps and never empties the hierarchy.
/// Deterministic for a fixed (network shape, config, seed).
class FaultInjector {
 public:
  FaultInjector(const net::Network& net, const query::Catalog& catalog,
                const ChaosConfig& cfg, std::uint64_t seed);

  /// Next event of the schedule. Always returns an applicable event.
  ChaosEvent next();

  /// What the drawn schedule has left down or degraded.
  const FaultState& state() const { return core_.state; }

 private:
  ChaosEvent draw();

  ChaosConfig cfg_;
  InjectorCore core_;
};

/// Replays `script` — or, when it is empty, `cfg.events` FaultInjector
/// draws — against a Middleware built over copies of `net`/`catalog`,
/// validating after every event, then restores everything and checks
/// convergence and the optional delivery contract (see ChaosReport). The
/// copies keep the caller's instances pristine for replay comparisons.
/// Scenario failure scripts (correlated outages, flapping regions, loss
/// storms) must be applicable in order (see FaultState::apply; violations
/// throw) and may not carry population events.
ChaosReport run_churn(net::Network net, query::Catalog catalog,
                      const std::vector<query::Query>& queries, int max_cs,
                      Algorithm algorithm, std::uint64_t seed,
                      const ChaosConfig& cfg = {},
                      const std::vector<ChaosEvent>& script = {});

// ---------------------------------------------------------------------------
// Pieces the episode harnesses share (run_churn, run_registration_churn,
// run_gray, run_recovery).
// ---------------------------------------------------------------------------

/// Validates every active deployment with verify::validate. Every active
/// gets the structural and placement checks, and no active may keep an
/// operator or derived unit on an excluded host; the ids in `replanned`
/// also get the semantic and planned-cost pass (untouched actives may
/// legitimately carry unit rates that predate a rate spike). Returns the
/// violation count and, when `first_detail` is empty, fills it with the
/// first violation's description.
std::size_t validate_actives(
    Middleware& mw, const std::unordered_set<query::QueryId>& replanned,
    std::string* first_detail);

/// Queries `reds` migrated or resumed: the ones validate_actives gives the
/// full cost pass.
std::unordered_set<query::QueryId> replanned_ids(
    const std::vector<Redeployment>& reds);

/// Operator hosts of `mw`'s actives that are no source or sink of any of
/// `queries`, ascending. Faulting one of these exercises re-placement and
/// stateful rollback without touching an endpoint: a degraded endpoint is
/// unhealable by re-placement, and a dead source skips emissions, so its
/// faulted run would differ from a fault-free twin in what was emitted,
/// not in what was preserved. Throws (IFLOW_CHECK) when there is none.
std::vector<net::NodeId> relay_hosts(const Middleware& mw,
                                     const std::vector<query::Query>& queries);

// ---------------------------------------------------------------------------
// Registration churn: the multi-tenant churn plane (DESIGN.md §14).
//
// Where run_churn holds the query population fixed and churns the NETWORK,
// run_registration_churn holds the network mostly steady and churns the
// QUERY POPULATION: queries from a fixed pool register (through admission
// control) and unregister continuously, interleaved with a low rate of
// faults, restores, rate spikes and quota changes. After every event the
// harness validates all actives, checks that no admitted deployment left a
// node or link over its capacity budget, and appends a digest line; on a
// cadence it runs the dirty-region settle pass. The report asserts the
// churn-plane invariants the churn tests (and the differential fuzzer's
// --register-churn mode) check:
//   * zero validator violations and zero capacity violations;
//   * settle parity: a terminal reoptimize() improves the settled total
//     cost by at most `parity_slack`;
//   * bounded retries: exponential backoff keeps total resume failures
//     under (restores + 1) * max_resume_attempts * pool size.
// ---------------------------------------------------------------------------

struct RegistrationChurnConfig {
  /// Injector-drawn events to replay (scripted runs replay the whole
  /// script and ignore this).
  int events = 48;
  /// P(unregister) when both a register and an unregister are possible.
  double unregister_bias = 0.35;
  /// Probability of a fault/restore event instead of population churn.
  double fault_probability = 0.08;
  /// P(restore | something is down) within the fault branch.
  double restore_bias = 0.5;
  /// Probability of a rate-spike event (rate re-drawn in [0.25, 4] x base).
  double spike_probability = 0.08;
  /// Probability of a quota-change event (random pool tenant's weight and
  /// query cap re-drawn). Default off: quota churn is opt-in.
  double quota_probability = 0.0;
  int max_down_nodes = 1;
  int max_down_links = 1;
  /// Run the dirty-region settle pass every N events (0 = only at the end).
  int settle_every = 6;
  /// Admission budgets handed to the middleware (<= 0 = unlimited; see
  /// AdmissionConfig). Link capacity stays opt-in.
  double node_capacity = 0.0;
  double link_utilization_cap = 0.0;
  /// Initial per-tenant quotas.
  std::vector<std::pair<std::uint32_t, TenantQuota>> quotas;
  /// Planner threads (determinism checks diff digests across counts).
  int threads = 1;
  double drift_threshold = 1.2;
  /// Settle parity: the terminal reoptimize() may improve the settled
  /// total cost by at most this fraction.
  double parity_slack = 0.05;
};

struct RegistrationChurnReport {
  std::size_t registrations = 0;  // register events that entered the system
  std::size_t admitted = 0;       // of those, priced kAdmit (or unpriced)
  std::size_t degraded = 0;       // admitted only after a host-excluded replan
  std::size_t parked = 0;         // entered the suspended queue (endpoints down)
  std::size_t rejections = 0;     // Outcome::kRejected (priced reason, no park)
  std::size_t unregistrations = 0;
  std::size_t reuse_deployments = 0;  // admitted plans consuming >=1 derived unit
  std::string first_rejection;        // sample priced rejection reason
  /// Dirty-region settle accounting, summed over all settle passes.
  std::size_t settles = 0;
  std::size_t settle_replans = 0;
  std::size_t settle_moves = 0;
  /// Actives at each settle pass, summed: settle_replans / settle_actives
  /// is the replanned fraction the churn-plane criterion bounds (< 25%).
  std::size_t settle_actives = 0;
  std::size_t violations = 0;  // validator violations across the whole run
  std::string violation_detail;
  /// Admitted registrations that left a node over node_capacity or a link
  /// over its bandwidth headroom (must be zero: admission is a guarantee).
  std::size_t capacity_violations = 0;
  /// Modeled planning latency summed over admitted registrations.
  double deploy_time_ms = 0.0;
  double final_cost = 0.0;  // after drain + final settle
  double reopt_cost = 0.0;  // after the terminal reoptimize()
  bool parity_ok = false;   // reopt_cost >= final_cost * (1 - parity_slack)
  std::uint64_t resume_failures = 0;
  bool backoff_bounded = false;
  /// All invariants hold: no violations, no capacity breaches, parity,
  /// bounded backoff.
  bool ok = false;
  /// One line per event (+ settle lines); bitwise-identical across planner
  /// thread counts for a fixed seed.
  std::string digest;
};

/// Replays `script` — or, when it is empty, `cfg.events` live injector
/// draws — of registration-churn events over a query pool against a
/// Middleware built over copies of `net`/`catalog`. Pool queries must have
/// distinct ids; an unregistered query may register again later (including
/// after a rejection). Register/unregister events that an earlier admission
/// rejection made moot are skipped (scripts cannot predict admission
/// outcomes, which is also why the injector draws live); fault events must
/// be applicable in order, as in run_churn.
RegistrationChurnReport run_registration_churn(
    net::Network net, query::Catalog catalog,
    const std::vector<query::Query>& pool, int max_cs, Algorithm algorithm,
    std::uint64_t seed, const RegistrationChurnConfig& cfg = {},
    const std::vector<ChaosEvent>& script = {});

// ---------------------------------------------------------------------------
// Checkpoint/recovery contract (stateful checkpoint plane, DESIGN.md §16).
// ---------------------------------------------------------------------------

/// One seeded recovery episode (see run_recovery).
struct RecoveryConfig {
  /// Control-plane churn events (crash/restore/quarantine/release pairs)
  /// replayed through the middleware before the data-plane phase, so the
  /// faulted simulation also exercises state-preserving migration: every
  /// operator move the planner performed becomes a kMigrateOps fault.
  int events = 6;
  /// Emission window of the data-plane simulations; drain_s of settle time
  /// (sources quiet, retry chains complete) is added on top.
  double duration_s = 60.0;
  double drain_s = 20.0;
  /// Barrier period of the checkpoint plane in the faulted run.
  double checkpoint_interval_s = 5.0;
  /// Snapshot-store replicas (byte accounting).
  int replicas = 2;
  /// Mid-stream crash window [crash_at_s, crash_at_s + crash_len_s) on a
  /// deterministically chosen operator-hosting non-source node. The window
  /// must stay well under the retry chain (~15 s at the defaults below) so
  /// in-flight tuples survive on the retry budget.
  double crash_at_s = 18.0;
  double crash_len_s = 5.0;
  /// When the recorded planner migrations are injected into the faulted run.
  double migrate_at_s = 32.0;
  /// Planner threads (digests must be bitwise-stable across counts).
  int threads = 1;
  /// Reliability knobs of the data-plane simulations.
  double ack_timeout_s = 0.05;
  double max_backoff_s = 2.0;
};

struct RecoveryReport {
  /// Headline contract: the faulted run (mid-stream crash + recovery +
  /// planner-recorded migrations, checkpoints on) delivered per-query
  /// result counts identical to the fault-free twin under the same engine
  /// seed, with zero tuples lost after retries.
  bool counts_match = false;
  /// Teeth: the same faults with snapshots OFF and volatile operator state
  /// lose results (fewer delivered than the twin) — proving the snapshot
  /// plane, not slack in the workload, is what preserves the counts.
  bool loss_without_snapshots = false;
  /// counts_match && faulted_lost == 0 && loss_without_snapshots &&
  /// violations == 0 && epochs_committed >= 1.
  bool contract_ok = false;
  std::size_t events = 0;      // control-plane events replayed
  std::size_t migrations = 0;  // recorded state migrations (warm handoffs)
  std::size_t violations = 0;  // validator violations across the run
  std::string violation_detail;
  std::uint64_t twin_delivered = 0;
  std::uint64_t faulted_delivered = 0;
  std::uint64_t volatile_delivered = 0;  // snapshots off, volatile state
  std::uint64_t faulted_lost = 0;
  /// Checkpoint-plane overhead accounting (faulted run).
  std::int64_t epochs_committed = 0;
  double snapshot_bytes_total = 0.0;
  double snapshot_bytes_max = 0.0;
  double barrier_latency_mean_s = 0.0;
  double barrier_latency_max_s = 0.0;
  std::size_t retained_high_water = 0;
  std::size_t seen_high_water = 0;
  double recovery_latency_s = 0.0;  // max rollback depth across recoveries
  /// Control-plane event lines + per-query delivery lines (hexfloat);
  /// bitwise-identical across planner thread counts for a fixed seed.
  std::string digest;
};

/// Runs the checkpoint/recovery contract over copies of `net`/`catalog`:
/// deploys the workload, replays a control-plane churn phase (crash /
/// restore / quarantine / release, recording the planner's warm state
/// migrations), then drives three simulations of the settled
/// deployment under one engine seed — a fault-free twin, a faulted run with
/// coordinated snapshots (mid-stream crash + rollback recovery + the
/// recorded migrations as kMigrateOps), and a faulted run with snapshots
/// off and volatile operator state (the teeth). Throws (IFLOW_CHECK) when
/// the deployed workload hosts no operator on a crashable non-source node.
RecoveryReport run_recovery(net::Network net, query::Catalog catalog,
                            const std::vector<query::Query>& queries,
                            int max_cs, Algorithm algorithm,
                            std::uint64_t seed, const RecoveryConfig& cfg = {});

}  // namespace iflow::engine
