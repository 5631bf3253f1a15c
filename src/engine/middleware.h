// Self-management layer (paper §2: "Self-adaptivity is incorporated into
// the system through the Middleware Layer which re-triggers the query
// optimization algorithm when the changes in network, load or data
// conditions demand recomputing of query plans and deployments").
//
// The Middleware owns the mutable system state — network, routing tables,
// clustering hierarchy, advertisement registry and the active deployments —
// and exposes:
//   * deploy(query)         — optimize + record + advertise;
//   * set_link_cost(a,b,c)  — a monitored network condition change, which
//     rebuilds routing and the hierarchy;
//   * adapt()               — re-optimizes every query whose current cost
//     drifted past the threshold relative to its planned cost.
//
// Failure model (DESIGN.md §10). Two degradation classes:
//   * fail_node   — the processing service dies but the node keeps
//     forwarding: it leaves the hierarchy and the placement candidate set;
//   * crash_node  — the node vanishes entirely: its links stop carrying
//     traffic and the network may partition.
// Link faults (fail_link/restore_link) can partition the network without
// any node dying. After every fault the middleware reconciles: deployments
// that merely reference a broken host or unroutable edge are re-planned
// (kMigrated); queries whose source or sink is down — or that currently
// admit no feasible plan — are *suspended*, not thrown. Suspended queries
// sit in a retry queue with bounded redeploy attempts; every restore_*
// re-admits the host to the hierarchy + registry, resets the attempt
// budget, and resumes whatever has become plannable (kResumed).
//
// Churn plane (DESIGN.md §14). Queries also LEAVE: undeploy() tears one
// down (ledger retraction, warm-registry eviction, stranded reuse-consumer
// repair via the transitive-dependents machinery). Arrivals pass through
// admission control (engine/admission.h): plans are priced against per-node
// and per-link headroom and per-tenant quotas, and are admitted, admitted
// degraded (replanned around saturated hosts), or rejected with
// Outcome::kRejected and a priced reason — never silently overloaded.
// Registration churn marks dirty queries; settle() replans only those,
// where reoptimize() re-clusters and replans the world.
#pragma once

#include <memory>
#include <utility>

#include "engine/admission.h"
#include "engine/simulation.h"
#include "opt/bottom_up.h"
#include "opt/exhaustive.h"
#include "opt/search/workspace.h"
#include "opt/top_down.h"

namespace iflow::engine {

/// Which optimizer the middleware re-plans with. All six library
/// optimizers are available so conformance suites can drive every one of
/// them through the same fault/adaptation machinery; the heuristic
/// baselines (plan-then-deploy, relaxation, in-network) read the same
/// OptimizerEnv, so host exclusions and reuse flow to them unchanged.
enum class Algorithm {
  kTopDown,
  kBottomUp,
  kExhaustive,
  kPlanThenDeploy,
  kRelaxation,
  kInNetwork,
};

const char* to_string(Algorithm a);

/// What happened to one query during a fault/adapt cycle.
enum class Outcome : std::uint8_t {
  kMigrated,   // re-planned onto a new placement
  kAccepted,   // drifted, but re-planning could not beat the current cost
  kSuspended,  // endpoints down or no feasible plan; parked in retry queue
  kResumed,    // previously suspended, successfully re-deployed
  kRejected,   // admission control refused the query (priced reason)
};

const char* to_string(Outcome o);

struct Redeployment {
  query::QueryId query = 0;
  double planned_cost = 0.0;   // cost at original deployment time
  double drifted_cost = 0.0;   // cost under the changed network (+inf = down)
  double adapted_cost = 0.0;   // cost after re-optimization (+inf = suspended)
  Outcome outcome = Outcome::kMigrated;
};

/// One placement change of an active query, recorded at every adoption site
/// (reconcile/quarantine/rebalance/reoptimize/settle/adapt) so a running
/// engine can be told to hand operator state to the new placement instead
/// of restarting it cold (Simulation's kMigrateOps fault). `warm` is false
/// only for resume-from-suspension, where the state is legitimately gone.
struct StateMigration {
  query::QueryId query = 0;
  bool warm = true;
  struct OpMove {
    int op = 0;  // operator index in the deployment's arena order
    net::NodeId from = net::kInvalidNode;
    net::NodeId to = net::kInvalidNode;
  };
  /// Ops whose join mask survived the replan at a different node. A replan
  /// that restructured the join tree contributes no per-op moves (the new
  /// shape has no state-compatible predecessor) but is still recorded.
  std::vector<OpMove> moves;
};

class Middleware {
 public:
  /// Takes ownership of nothing: `net` and `catalog` must outlive the
  /// middleware; both are mutated by the condition-change entry points.
  Middleware(net::Network& net, query::Catalog& catalog, int max_cs,
             Algorithm algorithm, std::uint64_t seed,
             double drift_threshold = 1.2);

  /// Optimizes and records a query; reuse is on (advertisements flow).
  /// When the query's source/sink is currently down — or no feasible plan
  /// exists — the query is parked in the suspended queue instead and the
  /// result reports feasible = false. With admission constraints configured
  /// (set_admission_config / set_tenant_quota) the plan is priced first:
  /// over-capacity plans get one degraded replanning attempt around the
  /// saturated hosts, and queries that still do not fit are REJECTED —
  /// feasible = false, not parked, last_admission() carries the priced
  /// reason (Outcome::kRejected in churn-harness records).
  opt::OptimizeResult deploy(const query::Query& q);

  /// Tears down a query by id, wherever it lives: an active deployment
  /// (ledger retraction + warm-registry eviction + repair of any reuse
  /// consumer the removed provider strands — migrated or suspended, never
  /// left ungrounded) or a parked suspended entry. Returns false — a clean
  /// error, no state change — when no such query exists (double undeploy).
  /// Repairs performed on stranded consumers are appended to `repairs`
  /// when non-null.
  bool undeploy(query::QueryId id,
                std::vector<Redeployment>* repairs = nullptr);

  /// Applies a network condition change and refreshes routing + hierarchy.
  void set_link_cost(net::NodeId a, net::NodeId b, double cost_per_byte);

  /// Monitored link-quality changes: loss probability and delay jitter.
  /// Neither affects routing or planning costs — they feed the engine's
  /// reliable delivery layer — but both are system state the middleware
  /// owns, so they flow through here like every other condition change.
  void set_link_loss(net::NodeId a, net::NodeId b, double loss);
  void set_link_jitter(net::NodeId a, net::NodeId b, double jitter_ms);

  /// Gray-failure condition changes: a link or node becomes slow, lossy or
  /// flapping while staying administratively up. Quality-only (routing and
  /// planning costs unchanged — the incremental sync is free); the engine's
  /// reliable delivery layer and the health plane's probes read the state.
  /// Pass a default-constructed Degradation to clear.
  void degrade_link(net::NodeId a, net::NodeId b, const net::Degradation& d);
  void degrade_node(net::NodeId n, const net::Degradation& d);

  /// Applies a data condition change: a stream's observed rate moved.
  /// Deployed operators keep carrying the new volume; adapt() re-plans the
  /// queries whose cost drifted.
  void set_stream_rate(query::StreamId stream, double tuple_rate);

  /// A node can no longer host operators (overload, maintenance, crash of
  /// the processing service — links keep forwarding). The node leaves the
  /// hierarchy, is excluded from future placements, and every deployment
  /// with an operator or reused provider on it is re-planned immediately.
  /// Queries sourcing or sinking on the node are suspended (Outcome
  /// kSuspended), not thrown. Returns the redeployments performed.
  std::vector<Redeployment> fail_node(net::NodeId n);

  /// Full crash: the node also stops forwarding, so every incident link
  /// goes down with it and the network may partition. Routing is synced in
  /// place (RoutingTables::sync recomputes only what the crash touched),
  /// the node leaves the hierarchy, and the actives are reconciled exactly
  /// as for fail_node (plus edge-reachability checks).
  std::vector<Redeployment> crash_node(net::NodeId n);

  /// Recovers a node from either failure class: re-admits it to the
  /// network (if crashed), the hierarchy and the registry, resets the
  /// suspended queries' attempt budgets, and resumes what can be resumed.
  std::vector<Redeployment> restore_node(net::NodeId n);

  /// Takes the (a, b) link down; routing is synced in place, the hierarchy
  /// refreshed, and actives whose data edges became unroutable are
  /// migrated or suspended.
  std::vector<Redeployment> fail_link(net::NodeId a, net::NodeId b);

  /// Brings the (a, b) link back and resumes what can be resumed.
  std::vector<Redeployment> restore_link(net::NodeId a, net::NodeId b);

  /// Admission policy: node capacity and link utilization cap; weighted fair
  /// shares apply whenever node capacity is contended. The node capacity —
  /// the total operator INPUT byte rate a node may host (the paper's §1.1:
  /// "node N2 may be overloaded"), 0 = unlimited, the default — is also the
  /// budget rebalance_load() sheds against.
  void set_admission_config(const AdmissionConfig& cfg);

  /// Registers a per-tenant quota (query count, byte budget, fairness
  /// weight). Queries carry their tenant in Query::tenant.
  void set_tenant_quota(std::uint32_t tenant, const TenantQuota& quota);

  /// Verdict of the most recent deploy() admission decision.
  const AdmissionVerdict& last_admission() const { return last_admission_; }

  /// Incremental per-node/per-link/per-tenant load accounting.
  const ResourceLedger& ledger() const { return ledger_; }

  /// Operator input load currently hosted by each node. Maintained
  /// incrementally by the ledger on deploy/undeploy/migrate/rate-change;
  /// Debug builds cross-check it against a from-scratch recompute.
  std::vector<double> node_loads() const;

  /// Detects nodes over capacity, excludes them from hosting further
  /// operators, and migrates the deployments whose operators sit there.
  /// Iterates until no node is overloaded or nothing can move. Exclusions
  /// are load-shedding only: the node stays in the hierarchy and keeps
  /// forwarding, sourcing and sinking.
  std::vector<Redeployment> rebalance_load();

  /// Health-plane quarantine: the node is excluded from hosting operators
  /// exactly like a load-shed node — it keeps forwarding, sourcing and
  /// sinking — and every active with an operator there is migrated off (a
  /// replan that would place back on the quarantined node is not adopted).
  /// Idempotent: quarantining twice returns no redeployments.
  std::vector<Redeployment> quarantine_node(net::NodeId n);

  /// Lifts a quarantine (the element survived its probation probe budget)
  /// and retries the suspended queue. Idempotent.
  std::vector<Redeployment> release_quarantine(net::NodeId n);

  const std::vector<net::NodeId>& quarantined_nodes() const {
    return quarantined_nodes_;
  }

  /// Per-node multiplicative pricing penalty from the health plane
  /// (>= 1 per node, indexed by NodeId; empty = none). Every subsequent
  /// planning environment carries it, so all optimizers steer around
  /// suspect elements before quarantine ever triggers. Optimizers planning
  /// under a penalty report planned_cost = actual (true) cost.
  void set_health_penalty(std::vector<double> penalty);

  /// Re-optimizes every active query whose cost drifted beyond the
  /// threshold, then retries the suspended queue; returns what was
  /// redeployed or resumed.
  std::vector<Redeployment> adapt();

  /// Global convergence pass: re-clusters the hierarchy from scratch
  /// (incremental repairs accumulate partition-quality drift over a long
  /// churn episode), then replans EVERY active query (drifted or not)
  /// against the others' current operators and accepts strict
  /// improvements, repeating until a fixpoint or the round budget. Where
  /// adapt() chases drift, reoptimize() recovers the reuse opportunities a
  /// staggered recovery leaves behind — queries resumed one at a time plan
  /// against whatever advertisements existed at that moment, and their
  /// planned cost equals their current cost, so adapt() never revisits
  /// them. A final joint pass re-deploys the whole workload from scratch
  /// (in query-id order) and adopts the result when cheaper, escaping the
  /// local minima single-query moves cannot (reuse chains where provider
  /// and consumer must move together). Run it after full restoration to
  /// settle the system.
  std::vector<Redeployment> reoptimize(int max_rounds = 3);

  /// Incremental settle: replans ONLY the dirty queries — those touched by
  /// registration churn (overlapping stream sets with an arrival or
  /// departure, rate changes, repaired consumers) — against the warm
  /// registry and hierarchy, adopting strict improvements. The cheap
  /// steady-state alternative to reoptimize()'s full re-cluster; run
  /// reoptimize() only to settle after major episodes. Clears the dirty
  /// set.
  std::vector<Redeployment> settle(int max_rounds = 2);

  struct SettleStats {
    std::size_t replanned = 0;  // replan() calls issued by the last settle
    std::size_t moved = 0;      // improvements adopted
    std::size_t dirty = 0;      // dirty-set size entering the last settle
  };
  const SettleStats& last_settle_stats() const { return settle_stats_; }

  /// Queries currently marked dirty for the next settle().
  std::size_t dirty_queries() const { return dirty_.size(); }

  /// Cumulative failed resume attempts (bounded-retry invariant: between
  /// two restores each suspended query fails at most max_resume_attempts
  /// times, with exponentially backed-off retries in between).
  std::uint64_t resume_failures_total() const {
    return resume_failures_total_;
  }

  /// Current total cost of all active deployments under current routing.
  double total_current_cost() const;

  const net::RoutingTables& routing() const { return *routing_; }
  const cluster::Hierarchy& hierarchy() const { return *hierarchy_; }
  const advert::Registry& registry() const { return registry_; }
  const net::Network& network() const { return *net_; }
  const query::Catalog& catalog() const { return *catalog_; }
  std::size_t active_queries() const { return active_.size(); }

  /// A query parked by a failure, waiting for recovery. `attempts` counts
  /// failed resume attempts since the last restore_* (each restore resets
  /// the budget); once it reaches the max the query only retries on the
  /// next restore. `skip` is the exponential-backoff counter: after the
  /// k-th failure the query sits out the next 2^k - 1 resume passes, so a
  /// flapping region does not turn every adapt() into O(suspended) failed
  /// replans. Restores clear both.
  struct SuspendedQuery {
    query::Query q;
    double last_planned_cost = 0.0;
    int attempts = 0;
    int skip = 0;
  };

  const std::vector<SuspendedQuery>& suspended() const { return suspended_; }
  std::size_t suspended_queries() const { return suspended_.size(); }

  /// Max resume attempts between restores (default 3, >= 1).
  void set_max_resume_attempts(int attempts);
  int max_resume_attempts() const { return max_resume_attempts_; }

  /// Nodes currently excluded from hosting operators: processing-failed,
  /// crashed, or load-shed. Sorted ascending.
  std::vector<net::NodeId> excluded_hosts() const;

  /// The environment a plan would be validated/planned against right now
  /// (exposed for the chaos harness and external validators).
  opt::OptimizerEnv planning_env() { return env(registry_); }

  /// Planner workspace (exposed so harnesses can pin the thread count for
  /// determinism checks).
  opt::PlanWorkspace& workspace() { return workspace_; }

  /// Read-only view of one active query for monitoring/validation.
  struct ActiveView {
    const query::Query* query = nullptr;
    const query::Deployment* deployment = nullptr;
    double planned_cost = 0.0;
  };
  std::vector<ActiveView> active_views() const;

  /// Per-active-query delivery accounting read out of a (finished) reliable
  /// simulation the actives were deployed into — the middleware's
  /// monitoring surface for the engine's delivery semantics.
  std::vector<std::pair<query::QueryId, DeliveryStats>> collect_delivery_stats(
      const Simulation& sim) const;

  /// Deploys every active into `sim` in dependency order: derived leaf units
  /// bind to operators of already-deployed queries, so it sweeps the actives
  /// to a fixpoint (a reuse chain of depth d deploys in d sweeps). Returns
  /// false when a sweep makes no progress — a provider is missing outright,
  /// which the stranded-reuse repair should prevent.
  bool deploy_actives(Simulation& sim) const;

  /// Placement changes recorded since the last clear, in adoption order —
  /// the feed a harness replays into the engine as state-handoff (warm) or
  /// cold-restart migrations.
  const std::vector<StateMigration>& state_migrations() const {
    return state_migrations_;
  }
  void clear_state_migrations() { state_migrations_.clear(); }

  /// Current deployments of all active queries (monitoring, diagnostics).
  std::vector<const query::Deployment*> deployments() const {
    std::vector<const query::Deployment*> out;
    out.reserve(active_.size());
    for (const Active& a : active_) out.push_back(&a.deployment);
    return out;
  }

 private:
  struct Active {
    query::Query q;
    query::Deployment deployment;
    double planned_cost = 0.0;
    /// The footprint this deployment currently holds in the ledger (the
    /// exact amounts to retract on undeploy/migrate even after rates or
    /// routes moved).
    DeploymentFootprint footprint;
  };

  /// Planning environment over `registry`: every algorithm sees the same
  /// catalog, routing, hierarchy, host exclusions and health penalty.
  opt::OptimizerEnv env(advert::Registry& registry);
  std::unique_ptr<opt::Optimizer> make_optimizer(
      const opt::OptimizerEnv& e) const;
  /// Plans q against `registry` with the configured algorithm, avoiding the
  /// sorted `avoid` hosts on top of the excluded ones (the degraded
  /// admission replan passes its saturated nodes here).
  opt::OptimizeResult plan(const query::Query& q, advert::Registry& registry,
                           std::vector<net::NodeId> avoid = {});
  /// Re-optimizes one active query against everyone else's operators;
  /// returns the candidate result (which the caller may adopt).
  opt::OptimizeResult replan(const Active& a);
  void rebuild_views();
  void rebuild_routing();

  /// True when n cannot host, source or sink right now (crashed or
  /// processing-failed; overload exclusion is hosting-only).
  bool host_down(net::NodeId n) const;

  /// True when n may not host operators: down, load-shed or quarantined.
  bool excluded(net::NodeId n) const;

  /// Every source stream node and the sink are up.
  bool endpoints_healthy(const query::Query& q) const;

  /// No element on a down host and every data edge still routable.
  bool deployment_intact(const Active& a) const;

  /// True when the deployment hosts an op or derived unit on an excluded
  /// host. The restricted search's unrestricted fallback can hand such
  /// plans back; adoption sites must reject them or the validator's
  /// excluded-host sweep flags the adopted deployment.
  bool deployment_on_excluded(const query::Deployment& d) const;

  /// Every derived leaf unit still has a live provider among the *other*
  /// actives, as the registry records them. Migrating a provider can strand
  /// its consumers even though every host is healthy.
  bool derived_units_bound(const Active& a) const;

  /// Flags every active whose derived units transitively draw on `root`'s
  /// results (root itself included), indexed like `active_`. replan() must
  /// not reuse these — doing so would create an ungrounded reuse cycle.
  std::vector<bool> transitive_dependents(const Active& root) const;

  /// a's deployment cost under the current rates and routes.
  double current_cost(const Active& a) const;

  /// Prices a's deployment under current rates/routes, applies it to the
  /// ledger and records the footprint on the Active.
  void ledger_add(Active& a);
  /// Retracts a's recorded footprint from the ledger.
  void ledger_remove(Active& a);
  /// Adopts a replan of `a`: swaps its ledger footprint and advertisements,
  /// records the placement diff as a warm StateMigration and dirties the
  /// reuse neighborhood that can see the new advertisements.
  void adopt(Active& a, query::Deployment deployment, double cost);
  /// Parks active_[i] in the suspended queue with `attempts` of its resume
  /// budget already spent, retracting its footprint and advertisements.
  void suspend(std::size_t i, int attempts);
  /// Appends q as an active running res's plan: advertises it, charges the
  /// ledger and dirties its reuse neighborhood.
  void activate(query::Query q, const opt::OptimizeResult& res);
  /// Clears every suspended query's attempt budget and backoff (a restore
  /// or a lifted quarantine improved the world).
  void reset_resume_budgets();
  /// Appends the placement diff of one adopted replan to the migration
  /// feed.
  void record_migration(query::QueryId q, const query::Deployment& before,
                        const query::Deployment& after, bool warm);
  /// Marks every active whose source-stream set intersects q's as dirty
  /// for the next settle() — the reuse neighborhood a registration or
  /// unregistration can improve or degrade.
  void mark_dirty_overlap(const query::Query& q);
  void mark_dirty(query::QueryId id);
  /// Debug-only consistency checks: warm registry vs full rebuild, then
  /// debug_check_ledger().
  void debug_check_warm_state() const;
  /// Debug-only: ledger node loads vs a from-scratch recompute.
  void debug_check_ledger() const;
  std::vector<double> node_loads_recomputed() const;

  /// Post-fault sweep: migrates or suspends broken actives and (on recovery
  /// paths) retries the suspended queue.
  std::vector<Redeployment> reconcile(bool try_resume);

  /// Retries suspended queries with remaining attempt budget.
  void resume_pass(std::vector<Redeployment>& out);

  net::Network* net_;
  query::Catalog* catalog_;
  int max_cs_;
  Algorithm algorithm_;
  std::uint64_t seed_;  // hierarchy rebuilds derive pure per-version Prngs
  double drift_threshold_;

  std::unique_ptr<net::RoutingTables> routing_;
  std::unique_ptr<cluster::Hierarchy> hierarchy_;
  /// Planner scratch + worker pool reused across every deploy/adapt cycle.
  opt::PlanWorkspace workspace_;
  advert::Registry registry_;
  std::vector<Active> active_;
  std::vector<SuspendedQuery> suspended_;
  std::vector<net::NodeId> failed_nodes_;
  std::vector<net::NodeId> overloaded_nodes_;  // load-shed, still forwarding
  std::vector<net::NodeId> quarantined_nodes_;  // health plane, hosting-only
  /// Health-plane pricing penalty (empty = none); env() hands a pointer to
  /// this vector to every planning environment.
  std::vector<double> health_penalty_;
  int max_resume_attempts_ = 3;
  /// Seeded jitter for the suspended-resume exponential backoff, so a
  /// cluster-wide restore staggers the retry stampede deterministically.
  Prng backoff_prng_;

  AdmissionController admission_;
  ResourceLedger ledger_;
  AdmissionVerdict last_admission_;
  std::vector<query::QueryId> dirty_;  // sorted unique
  SettleStats settle_stats_;
  std::uint64_t resume_failures_total_ = 0;
  std::vector<StateMigration> state_migrations_;
};

}  // namespace iflow::engine
