// Common interface of all query optimizers.
//
// An optimizer turns a Query into a Deployment. Implementations:
//   * ExhaustiveOptimizer — the optimal joint plan+placement (paper's "DP"
//     baseline), searching the whole network;
//   * TopDownOptimizer / BottomUpOptimizer — the paper's hierarchical
//     algorithms (§2.2, §2.3);
//   * PlanThenDeployOptimizer — phased: selectivity-based join order, then
//     optimal placement of that fixed tree (Fig 1a / Fig 2);
//   * RelaxationOptimizer — Pietzuch et al.'s cost-space relaxation;
//   * InNetworkOptimizer — Ahmad & Cetintemel's zone-based placement.
#pragma once

#include <memory>
#include <string>

#include "advert/registry.h"
#include "cluster/hierarchy.h"
#include "net/network.h"
#include "net/routing.h"
#include "opt/search/distance_oracle.h"
#include "query/catalog.h"
#include "query/plan.h"
#include "query/query.h"

namespace iflow::opt {

class PlanWorkspace;

/// Modeled CPU time to evaluate one candidate plan, for the deployment time
/// model (Fig 10).
inline constexpr double kPlanEvalUs = 100.0;

/// Shared, borrowed state every optimizer plans against. All pointers are
/// non-owning and must outlive the optimizer; `hierarchy` is only required
/// by the hierarchical algorithms and `registry` only when `reuse` is on.
struct OptimizerEnv {
  const query::Catalog* catalog = nullptr;
  const net::Network* network = nullptr;
  const net::RoutingTables* routing = nullptr;
  const cluster::Hierarchy* hierarchy = nullptr;
  advert::Registry* registry = nullptr;
  bool reuse = true;
  /// Width retained by the projection after a join (paper queries project
  /// a subset of columns).
  double projection_factor = 1.0;
  /// Nodes available for in-network processing (Figure 3 marks a subset of
  /// nodes as processing-capable). Sorted. Empty = every node may host
  /// operators. Sources and sinks need not be processing nodes. When a
  /// search scope (cluster, zone) contains no processing node, the scope
  /// falls back to all of its nodes so planning never becomes infeasible.
  std::vector<net::NodeId> processing_nodes;
  /// Hosts the current search must avoid (degraded admission plans around
  /// saturated nodes; failed/overloaded hosts use the complement form in
  /// `processing_nodes`). Sorted. Same fallback contract as
  /// `processing_nodes`: a scope whose every node is excluded keeps all of
  /// its nodes rather than going infeasible — the validator's capacity and
  /// exclusion invariants are the backstop, not the search scope.
  std::vector<net::NodeId> excluded_sites;
  /// Planner scratch + worker pool shared by every search this environment
  /// issues. Non-owning; null = the thread-local default workspace (see
  /// workspace_for).
  PlanWorkspace* workspace = nullptr;
  /// Scale path: when set, whole-network searches price candidates through
  /// this tiered oracle instead of exact routing rows (see planning_oracle).
  /// Optimizers that plan sparsely report planned_cost = actual_cost, since
  /// their internal objective is an estimate the validator should not be
  /// asked to reproduce. Non-owning.
  const SparseOracle* sparse = nullptr;
  /// Health plane: multiplicative per-node pricing penalty (indexed by
  /// NodeId, every entry >= 1, healthy = 1) applied to the planning
  /// oracles' distances, so searches steer around suspect elements while
  /// routing stays unchanged. Like `sparse`, a penalized objective is not
  /// the true deployed cost, so optimizers planning under it report
  /// planned_cost = actual_cost. Non-owning; null = no penalty.
  const std::vector<double>* node_penalty = nullptr;
};

/// The distance source whole-network searches should plan with: the sparse
/// tiered oracle when the environment configures one, exact routing costs
/// otherwise.
DistanceOracle planning_oracle(const OptimizerEnv& env);

/// Restricts `sites` to the environment's processing nodes; returns `sites`
/// unchanged when no restriction is configured or nothing would remain.
std::vector<net::NodeId> restrict_sites(const OptimizerEnv& env,
                                        std::vector<net::NodeId> sites);

/// Every network node as a candidate site list, already passed through
/// restrict_sites. The whole-network optimizers (exhaustive, phased,
/// relaxation snap, random) all start from this set.
std::vector<net::NodeId> all_sites(const OptimizerEnv& env);

/// The environment's workspace, or the thread-local default when none is
/// configured.
PlanWorkspace& workspace_for(const OptimizerEnv& env);

/// Byte rate of the root→sink edge: the raw full-join rate, or the
/// aggregate output rate when the query aggregates (signalled as -1 when no
/// aggregation, so planners fall back to per-branch raw rates).
double delivery_rate_for(const query::Query& q, const query::RateModel& rates);

struct OptimizeResult {
  bool feasible = false;
  query::Deployment deployment;
  /// Cost as estimated by the algorithm's own (possibly approximate)
  /// oracle.
  double planned_cost = 0.0;
  /// True marginal communication cost per unit time, evaluated against the
  /// actual routing tables.
  double actual_cost = 0.0;
  /// Exhaustive-semantics count of plan+deployment combinations examined.
  double plans_considered = 0.0;
  /// Modeled wall-clock deployment time: control messages along the
  /// hierarchy plus plan evaluation (Fig 10).
  double deploy_time_ms = 0.0;
  /// Hierarchy levels that participated in planning.
  int levels_used = 0;
  /// Optional, parallel to `deployment.ops`: the candidate-node scope each
  /// operator was placed from, BEFORE the processing-node restriction.
  /// Optimizers whose scopes the verifier cannot reconstruct from the
  /// environment (e.g. in-network's zone-restricted data paths) record them
  /// here so the restriction — including its documented fallback — stays
  /// machine-checkable. Empty = scopes derivable from env (whole network or
  /// hierarchy clusters).
  std::vector<std::vector<net::NodeId>> op_scopes;
};

class Optimizer {
 public:
  virtual ~Optimizer() = default;
  virtual std::string name() const = 0;
  virtual OptimizeResult optimize(const query::Query& q) = 0;
};

/// Incremental multi-query driver: optimizes each submitted query, records
/// its operators as derived-stream advertisements (when reuse is enabled)
/// and accumulates the cumulative deployed cost — the quantity plotted by
/// the paper's multi-query figures.
class Session {
 public:
  Session(const OptimizerEnv& env, std::unique_ptr<Optimizer> optimizer)
      : env_(env), optimizer_(std::move(optimizer)) {}

  OptimizeResult submit(const query::Query& q);

  double cumulative_cost() const { return cumulative_cost_; }
  Optimizer& optimizer() { return *optimizer_; }

 private:
  OptimizerEnv env_;
  std::unique_ptr<Optimizer> optimizer_;
  double cumulative_cost_ = 0.0;
};

}  // namespace iflow::opt
