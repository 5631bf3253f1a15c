#include "opt/plan_then_deploy.h"

#include <cmath>

#include "opt/static_plan.h"
#include "opt/view.h"
#include "query/rates.h"
#include "verify/validator.h"

namespace iflow::opt {

OptimizeResult PlanThenDeployOptimizer::optimize(const query::Query& q) {
  IFLOW_CHECK(env_.catalog && env_.network && env_.routing);
  const net::RoutingTables& rt = *env_.routing;
  query::RateModel rates(*env_.catalog, q, env_.projection_factor);

  // Plan phase: network- and reuse-oblivious (statistics only); deployment
  // phase may substitute derived streams that exactly match subtrees.
  const std::vector<query::LeafUnit> bases =
      collect_units(rates, nullptr, nullptr);
  StaticPlan plan = choose_static_plan(rates, bases);
  IFLOW_CHECK(plan.feasible);
  if (env_.reuse && env_.registry != nullptr) {
    std::vector<query::LeafUnit> deriveds;
    for (const query::LeafUnit& u :
         collect_units(rates, env_.registry, nullptr)) {
      if (u.derived) deriveds.push_back(u);
    }
    plan = apply_subtree_reuse(std::move(plan), rates, deriveds, q.sink, rt);
  }

  const std::vector<net::NodeId> sites = all_sites(env_);
  const TreePlacement placement = place_tree_optimal(
      plan.tree, plan.units, rates, q.sink, sites,
      planning_oracle(env_), delivery_rate_for(q, rates),
      workspace_for(env_));
  OptimizeResult out;
  if (!placement.feasible) return out;
  out.feasible = true;
  out.deployment = assemble_deployment(plan.tree, plan.units, rates,
                                       placement.op_nodes, q.sink, q.id);
  out.deployment.aggregate = q.aggregate;
  out.actual_cost = query::deployment_cost(out.deployment, rt);
  // Under a partition the placement can price every assignment at infinity
  // yet still pick one — feasible results always have finite cost.
  if (!std::isfinite(out.actual_cost)) {
    OptimizeResult infeasible;
    infeasible.feasible = false;
    return infeasible;
  }
  // Sparse-oracle (or health-penalized) placements optimise an estimate;
  // report the exact cost.
  out.planned_cost = env_.sparse != nullptr || env_.node_penalty != nullptr
                         ? out.actual_cost
                         : placement.cost;
  // Plan phase enumerates covers × trees; the deployment phase, done
  // exhaustively, examines |N|^ops assignments of the fixed tree.
  out.plans_considered =
      plan.plans_examined +
      std::pow(static_cast<double>(sites.size()),
               static_cast<double>(plan.tree.internal_count()));
  out.levels_used = 1;
  out.deploy_time_ms = out.plans_considered * kPlanEvalUs / 1000.0;
  IFLOW_VERIFY_RESULT(out, env_, q);
  return out;
}

}  // namespace iflow::opt
