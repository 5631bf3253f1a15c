#include "opt/random_place.h"

#include <cmath>

#include "opt/static_plan.h"
#include "opt/view.h"
#include "query/rates.h"
#include "verify/validator.h"

namespace iflow::opt {

OptimizeResult RandomPlacementOptimizer::optimize(const query::Query& q) {
  IFLOW_CHECK(env_.catalog && env_.network && env_.routing);
  const net::RoutingTables& rt = *env_.routing;
  query::RateModel rates(*env_.catalog, q, env_.projection_factor);

  const std::vector<query::LeafUnit> bases =
      collect_units(rates, nullptr, nullptr);
  const StaticPlan plan = choose_static_plan(rates, bases);
  IFLOW_CHECK(plan.feasible);

  const std::vector<net::NodeId> sites = all_sites(env_);

  std::vector<net::NodeId> op_nodes(plan.tree.nodes.size(),
                                    net::kInvalidNode);
  double ops = 0.0;
  for (std::size_t v = 0; v < plan.tree.nodes.size(); ++v) {
    if (plan.tree.nodes[v].unit >= 0) continue;
    op_nodes[v] = prng_.pick(sites);
    ops += 1.0;
  }

  OptimizeResult out;
  out.feasible = true;
  out.deployment = assemble_deployment(plan.tree, plan.units, rates, op_nodes,
                                       q.sink, q.id);
  out.deployment.aggregate = q.aggregate;
  out.actual_cost = query::deployment_cost(out.deployment, rt);
  // Random draws ignore reachability; feasible results must price finite.
  if (!std::isfinite(out.actual_cost)) {
    OptimizeResult infeasible;
    infeasible.feasible = false;
    return infeasible;
  }
  out.planned_cost = out.actual_cost;
  out.plans_considered = plan.plans_examined + ops;  // one draw per operator
  out.levels_used = 1;
  out.deploy_time_ms = out.plans_considered * kPlanEvalUs / 1000.0;
  IFLOW_VERIFY_RESULT(out, env_, q);
  return out;
}

}  // namespace iflow::opt
