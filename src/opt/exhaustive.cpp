#include "opt/exhaustive.h"

#include <cmath>

#include "opt/view.h"
#include "query/rates.h"
#include "verify/validator.h"

namespace iflow::opt {

OptimizeResult ExhaustiveOptimizer::optimize(const query::Query& q) {
  IFLOW_CHECK(env_.catalog && env_.network && env_.routing);
  const net::RoutingTables& rt = *env_.routing;
  query::RateModel rates(*env_.catalog, q, env_.projection_factor);

  PlannerInput in;
  in.rates = &rates;
  in.units = collect_units(rates, env_.reuse ? env_.registry : nullptr, nullptr);
  in.target = rates.full();
  in.delivery = q.sink;
  in.sites = all_sites(env_);
  in.dist = planning_oracle(env_);
  in.query_id = q.id;
  in.delivery_bytes_rate = delivery_rate_for(q, rates);

  const PlannerResult res = plan_optimal(in, workspace_for(env_));
  OptimizeResult out;
  out.feasible = res.feasible;
  if (!res.feasible) return out;
  out.deployment = res.deployment;
  out.deployment.aggregate = q.aggregate;
  out.actual_cost = query::deployment_cost(out.deployment, rt);
  if (!std::isfinite(out.actual_cost)) {  // feasible implies finite cost
    OptimizeResult infeasible;
    infeasible.feasible = false;
    return infeasible;
  }
  // Under the sparse oracle (or a health pricing penalty) the planner's
  // objective is not the exact deployed cost the validator reproduces.
  out.planned_cost = env_.sparse != nullptr || env_.node_penalty != nullptr
                         ? out.actual_cost
                         : res.cost;
  out.plans_considered = res.plans_considered;
  out.levels_used = 1;
  // Centralised search: all statistics are at one node; deployment time is
  // dominated by evaluating the entire space.
  out.deploy_time_ms = res.plans_considered * kPlanEvalUs / 1000.0;
  IFLOW_VERIFY_RESULT(out, env_, q);
  return out;
}

}  // namespace iflow::opt
