#include "opt/top_down.h"

#include <cmath>

#include "opt/view_planner.h"
#include "query/rates.h"
#include "verify/validator.h"

namespace iflow::opt {

OptimizeResult TopDownOptimizer::optimize(const query::Query& q) {
  IFLOW_CHECK(env_.catalog && env_.network && env_.routing && env_.hierarchy);
  const cluster::Hierarchy& h = *env_.hierarchy;
  const net::RoutingTables& rt = *env_.routing;
  query::RateModel rates(*env_.catalog, q, env_.projection_factor);

  std::vector<query::LeafUnit> units =
      collect_units(rates, env_.reuse ? env_.registry : nullptr, nullptr);
  std::vector<ViewInput> inputs;
  inputs.reserve(units.size());
  for (query::LeafUnit& u : units) inputs.push_back(ViewInput{u, kNoCode});

  query::Deployment final_deployment;
  final_deployment.query = q.id;
  final_deployment.sink = q.sink;
  std::vector<ViewPlanStats> stats(static_cast<std::size_t>(h.height()));

  const int code = plan_view_recursive(
      env_, h.height(), 0, inputs, rates.full(), q.sink, rates, q.id,
      final_deployment, stats, /*refine=*/true, delivery_rate_for(q, rates));
  if (code == kInfeasibleCode) {
    OptimizeResult out;
    out.feasible = false;
    return out;
  }
  final_deployment.aggregate = q.aggregate;
  query::validate_deployment(final_deployment);

  OptimizeResult out;
  out.feasible = true;
  out.deployment = std::move(final_deployment);
  out.actual_cost = query::deployment_cost(out.deployment, rt);
  // Every per-view plan can be feasible and yet the assembled whole be
  // unroutable: a refined sub-view does not price its outgoing edge (its
  // delivery is kInvalidNode), so under a partition it can land in a
  // different component than its consumer. Surface that as infeasibility —
  // feasible results always have finite cost.
  if (!std::isfinite(out.actual_cost)) {
    OptimizeResult infeasible;
    infeasible.feasible = false;
    return infeasible;
  }
  out.planned_cost = out.actual_cost;
  out.levels_used = h.height();

  // Deployment time: the query climbs the sink's coordinator chain to the
  // top, then every level plans (plan evaluations) and dispatches views to
  // member coordinators.
  double climb_ms = 0.0;
  for (int l = 1; l < h.height(); ++l) {
    climb_ms += rt.delay_ms(h.representative(q.sink, l),
                            h.representative(q.sink, l + 1));
  }
  out.deploy_time_ms = climb_ms;
  for (const ViewPlanStats& s : stats) {
    out.plans_considered += s.plans;
    out.deploy_time_ms += s.dispatch_ms + s.plans * kPlanEvalUs / 1000.0;
  }
  IFLOW_VERIFY_RESULT(out, env_, q);
  return out;
}

}  // namespace iflow::opt
