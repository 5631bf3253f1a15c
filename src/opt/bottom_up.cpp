#include "opt/bottom_up.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <unordered_set>

#include "opt/view_planner.h"
#include "query/rates.h"
#include "verify/validator.h"

namespace iflow::opt {

namespace {

int popcount(query::Mask m) { return std::popcount(m); }

}  // namespace

OptimizeResult BottomUpOptimizer::optimize(const query::Query& q) {
  IFLOW_CHECK(env_.catalog && env_.network && env_.routing && env_.hierarchy);
  const cluster::Hierarchy& h = *env_.hierarchy;
  const net::RoutingTables& rt = *env_.routing;
  query::RateModel rates(*env_.catalog, q, env_.projection_factor);
  const query::Mask full = rates.full();

  query::Deployment final_deployment;
  final_deployment.query = q.id;
  final_deployment.sink = q.sink;

  OptimizeResult out;
  query::Mask remaining = full;
  ViewInput partial;      // running joined result; valid when covered != 0
  query::Mask covered = 0;
  std::vector<ViewPlanStats> stats(static_cast<std::size_t>(h.height()));

  for (int level = 1; level <= h.height(); ++level) {
    // The cluster on the sink's coordinator chain at this level and the
    // physical nodes beneath it.
    const std::size_t ci = h.cluster_of(h.representative(q.sink, level), level);
    const cluster::Cluster& cl = h.level(level)[ci];
    std::unordered_set<net::NodeId> scope;
    for (net::NodeId m : cl.members) {
      for (net::NodeId p : h.underlying(m, level)) scope.insert(p);
    }
    const auto in_scope = [&scope](net::NodeId n) {
      return scope.count(n) != 0;
    };

    // Newly local base sources.
    query::Mask local_bases = 0;
    for (int i = 0; i < rates.k(); ++i) {
      const query::Mask bit = query::Mask{1} << i;
      if ((remaining & bit) && in_scope(rates.source_node(i))) {
        local_bases |= bit;
      }
    }
    // Reusable derived streams advertised within the cluster, restricted to
    // the remaining sources (the partial result must stay a planning unit).
    std::vector<query::LeafUnit> deriveds;
    if (env_.reuse && env_.registry != nullptr) {
      for (const query::LeafUnit& u :
           collect_units(rates, env_.registry,
                         [&](net::NodeId n) { return in_scope(n); })) {
        if (u.derived && (u.mask & ~remaining) == 0) deriveds.push_back(u);
      }
    }
    // A derived stream can extend coverage past local bases, but only if its
    // full mask stays disjoint from other accepted extenders (otherwise no
    // disjoint cover exists for the extra bits).
    std::sort(deriveds.begin(), deriveds.end(),
              [](const query::LeafUnit& a, const query::LeafUnit& b) {
                return popcount(a.mask) > popcount(b.mask);
              });
    query::Mask extra = 0;
    query::Mask accepted_extenders = 0;
    for (const query::LeafUnit& d : deriveds) {
      const query::Mask e = d.mask & ~(local_bases | covered);
      if (e == 0) continue;
      if ((d.mask & accepted_extenders) != 0) continue;
      extra |= e;
      accepted_extenders |= d.mask;
    }

    const query::Mask target = covered | local_bases | extra;
    if (target == covered) continue;  // nothing new at this level

    // Assemble the planner units: the partial result (pinned), newly local
    // bases, and derived options inside the new coverage.
    std::vector<ViewInput> inputs;
    if (covered != 0) inputs.push_back(partial);
    for (int i = 0; i < rates.k(); ++i) {
      const query::Mask bit = query::Mask{1} << i;
      if ((local_bases & bit) == 0) continue;
      ViewInput vi;
      vi.unit.mask = bit;
      vi.unit.location = rates.source_node(i);
      vi.unit.tuple_rate = rates.tuple_rate(bit);
      vi.unit.bytes_rate = rates.bytes_rate(bit);
      inputs.push_back(vi);
    }
    for (const query::LeafUnit& d : deriveds) {
      if ((d.mask & ~(target & ~covered)) != 0) continue;
      inputs.push_back(ViewInput{d, kNoCode});
    }

    // Plan the level's consolidated view within the chain cluster; views
    // assigned to member clusters are refined inside them (the member nodes
    // ARE clusters at levels >= 2).
    const net::NodeId delivery =
        (target == full) ? q.sink : net::kInvalidNode;
    const int code = plan_view_recursive(
        env_, level, ci, inputs, target, delivery, rates, q.id,
        final_deployment, stats, refine_views_,
        (target == full) ? delivery_rate_for(q, rates) : -1.0);
    if (code == kInfeasibleCode) {
      out.feasible = false;
      return out;
    }

    out.levels_used = level;
    // Control latency: the query climbed one more level of the chain.
    if (level > 1) {
      out.deploy_time_ms += rt.delay_ms(h.representative(q.sink, level - 1),
                                        h.representative(q.sink, level));
    }

    covered = target;
    remaining = full & ~covered;
    partial.unit.mask = covered;
    partial.unit.location = node_of_code(final_deployment, code);
    partial.unit.tuple_rate = rates.tuple_rate(covered);
    partial.unit.bytes_rate = rates.bytes_rate(covered);
    partial.final_code = code;
    if (covered == full) break;
  }
  if (covered != full) {
    // Some source never became local — it is outside the hierarchy (failed
    // host) or outside the sink's chain entirely. Not an assertion: report
    // the query as currently unplannable.
    out.feasible = false;
    return out;
  }
  for (const ViewPlanStats& s : stats) {
    out.plans_considered += s.plans;
    out.deploy_time_ms += s.dispatch_ms + s.plans * kPlanEvalUs / 1000.0;
  }

  final_deployment.aggregate = q.aggregate;
  query::validate_deployment(final_deployment);
  out.feasible = true;
  out.deployment = std::move(final_deployment);
  out.actual_cost = query::deployment_cost(out.deployment, rt);
  // As in Top-Down: refined sub-views never price their outgoing edge, so
  // under a partition the assembled deployment can be unroutable even
  // though every level's plan was feasible. Feasible implies finite cost.
  if (!std::isfinite(out.actual_cost)) {
    OptimizeResult infeasible;
    infeasible.feasible = false;
    return infeasible;
  }
  out.planned_cost = out.actual_cost;
  IFLOW_VERIFY_RESULT(out, env_, q);
  return out;
}

}  // namespace iflow::opt
