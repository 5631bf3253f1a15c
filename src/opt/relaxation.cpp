#include "opt/relaxation.h"

#include <cmath>
#include <limits>

#include "opt/static_plan.h"
#include "opt/view.h"
#include "query/rates.h"
#include "verify/validator.h"

namespace iflow::opt {

RelaxationOptimizer::RelaxationOptimizer(const OptimizerEnv& env,
                                         std::uint64_t seed,
                                         int relax_iterations,
                                         int embed_iterations)
    : env_(env), relax_iterations_(relax_iterations),
      space_([&] {
        IFLOW_CHECK(env.routing != nullptr);
        Prng prng(seed);
        return CostSpace::build(*env.routing, prng, embed_iterations);
      }()) {
  IFLOW_CHECK(relax_iterations_ >= 1);
}

OptimizeResult RelaxationOptimizer::optimize(const query::Query& q) {
  IFLOW_CHECK(env_.catalog && env_.network && env_.routing);
  const net::RoutingTables& rt = *env_.routing;
  query::RateModel rates(*env_.catalog, q, env_.projection_factor);

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
  const query::JoinTree& tree = plan.tree;

  // Free operator coordinates, pinned endpoints at node positions.
  std::vector<Point3> op_pos(tree.nodes.size());
  std::vector<int> parent(tree.nodes.size(), -1);
  for (std::size_t v = 0; v < tree.nodes.size(); ++v) {
    const query::TreeNode& n = tree.nodes[v];
    if (n.unit >= 0) continue;
    for (int child : {n.left, n.right}) {
      parent[static_cast<std::size_t>(child)] = static_cast<int>(v);
    }
  }
  // Initialise every operator at the centroid of the leaves beneath it.
  for (std::size_t v = 0; v < tree.nodes.size(); ++v) {
    const query::TreeNode& n = tree.nodes[v];
    if (n.unit >= 0) {
      op_pos[v] = space_.position(
          plan.units[static_cast<std::size_t>(n.unit)].location);
    } else {
      const auto& l = op_pos[static_cast<std::size_t>(n.left)];
      const auto& r = op_pos[static_cast<std::size_t>(n.right)];
      for (int d = 0; d < 3; ++d) op_pos[v][d] = (l[d] + r[d]) / 2.0;
    }
  }

  const Point3 sink_pos = space_.position(q.sink);
  auto edge_rate = [&](int child) {
    const query::TreeNode& cn = tree.nodes[static_cast<std::size_t>(child)];
    return (cn.unit >= 0)
               ? plan.units[static_cast<std::size_t>(cn.unit)].bytes_rate
               : rates.bytes_rate(cn.mask);
  };

  // Spring relaxation: each operator moves to the rate-weighted centroid of
  // its tree neighbours (children, and parent or sink).
  for (int iter = 0; iter < relax_iterations_; ++iter) {
    for (std::size_t v = 0; v < tree.nodes.size(); ++v) {
      const query::TreeNode& n = tree.nodes[v];
      if (n.unit >= 0) continue;
      Point3 acc{0.0, 0.0, 0.0};
      double weight = 0.0;
      for (int child : {n.left, n.right}) {
        const double w = edge_rate(child);
        const Point3& p = op_pos[static_cast<std::size_t>(child)];
        for (int d = 0; d < 3; ++d) acc[d] += w * p[d];
        weight += w;
      }
      double out_rate = rates.bytes_rate(n.mask);
      if (parent[v] < 0) {
        const double dr = delivery_rate_for(q, rates);
        if (dr >= 0.0) out_rate = dr;
      }
      const Point3& up = (parent[v] >= 0)
                             ? op_pos[static_cast<std::size_t>(parent[v])]
                             : sink_pos;
      for (int d = 0; d < 3; ++d) acc[d] += out_rate * up[d];
      weight += out_rate;
      if (weight > 0.0) {
        for (int d = 0; d < 3; ++d) op_pos[v][d] = acc[d] / weight;
      }
    }
  }

  // Snap operators to (processing-capable) physical nodes.
  const std::vector<net::NodeId> snap_targets = all_sites(env_);
  std::vector<net::NodeId> op_nodes(tree.nodes.size(), net::kInvalidNode);
  double ops = 0.0;
  for (std::size_t v = 0; v < tree.nodes.size(); ++v) {
    if (tree.nodes[v].unit >= 0) continue;
    net::NodeId best = snap_targets.front();
    double best_d = std::numeric_limits<double>::infinity();
    for (net::NodeId n : snap_targets) {
      // The health penalty inflates a suspect node's attractiveness the
      // same way it inflates oracle distances elsewhere.
      const double d = CostSpace::distance(space_.position(n), op_pos[v]) *
                       (env_.node_penalty != nullptr ? (*env_.node_penalty)[n]
                                                     : 1.0);
      if (d < best_d) {
        best_d = d;
        best = n;
      }
    }
    op_nodes[v] = best;
    ops += 1.0;
  }

  OptimizeResult out;
  out.feasible = true;
  out.deployment = assemble_deployment(tree, plan.units, rates, op_nodes,
                                       q.sink, q.id);
  out.deployment.aggregate = q.aggregate;
  out.actual_cost = query::deployment_cost(out.deployment, rt);
  // Feasible results always have finite cost: under a partition every
  // relaxation move can be priced at infinity and the start point kept.
  if (!std::isfinite(out.actual_cost)) {
    OptimizeResult infeasible;
    infeasible.feasible = false;
    return infeasible;
  }
  out.planned_cost = out.actual_cost;
  out.plans_considered =
      plan.plans_examined + ops * static_cast<double>(relax_iterations_);
  out.levels_used = 1;
  out.deploy_time_ms = out.plans_considered * kPlanEvalUs / 1000.0;
  IFLOW_VERIFY_RESULT(out, env_, q);
  return out;
}

}  // namespace iflow::opt
