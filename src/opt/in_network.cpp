#include "opt/in_network.h"

#include <cmath>
#include <limits>

#include "cluster/kmedoids.h"
#include "opt/static_plan.h"
#include "opt/view.h"
#include "query/rates.h"
#include "verify/validator.h"

namespace iflow::opt {

InNetworkOptimizer::InNetworkOptimizer(const OptimizerEnv& env,
                                       std::uint64_t seed, int zones)
    : env_(env) {
  IFLOW_CHECK(env.network && env.routing);
  IFLOW_CHECK(zones >= 1);
  const DistanceOracle dist = planning_oracle(env);
  std::vector<std::uint32_t> items(env.network->node_count());
  for (std::size_t i = 0; i < items.size(); ++i) {
    items[i] = static_cast<std::uint32_t>(i);
  }
  Prng prng(seed);
  const cluster::KMedoidsResult km = cluster::k_medoids(
      items, zones, items.size(),
      [&dist](std::uint32_t a, std::uint32_t b) { return dist(a, b); }, prng);
  zone_of_.assign(items.size(), -1);
  for (std::size_t z = 0; z < km.clusters.size(); ++z) {
    zones_.emplace_back(km.clusters[z].begin(), km.clusters[z].end());
    for (auto n : km.clusters[z]) zone_of_[n] = static_cast<int>(z);
  }
}

OptimizeResult InNetworkOptimizer::optimize(const query::Query& q) {
  IFLOW_CHECK(env_.catalog && env_.network && env_.routing);
  const net::RoutingTables& rt = *env_.routing;
  // Candidate pricing goes through the planning oracle; the data-path walk
  // (cost_path) is structural and stays on the exact tables.
  const DistanceOracle dist = planning_oracle(env_);
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

  // Greedy bottom-up: each operator goes to the cheapest node within the
  // zone of its heaviest input (arena order is topological, so children are
  // already placed).
  std::vector<net::NodeId> op_nodes(tree.nodes.size(), net::kInvalidNode);
  // Zone-restricted path scopes are private to this optimizer, so each op's
  // pre-restriction candidate set is recorded for the verifier (arena order
  // matches assemble_deployment's op order).
  std::vector<std::vector<net::NodeId>> op_scopes;
  double examined = plan.plans_examined;
  auto child_info = [&](int child) {
    const query::TreeNode& cn = tree.nodes[static_cast<std::size_t>(child)];
    if (cn.unit >= 0) {
      const query::LeafUnit& u = plan.units[static_cast<std::size_t>(cn.unit)];
      return std::pair{u.location, u.bytes_rate};
    }
    return std::pair{op_nodes[static_cast<std::size_t>(child)],
                     rates.bytes_rate(cn.mask)};
  };
  for (std::size_t v = 0; v < tree.nodes.size(); ++v) {
    const query::TreeNode& n = tree.nodes[v];
    if (n.unit >= 0) continue;
    const auto [lloc, lrate] = child_info(n.left);
    const auto [rloc, rrate] = child_info(n.right);
    const net::NodeId anchor = (lrate >= rrate) ? lloc : rloc;
    const int zone = zone_of_[anchor];
    const bool is_root = (static_cast<int>(v) == tree.root);
    double out_rate = rates.bytes_rate(n.mask);
    if (is_root) {
      const double dr = delivery_rate_for(q, rates);
      if (dr >= 0.0) out_rate = dr;
    }
    // In-network placement: operators sit ON the data path from the
    // heaviest input toward the sink, within the input's zone.
    std::vector<net::NodeId> candidates;
    for (net::NodeId hop : rt.cost_path(anchor, q.sink)) {
      if (zone_of_[hop] == zone) candidates.push_back(hop);
    }
    if (candidates.empty()) candidates.push_back(anchor);
    op_scopes.push_back(candidates);
    candidates = restrict_sites(env_, std::move(candidates));
    double best = std::numeric_limits<double>::infinity();
    net::NodeId chosen = net::kInvalidNode;
    for (net::NodeId cand : candidates) {
      double c = lrate * dist(lloc, cand) + rrate * dist(rloc, cand);
      if (is_root) c += out_rate * dist(cand, q.sink);
      if (c < best) {
        best = c;
        chosen = cand;
      }
      examined += 1.0;
    }
    if (chosen == net::kInvalidNode) {
      // Every candidate priced at infinity (inputs unreachable): report
      // infeasible instead of assembling a deployment with a hole in it.
      OptimizeResult out;
      out.feasible = false;
      return out;
    }
    op_nodes[v] = chosen;
  }

  OptimizeResult out;
  out.feasible = true;
  out.deployment = assemble_deployment(tree, plan.units, rates, op_nodes,
                                       q.sink, q.id);
  out.deployment.aggregate = q.aggregate;
  out.actual_cost = query::deployment_cost(out.deployment, rt);
  // The per-operator chooser prices inputs, not the final delivery hop, so
  // a partitioned sink can still leave the whole at infinity.
  if (!std::isfinite(out.actual_cost)) {
    OptimizeResult infeasible;
    infeasible.feasible = false;
    return infeasible;
  }
  out.planned_cost = out.actual_cost;
  out.plans_considered = examined;
  out.levels_used = 1;
  out.op_scopes = std::move(op_scopes);
  out.deploy_time_ms = examined * kPlanEvalUs / 1000.0;
  IFLOW_VERIFY_RESULT(out, env_, q);
  return out;
}

}  // namespace iflow::opt
