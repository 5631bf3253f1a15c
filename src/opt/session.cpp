#include "opt/optimizer.h"

#include <algorithm>
#include <numeric>

#include "opt/search/workspace.h"
#include "query/rates.h"

namespace iflow::opt {

std::vector<net::NodeId> restrict_sites(const OptimizerEnv& env,
                                        std::vector<net::NodeId> sites) {
  if (!env.excluded_sites.empty()) {
    std::vector<net::NodeId> kept;
    for (net::NodeId n : sites) {
      if (!std::binary_search(env.excluded_sites.begin(),
                              env.excluded_sites.end(), n)) {
        kept.push_back(n);
      }
    }
    // Fully-excluded scope: keep its nodes so the search stays feasible;
    // the validator's kExcludedHost check decides whether the final plan
    // is acceptable.
    if (!kept.empty()) sites = std::move(kept);
  }
  if (env.processing_nodes.empty()) return sites;
  IFLOW_DCHECK(std::is_sorted(env.processing_nodes.begin(),
                              env.processing_nodes.end()));
  std::vector<net::NodeId> kept;
  for (net::NodeId n : sites) {
    if (std::binary_search(env.processing_nodes.begin(),
                           env.processing_nodes.end(), n)) {
      kept.push_back(n);
    }
  }
  return kept.empty() ? sites : kept;
}

std::vector<net::NodeId> all_sites(const OptimizerEnv& env) {
  IFLOW_CHECK(env.network != nullptr);
  std::vector<net::NodeId> sites(env.network->node_count());
  std::iota(sites.begin(), sites.end(), net::NodeId{0});
  return restrict_sites(env, std::move(sites));
}

PlanWorkspace& workspace_for(const OptimizerEnv& env) {
  return env.workspace != nullptr ? *env.workspace : default_workspace();
}

DistanceOracle planning_oracle(const OptimizerEnv& env) {
  DistanceOracle o;
  if (env.sparse != nullptr) {
    o = DistanceOracle::sparse(*env.sparse);
  } else {
    IFLOW_CHECK(env.routing != nullptr);
    o = DistanceOracle::routing(*env.routing);
  }
  return o.with_node_penalty(env.node_penalty);
}

double delivery_rate_for(const query::Query& q,
                         const query::RateModel& rates) {
  if (!q.aggregate.enabled()) return -1.0;
  return std::min(rates.tuple_rate(rates.full()),
                  q.aggregate.out_tuple_rate()) *
         q.aggregate.out_width;
}

OptimizeResult Session::submit(const query::Query& q) {
  OptimizeResult res = optimizer_->optimize(q);
  if (!res.feasible) return res;
  cumulative_cost_ += res.actual_cost;
  if (env_.reuse && env_.registry != nullptr) {
    query::RateModel rates(*env_.catalog, q, env_.projection_factor);
    advert::advertise_deployment(*env_.registry, res.deployment, rates);
  }
  return res;
}

}  // namespace iflow::opt
