#include "verify/validator.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "cluster/hierarchy.h"
#include "query/rates.h"

namespace iflow::verify {

namespace {

/// Relative tolerance of all floating-point comparisons.
constexpr double kTolerance = 1e-6;

bool close(double a, double b) {
  return std::abs(a - b) <=
         kTolerance * (1.0 + std::max(std::abs(a), std::abs(b)));
}

/// Collector keeping violation construction in one place.
struct Report {
  std::vector<Violation> violations;

  template <typename... Parts>
  void add(ViolationCode code, Parts&&... parts) {
    std::ostringstream os;
    (os << ... << parts);
    violations.push_back(Violation{code, os.str()});
  }
};

bool node_exists(const opt::OptimizerEnv& env, net::NodeId n) {
  if (n == net::kInvalidNode) return false;
  if (env.network == nullptr) return true;  // nothing to check against
  return static_cast<std::size_t>(n) < env.network->node_count();
}

/// The documented processing-node fallback (optimizer.h): a planning scope
/// that contains no processing node falls back to all of its members.
/// Scopes are either the whole network (flat algorithms) or hierarchy
/// clusters (per level, for the hierarchical algorithms and their view
/// refinement), so a placement on a non-processing node is legitimate
/// exactly when some scope containing it is processing-free.
bool fallback_excuses(const opt::OptimizerEnv& env, net::NodeId n) {
  const auto is_processing = [&env](net::NodeId m) {
    return std::binary_search(env.processing_nodes.begin(),
                              env.processing_nodes.end(), m);
  };
  // Degenerate restriction: no network node is processing-capable, so the
  // whole-network scope already fell back.
  if (env.network != nullptr) {
    bool any = false;
    for (net::NodeId m = 0; m < env.network->node_count() && !any; ++m) {
      any = is_processing(m);
    }
    if (!any) return true;
  }
  if (env.hierarchy == nullptr) return false;
  const cluster::Hierarchy& h = *env.hierarchy;
  for (int l = 1; l <= h.height(); ++l) {
    if (h.representative(n, l) != n) break;  // n is not a level-l node
    const cluster::Cluster& cl = h.level(l)[h.cluster_of(n, l)];
    if (std::none_of(cl.members.begin(), cl.members.end(), is_processing)) {
      return true;
    }
  }
  return false;
}

/// Mirror of `fallback_excuses` for env.excluded_sites: an excluded host is
/// a legitimate placement only when some scope containing it consists
/// entirely of excluded nodes (restrict_sites then kept the scope as-is).
bool exclusion_excuses(const opt::OptimizerEnv& env, net::NodeId n) {
  const auto is_excluded = [&env](net::NodeId m) {
    return std::binary_search(env.excluded_sites.begin(),
                              env.excluded_sites.end(), m);
  };
  if (env.network != nullptr) {
    bool any_open = false;
    for (net::NodeId m = 0; m < env.network->node_count() && !any_open; ++m) {
      any_open = !is_excluded(m);
    }
    if (!any_open) return true;  // everything excluded: global fallback
  }
  if (env.hierarchy == nullptr) return false;
  const cluster::Hierarchy& h = *env.hierarchy;
  for (int l = 1; l <= h.height(); ++l) {
    if (h.representative(n, l) != n) break;  // n is not a level-l node
    const cluster::Cluster& cl = h.level(l)[h.cluster_of(n, l)];
    if (std::all_of(cl.members.begin(), cl.members.end(), is_excluded)) {
      return true;
    }
  }
  return false;
}

}  // namespace

const char* to_string(ViolationCode code) {
  switch (code) {
    case ViolationCode::kNoUnits: return "no-units";
    case ViolationCode::kEmptyUnitMask: return "empty-unit-mask";
    case ViolationCode::kOverlappingUnits: return "overlapping-units";
    case ViolationCode::kInvalidUnitLocation: return "invalid-unit-location";
    case ViolationCode::kNegativeUnitRate: return "negative-unit-rate";
    case ViolationCode::kChildOutOfRange: return "child-out-of-range";
    case ViolationCode::kChildOrder: return "child-order";
    case ViolationCode::kInputConsumedTwice: return "input-consumed-twice";
    case ViolationCode::kOrphanOp: return "orphan-op";
    case ViolationCode::kOverlappingChildMasks:
      return "overlapping-child-masks";
    case ViolationCode::kOpMaskMismatch: return "op-mask-mismatch";
    case ViolationCode::kInvalidOpNode: return "invalid-op-node";
    case ViolationCode::kNonProcessingNode: return "non-processing-node";
    case ViolationCode::kRootNotCovering: return "root-not-covering";
    case ViolationCode::kDanglingUnits: return "dangling-units";
    case ViolationCode::kInvalidSink: return "invalid-sink";
    case ViolationCode::kSourceCoverageMismatch:
      return "source-coverage-mismatch";
    case ViolationCode::kUnitRateDrift: return "unit-rate-drift";
    case ViolationCode::kOpRateDrift: return "op-rate-drift";
    case ViolationCode::kPlannedCostMismatch: return "planned-cost-mismatch";
    case ViolationCode::kMarginalCostMismatch:
      return "marginal-cost-mismatch";
    case ViolationCode::kExcludedHost: return "excluded-host";
  }
  return "unknown";
}

std::vector<Violation> validate(const query::Deployment& d,
                                const opt::OptimizerEnv& env,
                                const ValidateOptions& opts) {
  Report report;
  if (d.units.empty()) {
    report.add(ViolationCode::kNoUnits, "deployment has no leaf units");
    return report.violations;
  }

  // --- Units -------------------------------------------------------------
  bool placements_ok = true;
  query::Mask all_units = 0;
  for (std::size_t u = 0; u < d.units.size(); ++u) {
    const query::LeafUnit& unit = d.units[u];
    if (unit.mask == 0) {
      report.add(ViolationCode::kEmptyUnitMask, "unit ", u, " has mask 0");
    }
    if ((all_units & unit.mask) != 0) {
      report.add(ViolationCode::kOverlappingUnits, "unit ", u,
                 " overlaps earlier units");
    }
    all_units |= unit.mask;
    if (!node_exists(env, unit.location)) {
      report.add(ViolationCode::kInvalidUnitLocation, "unit ", u, " at node ",
                 unit.location);
      placements_ok = false;
    }
    if (unit.bytes_rate < 0.0 || unit.tuple_rate < 0.0) {
      report.add(ViolationCode::kNegativeUnitRate, "unit ", u, " rates ",
                 unit.bytes_rate, " B/s, ", unit.tuple_rate, " t/s");
    }
  }

  // --- Operators: encoding, order, consumption, masks, placement ---------
  // consumed[slot] counts uses of units (first) and ops (after).
  std::vector<int> consumed(d.units.size() + d.ops.size(), 0);
  bool structure_ok = true;
  for (std::size_t i = 0; i < d.ops.size(); ++i) {
    const query::DeployedOp& op = d.ops[i];
    bool children_ok = true;
    query::Mask combined = 0;
    bool combined_known = true;
    for (int child : {op.left, op.right}) {
      if (query::child_is_unit(child)) {
        const auto idx = static_cast<std::size_t>(query::child_unit_index(child));
        if (idx >= d.units.size()) {
          report.add(ViolationCode::kChildOutOfRange, "op ", i, " unit child ",
                     idx, " of ", d.units.size());
          children_ok = false;
          continue;
        }
        consumed[idx] += 1;
      } else {
        const auto idx = static_cast<std::size_t>(child);
        if (idx >= d.ops.size()) {
          report.add(ViolationCode::kChildOutOfRange, "op ", i, " op child ",
                     idx, " of ", d.ops.size());
          children_ok = false;
          continue;
        }
        if (idx >= i) {
          report.add(ViolationCode::kChildOrder, "op ", i,
                     " consumes later op ", idx,
                     " (children must precede parents)");
          children_ok = false;
          continue;
        }
        consumed[d.units.size() + idx] += 1;
      }
      const query::Mask cm = query::child_mask(d, child);
      if ((combined & cm) != 0) {
        report.add(ViolationCode::kOverlappingChildMasks, "op ", i,
                   " joins inputs sharing sources");
      }
      combined |= cm;
    }
    if (!children_ok) {
      structure_ok = false;
      combined_known = false;
    }
    if (combined_known && combined != op.mask) {
      report.add(ViolationCode::kOpMaskMismatch, "op ", i, " mask ", op.mask,
                 " != child union ", combined);
    }
    if (!node_exists(env, op.node)) {
      report.add(ViolationCode::kInvalidOpNode, "op ", i, " at node ",
                 op.node);
      placements_ok = false;
    } else if (!env.processing_nodes.empty() &&
               !std::binary_search(env.processing_nodes.begin(),
                                   env.processing_nodes.end(), op.node)) {
      const auto is_processing = [&env](net::NodeId m) {
        return std::binary_search(env.processing_nodes.begin(),
                                  env.processing_nodes.end(), m);
      };
      if (opts.op_scopes != nullptr && i < opts.op_scopes->size()) {
        // Recorded scope: the fallback is exact — a non-processing node is
        // legal only inside a scope holding no processing node at all.
        const std::vector<net::NodeId>& scope = (*opts.op_scopes)[i];
        const bool in_scope =
            std::find(scope.begin(), scope.end(), op.node) != scope.end();
        const bool scope_has_processing =
            std::any_of(scope.begin(), scope.end(), is_processing);
        if (!in_scope || scope_has_processing) {
          report.add(ViolationCode::kNonProcessingNode, "op ", i,
                     " on non-processing node ", op.node,
                     in_scope ? " though its recorded scope holds a"
                                " processing node"
                              : " outside its recorded scope");
        }
      } else if (!fallback_excuses(env, op.node)) {
        report.add(ViolationCode::kNonProcessingNode, "op ", i,
                   " on non-processing node ", op.node,
                   " with no processing-free scope containing it");
      }
    }
    if (!env.excluded_sites.empty() &&
        std::binary_search(env.excluded_sites.begin(),
                           env.excluded_sites.end(), op.node)) {
      const auto is_excluded = [&env](net::NodeId m) {
        return std::binary_search(env.excluded_sites.begin(),
                                  env.excluded_sites.end(), m);
      };
      if (opts.op_scopes != nullptr && i < opts.op_scopes->size()) {
        const std::vector<net::NodeId>& scope = (*opts.op_scopes)[i];
        const bool in_scope =
            std::find(scope.begin(), scope.end(), op.node) != scope.end();
        const bool scope_has_open =
            std::any_of(scope.begin(), scope.end(),
                        [&](net::NodeId m) { return !is_excluded(m); });
        if (!in_scope || scope_has_open) {
          report.add(ViolationCode::kExcludedHost, "op ", i,
                     " on excluded site ", op.node,
                     in_scope ? " though its recorded scope holds an"
                                " open node"
                              : " outside its recorded scope");
        }
      } else if (!exclusion_excuses(env, op.node)) {
        report.add(ViolationCode::kExcludedHost, "op ", i,
                   " on excluded site ", op.node,
                   " with no fully-excluded scope containing it");
      }
    }
  }
  for (std::size_t slot = 0; slot < consumed.size(); ++slot) {
    if (consumed[slot] > 1) {
      const bool is_unit = slot < d.units.size();
      report.add(ViolationCode::kInputConsumedTwice,
                 is_unit ? "unit " : "op ",
                 is_unit ? slot : slot - d.units.size(), " consumed ",
                 consumed[slot], " times");
    }
  }
  // Every op except the root (last) must feed exactly one parent.
  for (std::size_t i = 0; i + 1 < d.ops.size(); ++i) {
    if (consumed[d.units.size() + i] == 0) {
      report.add(ViolationCode::kOrphanOp, "op ", i,
                 " is consumed by nobody and is not the root");
    }
  }

  // --- Excluded hosts ------------------------------------------------------
  // A failed or load-shed host may keep forwarding, sourcing and sinking,
  // but it must not run operators: every join op and every derived-unit
  // binding (a subscription to a provider operator executing there) on an
  // excluded host is a violation. Base units are source taps, and the sink
  // is not an operator — both stay legal on excluded hosts.
  if (opts.excluded_hosts != nullptr && !opts.excluded_hosts->empty()) {
    const auto excluded = [&opts](net::NodeId n) {
      return std::find(opts.excluded_hosts->begin(),
                       opts.excluded_hosts->end(),
                       n) != opts.excluded_hosts->end();
    };
    for (std::size_t i = 0; i < d.ops.size(); ++i) {
      if (excluded(d.ops[i].node)) {
        report.add(ViolationCode::kExcludedHost, "op ", i,
                   " on excluded host ", d.ops[i].node);
      }
    }
    for (std::size_t u = 0; u < d.units.size(); ++u) {
      if (d.units[u].derived && excluded(d.units[u].location)) {
        report.add(ViolationCode::kExcludedHost, "derived unit ", u,
                   " bound to a provider on excluded host ",
                   d.units[u].location);
      }
    }
  }

  // --- Root coverage and sink ---------------------------------------------
  if (d.ops.empty()) {
    if (d.units.size() > 1) {
      report.add(ViolationCode::kDanglingUnits, d.units.size(),
                 " units but no join op connecting them");
      structure_ok = false;
    }
  } else if (d.ops.back().mask != all_units) {
    report.add(ViolationCode::kRootNotCovering, "root mask ",
               d.ops.back().mask, " != union of unit masks ", all_units);
    structure_ok = false;
  }
  if (!node_exists(env, d.sink)) {
    report.add(ViolationCode::kInvalidSink, "sink node ", d.sink);
    placements_ok = false;
  }

  // --- Semantic checks against the query and its RateModel ----------------
  if (opts.query != nullptr && env.catalog != nullptr) {
    const query::Query& q = *opts.query;
    const query::Mask full = query::full_mask(q.k());
    if (all_units != full) {
      report.add(ViolationCode::kSourceCoverageMismatch, "unit masks cover ",
                 all_units, " but the query's source set is ", full);
    }
    const query::RateModel rates(*env.catalog, q, env.projection_factor);
    const auto in_model = [&rates, full](query::Mask m) {
      return m != 0 && (m & ~full) == 0;
    };
    for (std::size_t u = 0; u < d.units.size(); ++u) {
      const query::LeafUnit& unit = d.units[u];
      if (!in_model(unit.mask)) continue;  // already reported above
      if (!close(unit.bytes_rate, rates.bytes_rate(unit.mask)) ||
          !close(unit.tuple_rate, rates.tuple_rate(unit.mask))) {
        report.add(ViolationCode::kUnitRateDrift, "unit ", u, " records ",
                   unit.bytes_rate, " B/s but the model gives ",
                   rates.bytes_rate(unit.mask));
      }
    }
    for (std::size_t i = 0; i < d.ops.size(); ++i) {
      const query::DeployedOp& op = d.ops[i];
      if (!in_model(op.mask)) continue;
      if (!close(op.out_bytes_rate, rates.bytes_rate(op.mask)) ||
          !close(op.out_tuple_rate, rates.tuple_rate(op.mask))) {
        report.add(ViolationCode::kOpRateDrift, "op ", i, " records ",
                   op.out_bytes_rate, " B/s out but the model gives ",
                   rates.bytes_rate(op.mask));
      }
    }
  }

  // --- Cost re-evaluation --------------------------------------------------
  // Only meaningful once the structure and placements are sound; anything
  // else would index out of bounds or feed kInvalidNode into the tables.
  if (env.routing != nullptr && structure_ok && placements_ok) {
    const net::RoutingTables& rt = *env.routing;
    const double evaluated = query::deployment_cost(d, rt);
    if (opts.planned_cost >= 0.0 &&
        !close(opts.planned_cost, evaluated)) {
      report.add(ViolationCode::kPlannedCostMismatch, "planned cost ",
                 opts.planned_cost, " vs re-evaluated ", evaluated);
    }
    // Independent marginal re-sum from the RateModel: every edge is charged
    // the model rate of the stream crossing it, and a reused derived unit is
    // charged only its provider→consumer edge (its upstream cost belongs to
    // the query that deployed it).
    if (opts.query != nullptr && env.catalog != nullptr) {
      const query::Query& q = *opts.query;
      const query::Mask full = query::full_mask(q.k());
      if (all_units == full) {
        const query::RateModel rates(*env.catalog, q, env.projection_factor);
        double marginal = 0.0;
        for (const query::DeployedOp& op : d.ops) {
          for (int child : {op.left, op.right}) {
            marginal += rates.bytes_rate(query::child_mask(d, child)) *
                        rt.cost(query::child_location(d, child), op.node);
          }
        }
        double delivered = rates.bytes_rate(full);
        if (d.aggregate.enabled()) {
          delivered = std::min(rates.tuple_rate(full),
                               d.aggregate.out_tuple_rate()) *
                      d.aggregate.out_width;
        }
        marginal += delivered * rt.cost(d.root_node(), d.sink);
        if (!close(marginal, evaluated)) {
          report.add(ViolationCode::kMarginalCostMismatch,
                     "deployment_cost() gives ", evaluated,
                     " but the model-based marginal re-sum gives ", marginal);
        }
      }
    }
  }
  return report.violations;
}

bool has_violation(const std::vector<Violation>& violations,
                   ViolationCode code) {
  return std::any_of(violations.begin(), violations.end(),
                     [code](const Violation& v) { return v.code == code; });
}

std::string describe(const std::vector<Violation>& violations) {
  std::ostringstream os;
  for (const Violation& v : violations) {
    os << '[' << to_string(v.code) << "] " << v.detail << '\n';
  }
  return os.str();
}

void check_result(const opt::OptimizeResult& res, const opt::OptimizerEnv& env,
                  const query::Query& q) {
  if (!res.feasible) return;
  ValidateOptions opts;
  opts.query = &q;
  opts.planned_cost = res.planned_cost;
  if (!res.op_scopes.empty()) opts.op_scopes = &res.op_scopes;
  const std::vector<Violation> violations =
      validate(res.deployment, env, opts);
  IFLOW_CHECK_MSG(violations.empty(),
                  "optimizer produced an invalid deployment for query '"
                      << q.name << "':\n"
                      << describe(violations));
}

}  // namespace iflow::verify
