#include "engine/admission.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace iflow::engine {

namespace {

/// Small relative tolerance so repeated signed float updates never flip an
/// exactly-at-capacity plan into a rejection.
constexpr double kSlack = 1e-9;

std::string format_rate(double bytes_per_s) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", bytes_per_s);
  return std::string(buf);
}

void add_sorted(std::vector<std::pair<net::NodeId, double>>& acc,
                net::NodeId key, double value) {
  for (auto& kv : acc) {
    if (kv.first == key) {
      kv.second += value;
      return;
    }
  }
  acc.emplace_back(key, value);
}

}  // namespace

const char* to_string(AdmissionDecision d) {
  switch (d) {
    case AdmissionDecision::kAdmit: return "admit";
    case AdmissionDecision::kAdmitDegraded: return "admit-degraded";
    case AdmissionDecision::kReject: return "reject";
  }
  return "unknown";
}

DeploymentFootprint footprint(const query::Deployment& d,
                              const query::RateModel& rates) {
  DeploymentFootprint fp;
  // Charge every operator input onto its hosting node (the node-load
  // metric). Matches Middleware::node_loads() pricing: live RateModel, not
  // the plan-time snapshot.
  for (const query::DeployedOp& op : d.ops) {
    for (int child : {op.left, op.right}) {
      const double bytes = rates.bytes_rate(query::child_mask(d, child));
      add_sorted(fp.node_bytes, op.node, bytes);
      fp.total_input_bytes += bytes;
    }
  }
  std::sort(fp.node_bytes.begin(), fp.node_bytes.end());
  return fp;
}

void ResourceLedger::reset(std::size_t node_count) {
  node_load_.assign(node_count, 0.0);
  tenant_bytes_.clear();
  tenant_queries_.clear();
  total_bytes_ = 0.0;
}

void ResourceLedger::apply(const DeploymentFootprint& fp, std::uint32_t tenant,
                           int sign) {
  IFLOW_CHECK(sign == 1 || sign == -1);
  for (const auto& [node, bytes] : fp.node_bytes) {
    IFLOW_CHECK(static_cast<std::size_t>(node) < node_load_.size());
    node_load_[node] += sign * bytes;
    if (sign < 0 && node_load_[node] < 0.0) node_load_[node] = 0.0;
  }
  tenant_bytes_[tenant] += sign * fp.total_input_bytes;
  if (tenant_bytes_[tenant] < 0.0) tenant_bytes_[tenant] = 0.0;
  total_bytes_ += sign * fp.total_input_bytes;
  if (total_bytes_ < 0.0) total_bytes_ = 0.0;
}

void ResourceLedger::count_query(std::uint32_t tenant, int sign) {
  IFLOW_CHECK(sign == 1 || sign == -1);
  std::size_t& n = tenant_queries_[tenant];
  if (sign > 0) {
    ++n;
  } else {
    IFLOW_CHECK(n > 0);
    --n;
  }
}

double ResourceLedger::tenant_bytes(std::uint32_t tenant) const {
  const auto it = tenant_bytes_.find(tenant);
  return it == tenant_bytes_.end() ? 0.0 : it->second;
}

std::size_t ResourceLedger::tenant_queries(std::uint32_t tenant) const {
  const auto it = tenant_queries_.find(tenant);
  return it == tenant_queries_.end() ? 0 : it->second;
}

double fair_share(const std::map<std::uint32_t, double>& demands,
                  const std::map<std::uint32_t, TenantQuota>& quotas,
                  double budget, std::uint32_t tenant) {
  const auto weight_of = [&](std::uint32_t t) {
    const auto it = quotas.find(t);
    return it == quotas.end() ? 1.0 : it->second.weight;
  };
  // Water-filling: repeatedly grant every tenant its weighted slice of the
  // remaining budget; tenants demanding less than their slice are satisfied
  // exactly and donate the surplus. Terminates because each round either
  // satisfies a tenant or stops. Iteration order over std::map is
  // deterministic (tenant id ascending).
  std::map<std::uint32_t, double> remaining_demand = demands;
  std::map<std::uint32_t, double> granted;
  double remaining = budget;
  bool progress = true;
  while (progress && !remaining_demand.empty() && remaining > 0.0) {
    progress = false;
    double weight_sum = 0.0;
    for (const auto& [t, d] : remaining_demand) weight_sum += weight_of(t);
    if (weight_sum <= 0.0) break;
    for (auto it = remaining_demand.begin(); it != remaining_demand.end();) {
      const double slice = remaining * weight_of(it->first) / weight_sum;
      if (it->second <= slice * (1.0 + kSlack)) {
        granted[it->first] = it->second;
        remaining -= it->second;
        it = remaining_demand.erase(it);
        progress = true;
      } else {
        ++it;
      }
    }
  }
  // Unsatisfied tenants split what is left by weight.
  double weight_sum = 0.0;
  for (const auto& [t, d] : remaining_demand) weight_sum += weight_of(t);
  for (const auto& [t, d] : remaining_demand) {
    granted[t] = weight_sum > 0.0
                     ? std::max(0.0, remaining) * weight_of(t) / weight_sum
                     : 0.0;
  }
  const auto it = granted.find(tenant);
  return it == granted.end() ? 0.0 : it->second;
}

void AdmissionController::set_quota(std::uint32_t tenant,
                                    const TenantQuota& quota) {
  IFLOW_CHECK(quota.weight > 0.0);
  IFLOW_CHECK(quota.max_input_bytes_per_s >= 0.0);
  quotas_[tenant] = quota;
}

const TenantQuota& AdmissionController::quota(std::uint32_t tenant) const {
  const auto it = quotas_.find(tenant);
  return it == quotas_.end() ? default_quota_ : it->second;
}

AdmissionVerdict AdmissionController::precheck(
    std::uint32_t tenant, const ResourceLedger& ledger) const {
  AdmissionVerdict v;
  const TenantQuota& q = quota(tenant);
  if (ledger.tenant_queries(tenant) >= q.max_queries) {
    v.decision = AdmissionDecision::kReject;
    v.reason = "tenant " + std::to_string(tenant) + " at query quota (" +
               std::to_string(q.max_queries) + ")";
  }
  return v;
}

AdmissionVerdict AdmissionController::price(const DeploymentFootprint& fp,
                                            std::uint32_t tenant,
                                            const ResourceLedger& ledger,
                                            bool degraded) const {
  AdmissionVerdict v;
  // Per-node input-byte headroom. fp.node_bytes is sorted by node, so the
  // saturated set comes out sorted too.
  if (config_.node_capacity > 0.0) {
    const std::vector<double>& load = ledger.node_load();
    for (const auto& [node, bytes] : fp.node_bytes) {
      const double after = load[node] + bytes;
      if (after > config_.node_capacity * (1.0 + kSlack)) {
        v.saturated_nodes.push_back(node);
        v.worst_node_overload = std::max(
            v.worst_node_overload, after - config_.node_capacity);
      }
    }
  }

  const TenantQuota& q = quota(tenant);
  const double tenant_after = ledger.tenant_bytes(tenant) +
                              fp.total_input_bytes;
  if (tenant_after > q.max_input_bytes_per_s * (1.0 + kSlack)) {
    v.decision = AdmissionDecision::kReject;
    v.reason = "tenant " + std::to_string(tenant) + " byte quota: " +
               format_rate(tenant_after) + " B/s demanded > " +
               format_rate(q.max_input_bytes_per_s) + " B/s allowed";
    return v;
  }
  // Weighted max-min fairness, only when the cluster is actually contended:
  // uncontended clusters admit everything the capacities allow.
  if (config_.node_capacity > 0.0 && !ledger.node_load().empty()) {
    const double budget =
        config_.node_capacity * static_cast<double>(ledger.node_load().size());
    const double total_after = ledger.total_bytes() + fp.total_input_bytes;
    if (total_after > budget * (1.0 + kSlack)) {
      std::map<std::uint32_t, double> demands = ledger.tenant_usage();
      demands[tenant] += fp.total_input_bytes;
      const double share = fair_share(demands, quotas_, budget, tenant);
      if (tenant_after > share * (1.0 + kSlack)) {
        v.decision = AdmissionDecision::kReject;
        v.reason = "fairness: tenant " + std::to_string(tenant) +
                   " would hold " + format_rate(tenant_after) +
                   " B/s > fair share " + format_rate(share) +
                   " B/s of contended budget " + format_rate(budget) + " B/s";
        return v;
      }
    }
  }
  if (!v.saturated_nodes.empty()) {
    v.decision = AdmissionDecision::kReject;
    v.reason = "capacity: node overload " +
               format_rate(v.worst_node_overload) + " B/s above " +
               format_rate(config_.node_capacity) + " B/s across " +
               std::to_string(v.saturated_nodes.size()) + " saturated node(s)";
    return v;
  }
  v.decision = degraded ? AdmissionDecision::kAdmitDegraded
                        : AdmissionDecision::kAdmit;
  return v;
}

}  // namespace iflow::engine
