// Admission control for the multi-tenant churn plane (DESIGN.md §14).
//
// The middleware's load story used to be reactive only: deploy whatever the
// optimizer returns, notice overload later, shed via rebalance_load(). Under
// continuous registration churn that is not robust — a flash crowd from one
// tenant can saturate nodes and links before any rebalance runs. Following
// Benoit et al. ("Resource Allocation for Multiple Concurrent In-Network
// Stream-Processing Applications", PAPERS.md), every incoming deployment is
// instead *priced* against explicit capacities before it is accepted:
//
//   * per-node input-byte capacity (same metric as Middleware::node_loads:
//     the summed byte rate of every operator input edge hosted by a node);
//   * per-link bandwidth headroom (each data edge of a plan is charged along
//     its current cost-optimal route against Link::bandwidth_bps scaled by
//     a utilization cap);
//   * per-tenant quotas (concurrent query count, total input bytes/s) and
//     weighted max-min fairness: when the cluster is contended, a tenant
//     already holding more than its water-filled fair share is rejected
//     rather than allowed to starve the rest.
//
// Verdicts are admit / admit-degraded (a second planning pass around the
// saturated nodes produced a plan that fits the remaining headroom) /
// reject (Outcome::kRejected with a priced reason string).
//
// The ResourceLedger is the incremental accounting structure behind all of
// this: deploy/undeploy/migrate apply a deployment's footprint with a sign
// instead of re-pricing every active from scratch (the old node_loads()
// behavior, now a Debug cross-check).
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "net/network.h"
#include "net/routing.h"
#include "query/plan.h"
#include "query/rates.h"

namespace iflow::engine {

/// Per-tenant admission limits. Defaults are unlimited: single-tenant
/// workloads and tests that never touch quotas see no behavior change.
struct TenantQuota {
  /// Max-min fairness weight (> 0). A tenant with weight 2 is entitled to
  /// twice the contended-cluster share of a weight-1 tenant.
  double weight = 1.0;
  /// Hard cap on concurrently active+suspended queries.
  std::size_t max_queries = std::numeric_limits<std::size_t>::max();
  /// Hard cap on the tenant's summed operator-input byte rate.
  double max_input_bytes_per_s = std::numeric_limits<double>::infinity();
};

struct AdmissionConfig {
  /// Per-node capacity: the total operator input byte rate a node may
  /// host, also the budget Middleware::rebalance_load() sheds against.
  /// <= 0 = unlimited.
  double node_capacity = 0.0;
  /// Fraction of each link's bandwidth (bandwidth_bps / 8, i.e. bytes/s)
  /// admission may fill. <= 0 = link capacity not enforced (default:
  /// stub-topology bandwidths model serialization delay, not admission
  /// budgets, so link pricing is opt-in). Links with bandwidth_bps <= 0
  /// are treated as uncapacitated.
  double link_utilization_cap = 0.0;
};

enum class AdmissionDecision : std::uint8_t {
  kAdmit,
  kAdmitDegraded,  // fits only after replanning around saturated hosts
  kReject,
};

const char* to_string(AdmissionDecision d);

/// Priced admission verdict. On rejection `reason` names the binding
/// constraint and by how much it would be violated (bytes/s).
struct AdmissionVerdict {
  AdmissionDecision decision = AdmissionDecision::kAdmit;
  std::string reason;
  /// Nodes this plan would push over capacity (sorted). A degraded replan
  /// excludes exactly these.
  std::vector<net::NodeId> saturated_nodes;
  double worst_node_overload = 0.0;  // bytes/s above node capacity
  double worst_link_overload = 0.0;  // bytes/s above link headroom
};

/// Resource demand of one deployment: per-node operator-input bytes, per-link
/// transit bytes along current cost-optimal routes, and the total input byte
/// rate (the tenant-usage metric). Node demand deliberately matches the
/// legacy Middleware::node_loads() pricing (live RateModel, input edges of
/// every op) so the incremental ledger can be cross-checked against it.
struct DeploymentFootprint {
  std::vector<std::pair<net::NodeId, double>> node_bytes;  // sorted by node
  std::vector<std::pair<std::uint32_t, double>> link_bytes;  // sorted by link
  double total_input_bytes = 0.0;
};

DeploymentFootprint footprint(const query::Deployment& d,
                              const query::RateModel& rates,
                              const net::RoutingTables& rt,
                              const net::Network& net);

/// Incremental per-node / per-link / per-tenant load accounting. All updates
/// are signed footprint applications; the from-scratch recompute only runs
/// as a Debug consistency CHECK.
class ResourceLedger {
 public:
  void reset(std::size_t node_count, std::size_t link_count);

  /// Applies (sign=+1) or retracts (sign=-1) a deployment's footprint,
  /// charged to `tenant`.
  void apply(const DeploymentFootprint& fp, std::uint32_t tenant, int sign);

  /// Registers / unregisters a query slot for `tenant` (admitted queries,
  /// including suspended ones that still hold their slot).
  void count_query(std::uint32_t tenant, int sign);

  const std::vector<double>& node_load() const { return node_load_; }
  const std::vector<double>& link_load() const { return link_load_; }

  double tenant_bytes(std::uint32_t tenant) const;
  std::size_t tenant_queries(std::uint32_t tenant) const;
  double total_bytes() const { return total_bytes_; }

  /// Deterministic (tenant-ordered) view for fairness water-filling.
  const std::map<std::uint32_t, double>& tenant_usage() const {
    return tenant_bytes_;
  }

 private:
  std::vector<double> node_load_;
  std::vector<double> link_load_;
  std::map<std::uint32_t, double> tenant_bytes_;
  std::map<std::uint32_t, std::size_t> tenant_queries_;
  double total_bytes_ = 0.0;
};

/// Weighted max-min (water-filling) fair share of a cluster-wide byte budget
/// among tenants with the given demands and weights. Returns the share for
/// `tenant`. Demands are what each tenant would use unconstrained; tenants
/// demanding less than their entitlement donate the surplus to the rest.
double fair_share(const std::map<std::uint32_t, double>& demands,
                  const std::map<std::uint32_t, TenantQuota>& quotas,
                  double budget, std::uint32_t tenant);

/// Stateless admission policy: prices candidate plans against a ledger.
class AdmissionController {
 public:
  void set_config(const AdmissionConfig& cfg) { config_ = cfg; }
  const AdmissionConfig& config() const { return config_; }

  void set_quota(std::uint32_t tenant, const TenantQuota& quota);
  const TenantQuota& quota(std::uint32_t tenant) const;
  const std::map<std::uint32_t, TenantQuota>& quotas() const {
    return quotas_;
  }

  /// Pre-plan gate: per-tenant query-count quota. Returns a kReject verdict
  /// or kAdmit when the tenant may proceed to planning.
  AdmissionVerdict precheck(std::uint32_t tenant,
                            const ResourceLedger& ledger) const;

  /// Prices a candidate plan's footprint against the ledger's headroom,
  /// the tenant's byte quota, and (under contention) the tenant's weighted
  /// max-min fair share. `degraded` marks this as the second (host-excluded)
  /// planning attempt: a fitting plan is then reported kAdmitDegraded.
  AdmissionVerdict price(const DeploymentFootprint& fp, std::uint32_t tenant,
                         const ResourceLedger& ledger, const net::Network& net,
                         bool degraded) const;

 private:
  AdmissionConfig config_;
  std::map<std::uint32_t, TenantQuota> quotas_;
  TenantQuota default_quota_;
};

}  // namespace iflow::engine
