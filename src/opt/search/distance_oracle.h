// Concrete distance oracles for the joint plan+placement search.
//
// Every search in the library measures distances one of four ways: actual
// routing costs (exhaustive search, phased baselines, Bottom-Up level 1),
// Theorem-1 level-l estimates (per-cluster Top-Down / Bottom-Up steps),
// cost-space coordinates (Pietzuch-style relaxation), or the tiered
// SparseOracle (the scale path: exact-on-demand inside leaf clusters,
// Theorem-1 across them). A DistanceOracle is a small tagged value naming
// one of those sources, cheap to copy and to call — a switch on the tag
// instead of the type-erased std::function the old planner paid on every
// lookup. The planner calls it only while materializing dense unit×site /
// site×site matrices once per invocation; the DP hot loops read flat
// arrays.
//
// Staleness: each factory stamps the oracle with the source's version
// (RoutingTables::built_against(), Hierarchy::version(), SparseOracle
// stamp). In Debug every query re-checks the live version against the
// stamp, so a snapshot that outlived a routing rebuild fails loudly instead
// of reading a stale (or freed) table — the bug class PR 5 hit when
// loss/jitter events triggered rebuilds mid-plan.
//
// All four sources are (pseudo-)metrics: actual shortest-path costs and
// Theorem-1 estimates satisfy the triangle inequality, the cost space is
// Euclidean, and the sparse tiers are max(exact, bounded over-estimates).
#pragma once

#include "cluster/hierarchy.h"
#include "net/routing.h"
#include "opt/cost_space.h"
#include "opt/search/sparse_oracle.h"

namespace iflow::opt {

class DistanceOracle {
 public:
  /// Invalid until assigned from a factory; the planner rejects it.
  DistanceOracle() = default;

  /// Actual per-byte routing costs.
  static DistanceOracle routing(const net::RoutingTables& rt) {
    DistanceOracle o;
    o.kind_ = Kind::kRouting;
    o.routing_ = &rt;
    o.stamp_ = rt.built_against();
    return o;
  }

  /// Theorem-1 level-`level` estimate: the actual cost between the nodes'
  /// level-`level` representatives.
  static DistanceOracle hierarchy(const cluster::Hierarchy& h, int level) {
    DistanceOracle o;
    o.kind_ = Kind::kHierarchy;
    o.hierarchy_ = &h;
    o.level_ = level;
    o.stamp_ = h.version();
    return o;
  }

  /// Euclidean distance between embedded coordinates.
  static DistanceOracle cost_space(const CostSpace& space) {
    DistanceOracle o;
    o.kind_ = Kind::kCostSpace;
    o.space_ = &space;
    return o;
  }

  /// Tiered sparse estimates (see sparse_oracle.h).
  static DistanceOracle sparse(const SparseOracle& so) {
    DistanceOracle o;
    o.kind_ = Kind::kSparse;
    o.sparse_ = &so;
    o.stamp_ = so.stamp();
    return o;
  }

  /// Returns a copy whose distances are inflated by the per-node health
  /// penalty of both endpoints: d'(a, b) = d(a, b) · pen[a] · pen[b], with
  /// pen indexed by NodeId and every entry >= 1 (healthy nodes carry 1).
  /// This is the health plane's pricing hook: a suspect node's adjacencies
  /// look expensive to every search, so placements steer around sick-but-
  /// alive elements without any routing change. The vector is non-owning
  /// and must outlive the oracle; null or empty is a no-op.
  DistanceOracle with_node_penalty(const std::vector<double>* penalty) const {
    DistanceOracle o = *this;
    o.penalty_ = (penalty != nullptr && !penalty->empty()) ? penalty : nullptr;
    return o;
  }

  bool valid() const { return kind_ != Kind::kInvalid; }

  double operator()(net::NodeId a, net::NodeId b) const {
    const double d = raw(a, b);
    return penalty_ == nullptr ? d : d * (*penalty_)[a] * (*penalty_)[b];
  }

  /// Bulk row read: out[i] = (*this)(src, dst[i]). Routing oracles pin the
  /// source row once (one lock + one potential Dijkstra on the sparse
  /// routing tier) and hierarchy oracles resolve the source's
  /// representative once (Hierarchy::fill_est_costs) instead of paying
  /// per-entry; the planner materializes its per-source matrix rows through
  /// this.
  void fill_from(net::NodeId src, const net::NodeId* dst, std::size_t count,
                 double* out) const {
    if (kind_ == Kind::kRouting) {
      IFLOW_DCHECK(routing_->built_against() == stamp_);
      routing_->fill_costs(src, dst, count, out);
    } else if (kind_ == Kind::kHierarchy) {
      IFLOW_DCHECK(hierarchy_->version() == stamp_);
      hierarchy_->fill_est_costs(src, dst, count, level_, out);
    } else {
      for (std::size_t i = 0; i < count; ++i) out[i] = raw(src, dst[i]);
    }
    if (penalty_ != nullptr) {
      const double ps = (*penalty_)[src];
      for (std::size_t i = 0; i < count; ++i) out[i] *= ps * (*penalty_)[dst[i]];
    }
  }

 private:
  double raw(net::NodeId a, net::NodeId b) const {
    switch (kind_) {
      case Kind::kRouting:
        IFLOW_DCHECK(routing_->built_against() == stamp_);
        return routing_->cost(a, b);
      case Kind::kHierarchy:
        IFLOW_DCHECK(hierarchy_->version() == stamp_);
        return hierarchy_->est_cost(a, b, level_);
      case Kind::kCostSpace:
        return CostSpace::distance(space_->position(a), space_->position(b));
      case Kind::kSparse:
        IFLOW_DCHECK(sparse_->stamp() == stamp_);
        return sparse_->distance(a, b);
      case Kind::kInvalid:
        break;
    }
    detail::check_failed("valid()", __FILE__, __LINE__,
                         "distance query on an invalid DistanceOracle");
  }

  enum class Kind : std::uint8_t {
    kInvalid,
    kRouting,
    kHierarchy,
    kCostSpace,
    kSparse
  };

  Kind kind_ = Kind::kInvalid;
  const net::RoutingTables* routing_ = nullptr;
  const cluster::Hierarchy* hierarchy_ = nullptr;
  const CostSpace* space_ = nullptr;
  const SparseOracle* sparse_ = nullptr;
  /// Health-plane pricing penalty (see with_node_penalty); null = none.
  const std::vector<double>* penalty_ = nullptr;
  std::uint64_t stamp_ = 0;
  int level_ = 0;
};

}  // namespace iflow::opt
