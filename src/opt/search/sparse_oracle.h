// Hierarchy-native sparse distance oracle (the scale-path distance source).
//
// The dense planner answers every distance query from an O(N²) all-pairs
// matrix. At 10k–100k nodes that matrix does not fit, but the paper's own
// Theorem 1 says the hierarchy already *is* an approximate distance oracle:
// the cost between two nodes' level-l representatives is within
// sum_{i<l} 2·d(i) of the true cost. SparseOracle packages that as a tiered
// lookup:
//
//   tier 0 — identity:        a == b                      → 0, slack 0
//   tier 1 — same leaf:       exact local distances on the cluster's induced
//            subgraph (full matrix for small leaves, landmark/pivot sketch
//            min_p d(a,p)+d(p,b) for large ones)          → slack d(1)/2·d(1)
//   tier 2 — cross-cluster:   Theorem-1 estimate at the lowest level l where
//            the two representatives share a cluster, read from the
//            hierarchy's coordinator matrix           → slack Σ_{i<l} 2·d(i)
//
// Memory is O(leaves · max_cs · pivots) for the sketches plus whatever
// routing rows the sparse RoutingTables keeps resident — O(N·landmarks +
// frontier) — and the hierarchy's leaves² coordinator matrix; never the
// O(N²) all-pairs tables. Every estimate is an over-approximation or a
// Theorem-1 bound, so |estimate − exact| <= slack(a, b) holds in both
// directions; `validate_pair` CHECKs that against the exact tables (tests
// and the differential fuzzer run it; release queries never pay for it).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "cluster/hierarchy.h"
#include "net/network.h"
#include "net/routing.h"

namespace iflow::opt {

struct SparseOracleOptions {
  /// Landmarks kept per leaf cluster when the full induced matrix would be
  /// bigger than pivots × members (the coordinator is always one of them).
  std::size_t pivots_per_cluster = 4;
  /// Answer same-leaf queries from the exact routing tables (slack 0)
  /// instead of induced-subgraph sketches. Costs one routing row per
  /// queried source; useful for small deployments that want sparse memory
  /// but exact leaves.
  bool exact_leaves = false;
};

/// A distance estimate together with its a-priori error bound:
/// |value − exact| <= slack.
struct SparseEstimate {
  double value = 0.0;
  double slack = 0.0;
};

/// See file comment. Thread-safe: leaf sketches are built lazily under an
/// internal mutex; all queries are const. The referenced network, routing
/// tables, and hierarchy must outlive the oracle; after any of them change,
/// call refresh() (queries IFLOW_DCHECK against stale use in Debug).
class SparseOracle {
 public:
  SparseOracle(const net::Network& net, const net::RoutingTables& rt,
               const cluster::Hierarchy& h, SparseOracleOptions opts = {});
  ~SparseOracle();
  SparseOracle(const SparseOracle&) = delete;
  SparseOracle& operator=(const SparseOracle&) = delete;

  /// Estimated traversal cost a → b. +inf when either node left the
  /// hierarchy (crashed hosts price themselves out, same contract as
  /// Hierarchy::est_cost).
  double distance(net::NodeId a, net::NodeId b) const;

  /// The bound on |distance(a,b) − exact(a,b)| for this pair's tier.
  double slack(net::NodeId a, net::NodeId b) const;

  /// Estimate and bound in one lookup (the tier walk is shared).
  SparseEstimate estimate(net::NodeId a, net::NodeId b) const;

  /// CHECKs |estimate − exact| <= slack + eps against the exact routing
  /// tables; infinite estimates must coincide with unreachability. Explicit
  /// validation hook for tests/fuzzers — O(one routing row), so callers
  /// choose when to pay for it.
  void validate_pair(net::NodeId a, net::NodeId b) const;

  /// Drops lazily built leaf sketches and re-stamps against the current
  /// routing/hierarchy versions. Call after RoutingTables::sync +
  /// Hierarchy::refresh.
  void refresh();

  /// Stamp combining the routing and hierarchy versions this oracle was
  /// built (or last refreshed) against; DistanceOracle records it.
  std::uint64_t stamp() const;

  /// Bytes held by resident leaf sketches (the routing rows are accounted
  /// by RoutingTables::memory_bytes).
  std::size_t memory_bytes() const;

  const net::RoutingTables& routing() const { return *rt_; }
  const cluster::Hierarchy& hierarchy() const { return *h_; }

 private:
  struct LeafSketch;
  const LeafSketch& sketch_locked(std::size_t cluster_index) const;

  const net::Network* net_;
  const net::RoutingTables* rt_;
  const cluster::Hierarchy* h_;
  SparseOracleOptions opts_;
  std::uint64_t built_rt_ = 0;  // rt_->built_against() at ctor/refresh
  std::uint64_t built_h_ = 0;   // h_->version() at ctor/refresh

  mutable std::mutex mu_;
  mutable std::unordered_map<std::size_t, std::unique_ptr<LeafSketch>>
      sketches_;
};

}  // namespace iflow::opt
