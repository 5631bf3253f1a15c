// Virtual hierarchical network partitions (paper §2.1.1).
//
// Physical nodes are clustered by traversal cost into Level-1 clusters of at
// most `max_cs` members; each cluster's medoid becomes its coordinator and is
// promoted to Level 2, where clustering repeats, until a single top-level
// cluster remains. The hierarchy provides:
//   * representative(n, l)  — the physical coordinator standing in for n at
//     level l (n itself at level 1);
//   * est_cost(a, b, l)     — the level-l cost approximation of Theorem 1;
//   * d(l)                  — max intra-cluster traversal cost at level l,
//     the dᵢ of Theorems 1 and 3;
//   * underlying(c, l)      — the physical nodes beneath a level-l node,
//     which is the planning domain the Top-Down algorithm recurses into.
//
// Every representative at level 2 and above is a Level-1 coordinator, so
// the hierarchy keeps one matrix of routing costs among the Level-1
// coordinators and answers est_cost and d(l) for l >= 2 from it, never
// from a routing row.
//
// The structure supports runtime node joins and departures following the
// paper's join protocol (walk down from the top, at each level descending
// into the closest child cluster).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/prng.h"
#include "net/network.h"
#include "net/routing.h"

namespace iflow::cluster {

/// One cluster at some hierarchy level. `members` are physical node ids
/// (at levels >= 2 they are coordinators promoted from below).
struct Cluster {
  std::vector<net::NodeId> members;
  net::NodeId coordinator = net::kInvalidNode;
};

/// Immutable-by-default multi-level clustering of a network; see file
/// comment. Heights and cluster contents are deterministic given the Prng.
class Hierarchy {
 public:
  /// Builds the full hierarchy bottom-up. `max_cs` >= 2.
  static Hierarchy build(const net::Network& net, const net::RoutingTables& rt,
                         int max_cs, Prng& prng);

  /// Scale-path construction: level-1 clusters come from caller-supplied
  /// disjoint physical partitions (e.g. GT-ITM stub domains) instead of a
  /// global k-medoids over the all-pairs matrix. Intra-partition metrics
  /// (coordinator election, splits of oversize partitions, d(1)) are
  /// computed on the induced subgraph of each partition — an upper bound on
  /// the true traversal cost, so the Theorem-1 slack stays sound — and the
  /// routing tables are only consulted for the costs among the promoted
  /// coordinators (the coordinator matrix). Partitions must be non-empty,
  /// disjoint, and cover node ids < net.node_count().
  static Hierarchy build_partitioned(
      const net::Network& net, const net::RoutingTables& rt,
      const std::vector<std::vector<net::NodeId>>& partitions, int max_cs,
      Prng& prng);

  /// Number of levels h; levels are numbered 1 (physical) .. h (single
  /// top-level cluster).
  int height() const { return static_cast<int>(levels_.size()); }

  int max_cs() const { return max_cs_; }

  /// Clusters at a level (1-based).
  const std::vector<Cluster>& level(int l) const;

  /// The node ids that participate at level l (all physical nodes at level
  /// 1; promoted coordinators above).
  std::vector<net::NodeId> nodes_at(int l) const;

  /// The physical coordinator representing `n` at level l. representative(n,
  /// 1) == n; at higher levels it is the coordinator chain.
  net::NodeId representative(net::NodeId n, int l) const;

  /// True when `n` currently participates in the hierarchy (false for ids
  /// never admitted or removed by remove_node — e.g. crashed nodes).
  bool contains(net::NodeId n) const;

  /// Index into level(l) of the cluster containing level-l node `member`.
  std::size_t cluster_of(net::NodeId member, int l) const;

  /// Maximum intra-cluster traversal cost dᵢ at level l (0 for singleton
  /// clusters).
  double d(int l) const;

  /// Level-l estimate of the traversal cost between physical nodes a and b:
  /// the actual cost between their level-l representatives. By Theorem 1,
  /// actual_cost(a,b) <= est_cost(a,b,l) + sum_{i<l} 2 d(i). Nodes that are
  /// not (or no longer) in the hierarchy estimate at +inf, so planners
  /// naturally price failed hosts out instead of tripping an assertion.
  /// Level 1 reads the routing tables; higher levels read the coordinator
  /// matrix (Debug CHECKs each read against the routing tables). A whole
  /// row is cheaper through fill_est_costs.
  double est_cost(net::NodeId a, net::NodeId b, int l) const;

  /// Bulk row read: out[i] = est_cost(a, b[i], l) for every i < count. It
  /// looks up a's level-l representative and runs the checks once, then
  /// gathers from one routing row (level 1, through
  /// RoutingTables::fill_costs) or one coordinator-matrix row (levels >= 2);
  /// a node outside the hierarchy reads +inf. The planner materializes its
  /// Theorem-1 distance matrices through this.
  void fill_est_costs(net::NodeId a, const net::NodeId* b, std::size_t count,
                      int l, double* out) const;

  /// Physical nodes in the subtree under level-l node `coord` (for l == 1,
  /// just {coord}).
  const std::vector<net::NodeId>& underlying(net::NodeId coord, int l) const;

  /// Runtime join (paper §2.1.1): the new node, already added to the
  /// network and routing tables, descends from the top level into the
  /// closest cluster at each level and lands in a Level-1 cluster. If that
  /// cluster would exceed max_cs it is split in two. Derived tables are
  /// refreshed.
  void add_node(net::NodeId n, const net::RoutingTables& rt, Prng& prng);

  /// Runtime departure: removes a physical node; if it coordinated any
  /// cluster a replacement is elected and the promotion chain repaired.
  void remove_node(net::NodeId n, const net::RoutingTables& rt);

  /// Recomputes the coordinator matrix and d(l) against the routing tables,
  /// to which the hierarchy keeps a non-owning pointer; `rt` must cover the
  /// hierarchy's node count (CHECKed), and the clusters, representatives
  /// and underlying sets stay as they are. Call it after every rebuild and
  /// after every sync() that can change a cost — any link or node fault or
  /// restore, cost change or added link: the matrix holds a copy of the
  /// costs. A quality-only sync (loss, jitter, degradation) changes no cost
  /// and keeps the hierarchy valid without a refresh. When `rt` is the
  /// table the matrix was computed from, the matrix is updated in place and
  /// RoutingTables::cost_matrix recomputes only the entries the network
  /// changes since then can reach (on the sparse tier, after one link fault
  /// or restore, none or those of a few rows and columns); a different
  /// table recomputes every row. Debug builds compare the result with a
  /// full recompute bit for bit. Returns the number of matrix rows in which
  /// an entry was recomputed.
  std::size_t refresh(const net::RoutingTables& rt);

  /// Bytes held by the clusters, the derived lookup tables and the
  /// coordinator matrix (L² doubles for L Level-1 clusters).
  std::size_t memory_bytes() const;

  /// Internal consistency check (partitioning, coordinator membership,
  /// promotion chain); used by tests and after maintenance operations.
  void validate(const net::Network& net) const;

  /// Bumps whenever the structure or its derived tables are refreshed;
  /// distance oracles stamp themselves against this to detect staleness.
  std::uint64_t version() const { return version_; }

  /// True when built via build_partitioned: d(1) is the max *induced*
  /// intra-cluster distance, which makes induced-subgraph leaf estimates
  /// bounded by d(1) (the soundness precondition for SparseOracle's leaf
  /// sketch tier).
  bool local_leaf_metrics() const { return local_leaf_metrics_; }

 private:
  /// Fills the coordinator matrix from `rt` in place; with `since`, it holds
  /// the matrix as of network version `since` and only the entries
  /// RoutingTables::cost_matrix finds stale are rewritten. Returns the rows
  /// with a rewritten entry.
  std::size_t price_coordinators(
      const net::RoutingTables& rt,
      std::optional<std::uint64_t> since = std::nullopt);
  /// Re-derives the cluster indices, representatives and underlying sets
  /// for `rt`'s node count after the clusters changed, then measure_levels.
  /// On the scale path `leaf_diameters`, when given, holds every level-1
  /// cluster's induced diameter at the network's current version, so
  /// measure_leaves recomputes none of them (Debug still cross-checks a
  /// full measure); empty measures every leaf afresh.
  void rebuild_derived(const net::RoutingTables& rt,
                       std::vector<double> leaf_diameters = {});
  /// Recomputes d(l) against `rt` and the coordinator matrix, reads `rt`
  /// from now on and bumps the version.
  void measure_levels(const net::RoutingTables& rt);
  /// Scale path: d(1) as the largest kept induced diameter. Recomputes
  /// only the leaf clusters holding an endpoint of a link or node fault or
  /// restore since the last measure: every one after a cost change, an
  /// added link, a truncated journal or a change of the clusters (which
  /// clears the kept diameters).
  void measure_leaves();
  /// Coordinator-matrix entry for two Level-1 coordinators.
  double coord_cost(net::NodeId a, net::NodeId b) const {
    return coord_cost_[cluster_idx_[0][a] * levels_[0].size() +
                       cluster_idx_[0][b]];
  }
  void handle_overflow(int level, std::size_t cluster_index,
                       const net::RoutingTables& rt, Prng& prng);

  int max_cs_ = 0;
  const net::RoutingTables* rt_ = nullptr;  // non-owning; outlives hierarchy
  /// Set by build_partitioned: level-1 d(1) is recomputed on each cluster's
  /// induced subgraph (needs the network) instead of all-pairs rt lookups.
  bool local_leaf_metrics_ = false;
  const net::Network* net_ = nullptr;  // non-owning; scale path only
  std::uint64_t version_ = 0;
  std::size_t node_count_ = 0;
  std::vector<std::vector<Cluster>> levels_;  // levels_[l-1] = level l

  // Derived lookup tables, rebuilt by rebuild_derived(); refresh() recomputes
  // only d_ (measure_levels) and the coordinator matrix.
  std::vector<double> d_;                              // d_[l-1]
  // Scale path: leaf_diameter_[i] is level(1)[i]'s induced diameter as of
  // network version leaf_version_; d(1) is their max.
  std::vector<double> leaf_diameter_;
  std::uint64_t leaf_version_ = 0;
  std::vector<std::vector<std::size_t>> cluster_idx_;  // per level: node -> cluster
  std::vector<std::vector<net::NodeId>> rep_;          // per level: node -> representative
  // underlying_[l-1][coord] — physical nodes beneath a level-l node; stored
  // sparsely as (node -> vector) keyed by node id in a dense vector.
  std::vector<std::vector<std::vector<net::NodeId>>> underlying_;
  // Coordinator matrix, row-major L × L over Level-1 cluster indices:
  // coord_cost_[i·L + j] = rt.cost(level(1)[i].coordinator,
  // level(1)[j].coordinator), as of network version coord_version_.
  std::vector<double> coord_cost_;
  std::uint64_t coord_version_ = 0;
};

/// Row-major |members| × |members| shortest-path costs over the subgraph
/// induced by `members` (links whose endpoints are both in the set). Paths
/// that would leave the subgraph are ignored, so entries are upper bounds on
/// the true network distance — exactly the soundness direction Theorem 1
/// needs for d(l). Unusable links are skipped; a crashed member is at
/// infinity from everyone (0 from itself).
std::vector<double> induced_distances(const net::Network& net,
                                      const std::vector<net::NodeId>& members);

}  // namespace iflow::cluster
