// Core joint plan+placement search (the search-core layer).
//
// plan_optimal() finds, over ALL bushy join trees, ALL ways of covering the
// target source set with the available leaf units (base streams and reusable
// derived streams), and ALL assignments of join operators to candidate
// sites, the combination minimising total communication cost under a caller
// supplied distance oracle. It is therefore the "exhaustive search" of the
// paper — every algorithm (global exhaustive, per-cluster Top-Down steps,
// per-cluster Bottom-Up steps) is this search with a different site set and
// distance oracle.
//
// Implementation: dynamic programming over leafset masks. For a fixed tree
// the placement cost decomposes along tree edges, so
//   g[m][p]     = cheapest way to make the joined result of mask m available
//                 at site p (either a unit streamed in directly, or a join
//                 operator somewhere plus the transfer edge), and
//   best_op[m][p] = cheapest way to compute m with a join operator AT p
//                 = min over splits (A,B) of g[A][p] + g[B][p].
// This explores exactly the space of (cover, tree, assignment) combinations
// and returns its optimum; tests verify equality with literal enumeration.
// The *size* of that space, counted with the paper's exhaustive semantics,
// is returned separately (count_plans) and feeds the Fig 9 series.
//
// Mechanically the tables are flat arrays carved from a PlanWorkspace arena
// and indexed by (compressed subset rank, site); the distance oracle is
// materialized into dense unit×site / site×site matrices up front so the DP
// hot loops never indirect through it. The sweeps compute values only: each
// inner loop is a branch-free strict-< running minimum (vectorized at -O3),
// and no argmin is stored. The full target's g row is not computed (nothing reads it). The
// reconstruction then recomputes the argmin of just the O(k) cells it
// visits, scanning in the documented order — splits with the lowest bit
// pinned to A (B over the rest's submasks, descending), then units by
// index, then relay sites by index, all under strict < — so it picks what
// an eagerly recorded argmin would. The per-site sweep runs on the
// workspace's thread pool when profitable; each cell's reduction order is
// the same regardless of thread count, so parallel results are
// bitwise-identical to the serial ones (the differential fuzzer checks
// this).
#pragma once

#include <vector>

#include "net/routing.h"
#include "opt/search/distance_oracle.h"
#include "opt/search/workspace.h"
#include "query/plan.h"

namespace iflow::opt {

struct PlannerInput {
  const query::RateModel* rates = nullptr;
  /// Available leaf inputs. Masks may repeat (several providers of the same
  /// derived stream) and may cover several sources (derived streams,
  /// Top-Down virtual inputs).
  std::vector<query::LeafUnit> units;
  /// The set of query-local sources to assemble (exactly).
  query::Mask target = 0;
  /// Node the result must be delivered to; kInvalidNode means the result
  /// may stay wherever the root operator lands (Bottom-Up intermediate
  /// levels).
  net::NodeId delivery = net::kInvalidNode;
  /// Candidate operator sites (physical node ids).
  std::vector<net::NodeId> sites;
  /// Distance source; must be a (pseudo-)metric (all oracles in this
  /// library are).
  DistanceOracle dist;
  query::QueryId query_id = 0;
  /// Byte rate of the delivery edge; < 0 = the target's raw rate. Used for
  /// aggregation queries, where the root result is aggregated in place and
  /// only the (smaller) aggregate stream travels to the sink.
  double delivery_bytes_rate = -1.0;
};

struct PlannerResult {
  bool feasible = false;
  /// Total cost under the input oracle, including the delivery edge.
  double cost = 0.0;
  query::Deployment deployment;
  /// For each deployment.units entry, the index of the PlannerInput::units
  /// option it came from (multi-level algorithms stitch results with this).
  std::vector<int> unit_sources;
  /// Size of the equivalent exhaustive search space (covers × trees ×
  /// assignments), the quantity the paper's scalability study reports.
  double plans_considered = 0.0;
};

/// `ws` supplies the DP scratch and worker threads; pass the same workspace
/// across invocations to amortize allocation. The default is a process-wide
/// thread-local workspace. Among equal-cost optima the result is the one the
/// documented scan order (file comment) meets first, whatever the thread
/// count.
PlannerResult plan_optimal(const PlannerInput& in,
                           PlanWorkspace& ws = default_workspace());

/// Exhaustive-semantics search-space size for assembling `target` from
/// `units` with operators placed on `site_count` sites:
/// sum over covers with u parts of (2u-3)!! · site_count^(u-1).
double count_plans(const std::vector<query::LeafUnit>& units,
                   query::Mask target, std::size_t site_count);

/// Reference per-tree optimal placement (dynamic programming along the
/// tree). Used by tests to validate plan_optimal and by the phased
/// baselines, which fix the tree first. Leaves of `tree` index `units`.
struct TreePlacement {
  bool feasible = false;
  std::vector<net::NodeId> op_nodes;  // per internal node, in arena order
  double cost = 0.0;                  // includes the delivery edge
};
TreePlacement place_tree_optimal(const query::JoinTree& tree,
                                 const std::vector<query::LeafUnit>& units,
                                 const query::RateModel& rates,
                                 net::NodeId delivery,
                                 const std::vector<net::NodeId>& sites,
                                 const DistanceOracle& dist,
                                 double delivery_bytes_rate = -1.0,
                                 PlanWorkspace& ws = default_workspace());

/// Builds a Deployment from an explicit tree, its units and per-internal-op
/// placements. Unused units are dropped.
query::Deployment assemble_deployment(const query::JoinTree& tree,
                                      const std::vector<query::LeafUnit>& units,
                                      const query::RateModel& rates,
                                      const std::vector<net::NodeId>& op_nodes,
                                      net::NodeId sink, query::QueryId qid);

}  // namespace iflow::opt
