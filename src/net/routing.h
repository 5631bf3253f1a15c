// All-pairs routing tables.
//
// The data plane routes along cost-optimal paths (minimising per-byte cost,
// the paper's optimisation metric); the control plane (deployment messages,
// advertisements) routes along delay-optimal paths. The tables answer what
// their callers read: the cost and the delay of each pair, and the
// cost-optimal path.
//
// Two storage tiers behind one query interface:
//   * dense  — the classic all-pairs snapshot (repeated Dijkstra, O(N²)
//     memory), 20 bytes per (source, destination) entry: two distances and
//     the cost tree's predecessor. Default below
//     RoutingOptions::dense_node_limit nodes, where the matrices are small
//     and every query is a flat array read.
//   * sparse — per-source rows computed on demand and kept in a bounded LRU
//     cache, O(cached_rows · N) memory. Each metric of a row is a part of N
//     entries (cost: distances and the cost tree's predecessors, 12 bytes
//     per entry; delay: distances, 8 bytes), settled region by region: its
//     first read settles the core and the source's home region, and the
//     first read of a node in another single-homed region (the far side of
//     a bridge, e.g. a GT-ITM stub domain) settles that region. Default at
//     scale (10k–100k-node topologies), where a dense matrix would not fit.
// Both tiers store each source row's cost tree as predecessors, which
// cost_path() walks, and give bitwise-identical answers, paths included, so
// planner digests do not depend on the tier. Every pass runs the one kernel in
// net/shortest_path.h over a compressed adjacency the table keeps beside the
// rows. `sync()` replays the Network's mutation log instead of rebuilding:
// quality-only changes (loss, jitter) are free; a link or node fault or restore
// repairs each dense row in place and re-settles, in each sparse row holding
// it, the region it touched.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "net/network.h"
#include "net/shortest_path.h"

namespace iflow::net {

enum class RoutingMode : std::uint8_t {
  kAuto,   // dense up to RoutingOptions::dense_node_limit nodes, else sparse
  kDense,  // force the all-pairs snapshot
  kSparse  // force lazy per-source rows
};

struct RoutingOptions {
  RoutingMode mode = RoutingMode::kAuto;
  /// Sparse tier: per-source rows kept resident before LRU eviction.
  std::size_t max_cached_rows = 512;
  /// kAuto switches to the sparse tier above this node count. The default
  /// keeps every paper-scale topology (<= 1024 nodes) on the dense tier.
  std::size_t dense_node_limit = 2048;
};

/// What one `sync()` call did, for tests and the benches. Each row count is
/// a number of resident source rows: all N on the dense tier, the cached
/// ones on the sparse tier.
struct RoutingSyncStats {
  /// Every resident row discarded (cost change, added link or node, or
  /// mutation-log truncation): the dense tier recomputes all of them, the
  /// sparse tier empties its cache. The row counts are then 0.
  bool full_rebuild = false;
  /// Routing-neutral batch (loss/jitter only, or empty): nothing
  /// recomputed.
  bool quality_only = false;
  /// Resident rows the batch left exact as they were.
  std::size_t rows_retained = 0;
  /// Resident rows the repair could not keep: recomputed on the dense tier
  /// (a cost tie, or their source crashed or came back), evicted on the
  /// sparse tier (a cost tie, or a fault in the core or their home region).
  std::size_t rows_dropped = 0;
  /// Resident rows repaired in place (sparse: a region re-settled).
  std::size_t rows_patched = 0;
};

/// Kernel pops since build(), by caller, for the benches' count gates.
struct RoutingWork {
  std::uint64_t row_pops = 0;     // the rows, and the regions reads settle
  std::uint64_t sync_pops = 0;    // sync()'s repairs and re-settled regions
  std::uint64_t matrix_pops = 0;  // cost_matrix()'s passes
};

/// sync()'s O(N) repair scratch (defined in routing.cpp).
struct RepairScratch;

/// All-pairs shortest-path view of a Network (see file comment for the
/// dense/sparse tiers). Queries are const and thread-safe; after the
/// network mutates, call `sync()` (or rebuild) before querying again —
/// the sparse tier CHECKs against stale lazy computation.
class RoutingTables {
 public:
  RoutingTables();
  ~RoutingTables();
  RoutingTables(RoutingTables&&) noexcept;
  RoutingTables& operator=(RoutingTables&&) noexcept;

  /// Dense tier: runs Dijkstra from every node under both metrics,
  /// O(N · E log N). Sparse tier: records the topology and computes rows on
  /// first use. The network may be partitioned: pairs in different
  /// components (or pairs involving a crashed node) get infinite cost/delay
  /// and an empty path.
  static RoutingTables build(const Network& net,
                             const RoutingOptions& opts = {});

  /// Replays the network's mutation log against this table in place:
  ///   * loss/jitter-only (or empty) batches just advance the recorded
  ///     version;
  ///   * link and node faults and restores: each dense row is repaired in
  ///     place, recomputing only the nodes whose shortest paths the batch
  ///     changed, or recomputed when its cost tree holds an equal-cost tie
  ///     or its source crashed or came back. Each sparse row re-settles the
  ///     touched regions it holds, and is evicted when the batch touches
  ///     the core or its home region or its cost part holds a tie;
  ///   * cost changes, added links or nodes and a truncated journal rebuild
  ///     every row (the sparse tier empties its cache).
  /// Either way every resident row holds what a fresh build of the same
  /// tier holds, paths included. In sparse mode `net` must be the same
  /// instance the table was built against (the lazy tier recomputes rows
  /// from it).
  RoutingSyncStats sync(const Network& net);

  /// Per-byte cost of the cost-optimal a→b path. 0 when a == b (even for a
  /// crashed node — liveness is the Network's concern, not the metric's);
  /// +inf when b is unreachable from a.
  double cost(NodeId a, NodeId b) const;

  /// One-way latency of the delay-optimal a→b path in milliseconds
  /// (+inf when unreachable).
  double delay_ms(NodeId a, NodeId b) const;

  /// True when a usable a→b route exists (a == b included).
  bool reachable(NodeId a, NodeId b) const;

  /// Cost-optimal route from a to b, inclusive of both endpoints. Empty —
  /// never garbage — when b is unreachable from a.
  std::vector<NodeId> cost_path(NodeId a, NodeId b) const;

  /// Bulk row read: out[i] = cost(src, dst[i]). On the sparse tier this
  /// pins the source row once instead of taking the cache lock per lookup —
  /// the planner materializes its matrices through this.
  void fill_costs(NodeId src, const NodeId* dst, std::size_t count,
                  double* out) const;

  /// Square cost matrix among `nodes`: out[i·m + j] = cost(nodes[i],
  /// nodes[j]) bit for bit, `out` holding m·m entries. Returns the number of
  /// rows in which it rewrote an entry. The dense tier reads its matrix,
  /// every row. The sparse tier reads a resident row's costs (settling the
  /// list's regions in it) and prices a row it does not hold without
  /// caching it, so the LRU, cached_rows() and peak_memory_bytes() stay as
  /// they were: one cost-only pass over the core and one for each region
  /// holding a node of the list, as far as those nodes (DESIGN.md §13,
  /// "Single-homed regions").
  ///
  /// With `since`, `out` already holds the matrix among the same `nodes` as
  /// of network version `since`, and the sparse tier (which CHECKs that it
  /// is synced) rewrites only the entries the journal batch since then can
  /// change (DESIGN.md §13, "Staleness rule"): none for a quality-only
  /// batch, those a path through the adjacency of a lone link failure or
  /// restore could tie or beat, and every entry otherwise. Every entry
  /// holds the bits a fresh Dijkstra gives it.
  std::size_t cost_matrix(
      const NodeId* nodes, std::size_t m, double* out,
      std::optional<std::uint64_t> since = std::nullopt) const;

  std::size_t node_count() const { return n_; }

  /// Network::version() at build/sync time.
  std::uint64_t built_against() const { return version_; }

  /// True when this table uses the lazy per-source tier.
  bool sparse() const { return cache_ != nullptr; }

  /// Sparse tier: rows currently resident (0 on the dense tier).
  std::size_t cached_rows() const;

  /// Current table footprint in bytes (matrices, or the parts of the
  /// resident rows).
  std::size_t memory_bytes() const;

  /// High-water footprint since build (equals memory_bytes() when dense).
  std::size_t peak_memory_bytes() const;

  /// Footprint a dense all-pairs snapshot of `n` nodes would need — the
  /// denominator of the scale bench's memory-ratio criterion.
  static std::size_t dense_equivalent_bytes(std::size_t n);

  /// Kernel pops since build(), by caller.
  RoutingWork work() const;

 private:
  /// One metric of a sparse source row, empty until its first read: N
  /// entries, +inf in the regions it has not settled, a bit per region.
  struct Part {
    std::vector<double> dist;
    std::vector<bool> settled;
  };
  struct Row {
    Part cost;
    std::vector<NodeId> parent;  // cost-tree predecessor
    Part delay;
    /// The cost part is one full pass that met an equal-cost tie, so sync()
    /// cannot re-settle a region of it exactly (as cost_ties_ when dense).
    bool cost_ties = false;
    std::uint64_t last_used = 0;  // LRU tick
  };
  enum class Metric : std::uint8_t { kCost, kDelay };
  struct Cache;      // defined in routing.cpp; regions, mutex and row map
  struct PinnedRow;  // defined in routing.cpp; a row read under the lock

  /// Dense tier: recompute every row, or source row `src` of every matrix,
  /// from scratch; each returns the pops.
  std::uint64_t rebuild_dense(const Network& net);
  std::uint64_t dense_row(NodeId src, DistanceHeap& heap);
  void reset_sparse(const Network& net);
  /// Sparse tier: CHECKs that the network has not moved past the table's
  /// version before a lazy Dijkstra reads it.
  void check_synced() const;
  /// Sparse tier, under the cache mutex: finds or inserts src's row (LRU),
  /// starts its `metric` part and settles the regions of dst[0, count).
  Row& row_locked(NodeId src, Metric metric, const NodeId* dst,
                  std::size_t count) const;
  /// The one row reader behind cost(), delay_ms(), cost_path() and
  /// fill_costs(): the dense tier points into its matrices, the sparse tier
  /// locks the cache for row_locked().
  PinnedRow pin(NodeId src, Metric metric, const NodeId* dst,
                std::size_t count) const;

  std::size_t n_ = 0;
  std::uint64_t version_ = 0;
  /// The network as every full pass reads it (both tiers): rebuilt with the
  /// rows, its usable bytes patched in place by a fault sync.
  Adjacency adj_;
  /// Dense tier: kept across syncs, so a fault sync allocates nothing.
  std::unique_ptr<RepairScratch> repair_;
  mutable RoutingWork work_;  // sparse reads write it under the cache lock

  // Dense tier storage (empty in sparse mode).
  std::vector<double> cost_;    // cost-weighted distances
  std::vector<double> delay_;   // delay-weighted distances
  std::vector<NodeId> parent_;  // parent_[a*n+b]: b's predecessor from a
  /// cost_ties_[a] != 0: row a's cost tree was built with an equal-cost
  /// tie, so sync() cannot repair it in place.
  std::vector<std::uint8_t> cost_ties_;

  // Sparse tier (null in dense mode). The network pointer is non-owning and
  // must outlive the table; lazy rows are computed from it.
  const Network* net_ = nullptr;
  std::unique_ptr<Cache> cache_;
};

}  // namespace iflow::net
