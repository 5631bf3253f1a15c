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
//   * sparse — per-source rows computed by Dijkstra on demand and kept in a
//     bounded LRU cache, O(cached_rows · N) memory. Each metric of a row is
//     computed on its first read: the cost part (distances and the cost
//     tree's predecessors, 12 bytes per entry) in full, and the delay part
//     (distances, 8 bytes) lazily: a delay read settles the pass only until
//     the node it reads is final, then pauses it, keeping its queue (4
//     bytes per queued node) for the next read to continue. Default at
//     scale (10k–100k-node topologies), where a dense matrix would not fit.
// Both tiers store each source row's cost tree as predecessors, and
// cost_path() walks the source row's tree on both. They produce
// bitwise-identical answers for identical queries, paths included (the
// same per-source Dijkstra runs either eagerly or lazily), so planner
// digests do not depend on the tier. One private row reader serves every
// query: the dense tier indexes its matrices, the sparse tier takes its
// lock and computes a missing part.
//
// Every pass runs the one kernel in net/shortest_path.h over a compressed
// adjacency the table keeps beside the rows. Repair is incremental:
// `sync()` replays the Network's mutation log instead of rebuilding from
// scratch. Quality-only changes (loss, jitter) are free. Link and node
// faults and restores repair each resident row in place — all N on the
// dense tier, the cached ones on the sparse tier — seeding only the nodes
// beyond the fault and settling them with the kernel's loop. A paused delay
// part the batch reaches is first run to its end, then repaired; one it
// does not reach stays paused.
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
  /// Resident rows the repair could not keep (an equal-cost tie, or their
  /// own source crashed or came back): the dense tier recomputes them, the
  /// sparse tier evicts them.
  std::size_t rows_dropped = 0;
  /// Resident rows repaired in place.
  std::size_t rows_patched = 0;
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
  ///   * link and node faults and restores repair each resident row in
  ///     place: only the nodes whose shortest paths the batch changed are
  ///     recomputed. A row that cannot be repaired exactly (its cost tree
  ///     holds an equal-cost tie, or its source crashed or came back) is
  ///     recomputed on the dense tier and evicted on the sparse tier;
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
  /// (+inf when unreachable). On the sparse tier the read settles a's delay
  /// pass only until b is final and pauses it there; the value has the bits
  /// of a full pass.
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
  /// every row. The sparse tier reads a resident row's costs and prices a
  /// row it does not hold without caching it, so the LRU, cached_rows() and
  /// peak_memory_bytes() stay as they were: one depth-first search finds
  /// the single-homed regions, the far sides of bridges, and each row runs
  /// one cost-only pass over the rest of the network and one for each
  /// region holding a node of the list, as far as those nodes (DESIGN.md
  /// §13, "Single-homed regions").
  ///
  /// With `since`, `out` already holds the matrix among the same `nodes` as
  /// of network version `since`, and the sparse tier (which CHECKs that it
  /// is synced) rewrites only the entries the journal batch since then can
  /// change (DESIGN.md §13): none for a quality-only batch; for exactly one
  /// link failure or restore, the entries a path through that adjacency
  /// could tie or beat, found from cost-only Dijkstras at its two endpoints
  /// and a rounding bound; every entry for any other batch or a truncated
  /// journal. Of the rows with a flagged entry it recomputes some in full
  /// and gives each other flagged entry a goal-directed pass aimed at a
  /// full row's node. Every entry holds the bits a fresh Dijkstra gives it.
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
  /// resident rows, a paused delay part's queue included at 4 bytes per
  /// queued node).
  std::size_t memory_bytes() const;

  /// High-water footprint since build (equals memory_bytes() when dense).
  std::size_t peak_memory_bytes() const;

  /// Footprint a dense all-pairs snapshot of `n` nodes would need — the
  /// denominator of the scale bench's memory-ratio criterion.
  static std::size_t dense_equivalent_bytes(std::size_t n);

 private:
  /// One lazily computed source row in two parts, each empty until the
  /// first read of its metric: the cost part (distances and the cost tree's
  /// predecessors) and the delay part. The delay part is paused while
  /// `queued` holds nodes: its pass has settled the nodes below the least
  /// queued distance, and `queued` is the rest of its heap, in heap order.
  struct Row {
    std::vector<double> cost;    // cost-weighted distances
    std::vector<NodeId> parent;  // cost-tree predecessor
    std::vector<double> delay;   // delay-weighted distances
    std::vector<NodeId> queued;  // a paused delay pass's heap
    /// The cost tree was built with an equal-cost tie, so sync() cannot
    /// repair the row in place (as cost_ties_ on the dense tier).
    bool cost_ties = false;
    std::uint64_t last_used = 0;  // LRU tick
  };
  enum class Metric : std::uint8_t { kCost, kDelay };
  struct Cache;      // defined in routing.cpp; holds the mutex + row map
  struct PinnedRow;  // defined in routing.cpp; a row read under the lock

  void rebuild_dense(const Network& net);
  /// Dense tier: recomputes source row `src` of every matrix from scratch.
  void dense_row(NodeId src, DistanceHeap& heap);
  void reset_sparse(const Network& net);
  /// Sparse tier: CHECKs that the network has not moved past the table's
  /// version before a lazy Dijkstra reads it.
  void check_synced() const;
  /// Locates the row for `src`, computing it or its `metric` part when
  /// missing, a delay part until `dst` is final; caller holds the cache
  /// mutex.
  Row& row_locked(NodeId src, Metric metric, NodeId dst) const;
  /// The one row reader behind cost(), delay_ms(), cost_path() and
  /// fill_costs(): the dense tier points into its matrices, the sparse tier
  /// takes the cache lock and computes the row's `metric` part when missing
  /// — a delay part as far as `dst`, the node the caller reads.
  PinnedRow pin(NodeId src, Metric metric, NodeId dst = kInvalidNode) const;

  std::size_t n_ = 0;
  std::uint64_t version_ = 0;
  /// The network as every full pass reads it (both tiers): rebuilt with the
  /// rows, its usable bytes patched in place by a fault sync.
  Adjacency adj_;
  /// Kept across syncs on both tiers, so a fault sync allocates nothing.
  std::unique_ptr<RepairScratch> repair_;

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
