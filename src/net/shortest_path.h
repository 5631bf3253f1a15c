// The one shortest-path kernel behind every routing pass: the dense rows,
// the sparse rows' region parts, the rows and the goal-directed entries of
// the coordinator matrix, the induced-subgraph distances of the hierarchy
// and the in-place row repair. A pass seeds its heap and runs `settle`, the
// one loop that pops nodes and relaxes their arcs: a full pass seeds the
// source, the repair seeds the nodes a fault or restore changed, and a
// region pass seeds the gateway where its region is entered (DESIGN.md
// §13).
//
// It reads a compressed adjacency (each node's arcs in one contiguous range,
// in Network::incident() order, with per-link weights and a usable byte)
// instead of the Network's link records, and queues nodes in an indexed
// 4-ary min-heap that lowers a queued node's key in place. Distances do not
// depend on the heap: each is the least of the same `dist[u] + w` candidates
// whatever order the nodes settle in (DESIGN.md §13).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "net/network.h"

namespace iflow::net {

/// Compressed adjacency of a graph: the arcs of node u are
/// arcs[first[u] .. first[u + 1]), and each arc names its far end and the
/// link it crosses, an index into the per-link arrays.
struct Adjacency {
  struct Arc {
    NodeId to = kInvalidNode;
    std::uint32_t link = 0;
  };
  std::vector<std::uint32_t> first;
  std::vector<Arc> arcs;
  std::vector<double> cost;          // per link: cost_per_byte
  std::vector<double> delay;         // per link: delay_ms
  std::vector<std::uint8_t> usable;  // per link: Network::usable()

  /// The whole network: one arc per link end, in incident() order, and
  /// links indexed as in Network::links().
  static Adjacency of(const Network& net) {
    Adjacency g;
    const std::size_t n = net.node_count();
    const std::vector<Link>& links = net.links();
    g.first.reserve(n + 1);
    g.arcs.reserve(2 * links.size());
    for (NodeId u = 0; u < n; ++u) {
      g.first.push_back(static_cast<std::uint32_t>(g.arcs.size()));
      for (const std::uint32_t idx : net.incident(u)) {
        const Link& l = links[idx];
        g.arcs.push_back({l.a == u ? l.b : l.a, idx});
      }
    }
    g.first.push_back(static_cast<std::uint32_t>(g.arcs.size()));
    g.cost.reserve(links.size());
    g.delay.reserve(links.size());
    g.usable.reserve(links.size());
    for (std::uint32_t idx = 0; idx < links.size(); ++idx) {
      g.cost.push_back(links[idx].cost_per_byte);
      g.delay.push_back(links[idx].delay_ms);
      g.usable.push_back(net.usable(idx) ? 1 : 0);
    }
    return g;
  }

  /// Re-reads the usable byte of every link incident to `v` after a fault
  /// or restore there: O(degree), so a fault sync stays O(batch).
  void refresh_usable(const Network& net, NodeId v) {
    for (const std::uint32_t idx : net.incident(v)) {
      usable[idx] = net.usable(idx) ? 1 : 0;
    }
  }
};

/// Indexed 4-ary min-heap of nodes keyed by tentative distance. `slot_`
/// holds each queued node's position, so a relaxation lowers its key in
/// place instead of queueing a duplicate. Keys and nodes sit in parallel
/// arrays, and a pop picks the least of four children with arithmetic
/// rather than branches, which the random keys would mispredict. A full pass
/// pops every node it queues, and a pass that stops early clears the rest,
/// so the slots are all free again between passes.
class DistanceHeap {
 public:
  bool empty() const { return size_ == 0; }

  /// The least queued key; the heap must not be empty.
  double top_key() const { return key_[0]; }

  /// Frees the slots of the nodes still queued, for a pass that stops
  /// before the heap runs empty.
  void clear() {
    for (std::size_t i = 0; i < size_; ++i) slot_[node_[i]] = kFree;
    size_ = 0;
  }

  /// Makes room for nodes [0, n).
  void fit(std::size_t n) {
    if (slot_.size() >= n) return;
    slot_.resize(n, kFree);
    key_.resize(n);
    node_.resize(n);
  }

  /// Queues v (< the fitted n) at `key`, or lowers its key when it is
  /// already queued.
  void push_or_decrease(NodeId v, double key) {
    std::size_t i = slot_[v];
    if (i == kFree) i = size_++;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!(key < key_[parent])) break;
      place(i, key_[parent], node_[parent]);
      i = parent;
    }
    place(i, key, v);
  }

  /// Removes and returns the node with the least key.
  NodeId pop() {
    const NodeId top = node_[0];
    slot_[top] = kFree;
    if (--size_ == 0) return top;
    // Fill the emptied root with the last entry, moving the least child up
    // each level until none is smaller.
    const double key = key_[size_];
    const NodeId v = node_[size_];
    std::size_t i = 0;
    for (;;) {
      const std::size_t c = 4 * i + 1;
      if (c >= size_) break;
      const std::size_t end = std::min(c + 4, size_);
      std::size_t best = c;
      double best_key = key_[c];
      for (std::size_t k = c + 1; k < end; ++k) {
        const std::size_t less = key_[k] < best_key ? 1 : 0;
        best ^= (best ^ k) & (0 - less);
        best_key = std::min(best_key, key_[k]);
      }
      if (!(best_key < key)) break;
      place(i, best_key, node_[best]);
      i = best;
    }
    place(i, key, v);
    return top;
  }

 private:
  static constexpr std::uint32_t kFree =
      std::numeric_limits<std::uint32_t>::max();

  void place(std::size_t i, double key, NodeId v) {
    key_[i] = key;
    node_[i] = v;
    slot_[v] = static_cast<std::uint32_t>(i);
  }

  std::size_t size_ = 0;
  std::vector<double> key_;          // key_[0, size_): the heap's keys
  std::vector<NodeId> node_;         // node_[i]: the node keyed by key_[i]
  std::vector<std::uint32_t> slot_;  // per node: heap index, or kFree
};

/// A full pass: every reached node settles, keyed by its distance.
struct NoGoal {
  static constexpr bool stop(const double*, const DistanceHeap&) {
    return false;
  }
  static constexpr bool reached(NodeId) { return false; }
  static constexpr double key(NodeId, double dist) { return dist; }
};

/// Keyed like a full pass, it stops before a pop once `target`'s distance
/// is below the least queued key, which makes it final, and leaves the
/// rest queued (a coordinator-matrix region's pass, DESIGN.md §13).
struct Until {
  NodeId target = kInvalidNode;

  bool stop(const double* dist, const DistanceHeap& heap) const {
    return dist[target] < heap.top_key();
  }
  static constexpr bool reached(NodeId) { return false; }
  static constexpr double key(NodeId, double dist) { return dist; }
};

/// A goal-directed pass: it stops when `target` pops, and keys each node by
/// its distance plus `potential[v]`, a lower bound on the rest of the path
/// from v to the target. The caller bounds it so that every node on a best
/// path keys at or below the target's exact distance; the target itself
/// must have potential 0. Then the target pops with the distance a full
/// pass gives it (DESIGN.md §13, "Full rows and goal-directed entries").
struct Goal {
  NodeId target = kInvalidNode;
  const double* potential = nullptr;

  static constexpr bool stop(const double*, const DistanceHeap&) {
    return false;
  }
  bool reached(NodeId u) const { return u == target; }
  double key(NodeId v, double dist) const { return dist + potential[v]; }
};

/// What one pass did: whether a relaxation exactly matched its target's
/// distance (a tie the pop order broke), and how many nodes it popped.
struct Settled {
  bool tie = false;
  std::uint64_t pops = 0;
};

/// Settles the queued nodes of `heap` in key order: each pop relaxes the
/// popped node's usable arcs under the per-link weight `w`, and a neighbour
/// whose distance falls gets the new distance, its predecessor when
/// `parent` is given, and a lowered key. The caller seeds the heap with
/// nodes whose `dist` it has set. A link is usable when its byte in
/// `usable` is non-zero: g.usable by default, or a copy in which the caller
/// closed some links (the sparse tier's region bridges). With a Goal it
/// stops when the target pops and frees the slots of the nodes still
/// queued; with Until it stops before a pop and keeps them queued. Inlined
/// into each caller, as the dense repair's speed needs.
template <typename Target = NoGoal>
[[gnu::always_inline]] inline Settled settle(
    const Adjacency& g, const double* w, double* dist, NodeId* parent,
    DistanceHeap& heap, const Target& goal = {},
    const std::uint8_t* usable = nullptr) {
  const std::uint32_t* first = g.first.data();
  const Adjacency::Arc* arcs = g.arcs.data();
  if (usable == nullptr) usable = g.usable.data();
  bool tie = false;
  std::uint64_t pops = 0;
  while (!heap.empty()) {
    if (goal.stop(dist, heap)) break;
    const NodeId u = heap.pop();
    ++pops;
    if (goal.reached(u)) {
      heap.clear();
      break;
    }
    const double d = dist[u];
    for (std::uint32_t e = first[u]; e < first[u + 1]; ++e) {
      const Adjacency::Arc arc = arcs[e];
      if (usable[arc.link] == 0) continue;
      const double nd = d + w[arc.link];
      if (nd < dist[arc.to]) {
        dist[arc.to] = nd;
        if (parent != nullptr) parent[arc.to] = u;
        heap.push_or_decrease(arc.to, goal.key(arc.to, nd));
      } else if (nd == dist[arc.to]) {
        tie = true;
      }
    }
  }
  return {tie, pops};
}

/// Single-source shortest paths from `src` over the usable links of `g`,
/// under the per-link weight `w` (g.cost, g.delay or another per-link
/// array): seeds `src` alone and settles. A full pass fills dist[0, n) —
/// +inf where unreachable — and, when `parent` is given, each reached
/// node's predecessor (kInvalidNode for `src` and unreached nodes), and
/// returns what settle() reports. With a Goal, only dist[goal.target] is
/// final when the pass returns.
template <typename Target = NoGoal>
inline Settled shortest_paths(const Adjacency& g, const double* w, NodeId src,
                              double* dist, NodeId* parent, DistanceHeap& heap,
                              const Target& goal = {}) {
  const std::size_t n = g.first.size() - 1;
  std::fill(dist, dist + n, std::numeric_limits<double>::infinity());
  if (parent != nullptr) std::fill(parent, parent + n, kInvalidNode);
  heap.fit(n);
  dist[src] = 0.0;
  heap.push_or_decrease(src, goal.key(src, 0.0));
  return settle(g, w, dist, parent, heap, goal);
}

}  // namespace iflow::net
