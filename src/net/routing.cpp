#include "net/routing.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>

namespace iflow::net {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// 2⁻⁵³: the relative error of one rounded double operation.
constexpr double kUnitRoundoff = std::numeric_limits<double>::epsilon() / 2;

bool contains(const std::vector<NodeId>& v, NodeId x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

/// The adjacency of a batch whose only routing change is one link failure
/// or one restore; nullopt for any other batch.
std::optional<std::pair<NodeId, NodeId>> single_link_event(const Batch& b) {
  if (b.reprice || !b.nodes_down.empty() || !b.nodes_up.empty() ||
      b.links_down.size() + b.links_up.size() != 1) {
    return std::nullopt;
  }
  return b.links_down.empty() ? b.links_up.front() : b.links_down.front();
}

}  // namespace

/// Scratch space for repairing rows in place: O(n), kept with the table and
/// reused across syncs, rows and metrics.
struct RepairScratch {
  /// A node is invalidated or improved in the current pass when its stamp
  /// equals `pass`. The stamps are zeroed only when `pass` wraps.
  std::vector<std::uint32_t> stamp;
  std::uint32_t pass = 0;
  std::vector<NodeId> touched;  // stamped nodes, in stamping order
  /// The dense tier's heap; the sparse tier repairs with its cache's.
  DistanceHeap heap;

  /// Sizes the scratch for an n-node table; a no-op when it already is.
  void fit(std::size_t n) {
    if (stamp.size() == n) return;
    stamp.assign(n, 0);
    pass = 0;
  }
};

namespace {

enum class Repair : std::uint8_t { kUntouched, kRepaired, kTie };

/// Repairs one source row of one metric in place after a batch of link and
/// node faults and restores, over `g` (its usable bytes already patched to
/// the network after the batch) under the per-link weight `w`, with `heap`
/// fitted to the table's n and empty. `parent` is the row's cost tree, which
/// cost_path() walks; it is null for the delay metric, whose tree carries
/// only distances. The nodes the batch cut off are invalidated, they and the
/// nodes a restore improves are seeded, and the kernel's settle() finishes
/// the pass, so each recomputed value has the bits a fresh pass gives it as
/// long as every node's parent is the unique best candidate. When the cost
/// repair meets an equal candidate it returns kTie with the row partly
/// rewritten, and the row must be recomputed in full.
Repair repair_row(const Adjacency& g, const double* w, const Batch& batch,
                  NodeId src, double* dist, NodeId* parent, RepairScratch& s,
                  DistanceHeap& heap) {
  const bool cost_tree = parent != nullptr;
  if (++s.pass == 0) {  // wrapped: clear the stamps of earlier passes
    std::fill(s.stamp.begin(), s.stamp.end(), 0);
    s.pass = 1;
  }
  s.touched.clear();
  const auto stamped = [&](NodeId v) { return s.stamp[v] == s.pass; };
  const auto stamp = [&](NodeId v) {
    s.stamp[v] = s.pass;
    s.touched.push_back(v);
  };
  const auto arcs = [&](NodeId v) {
    return std::span(g.arcs.data() + g.first[v],
                     g.arcs.data() + g.first[v + 1]);
  };
  // y is a tree child of x over a link of weight wl: the double addition
  // the pass performed when it set dist[y] reproduces it exactly.
  const auto child = [&](NodeId x, double wl, NodeId y) {
    return y != src && !stamped(y) && dist[x] < kInf &&
           dist[x] + wl == dist[y];
  };

  // Down events: invalidate the subtrees below the failed adjacencies and
  // the crashed nodes, walked from the stored distances before any of them
  // is overwritten.
  for (const auto& [a, b] : batch.links_down) {
    for (const Adjacency::Arc arc : arcs(a)) {
      if (arc.to != b) continue;
      if (child(a, w[arc.link], b)) stamp(b);
      if (child(b, w[arc.link], a)) stamp(a);
    }
  }
  for (const NodeId z : batch.nodes_down) {
    if (z != src && !stamped(z) && dist[z] < kInf) stamp(z);
  }
  for (std::size_t i = 0; i < s.touched.size(); ++i) {
    const NodeId x = s.touched[i];
    for (const Adjacency::Arc arc : arcs(x)) {
      if (child(x, w[arc.link], arc.to)) stamp(arc.to);
    }
  }

  for (const NodeId v : s.touched) {
    dist[v] = kInf;
    if (cost_tree) parent[v] = kInvalidNode;
  }
  // Labels v — an invalidated node or an endpoint a restore can improve —
  // from its unstamped usable neighbours in the final network, and queues it
  // when that lowers its distance. Stamped neighbours are skipped: each
  // relaxes v when it settles, with a value no worse than its old one.
  // Returns false on an equal best candidate.
  const auto seed = [&](NodeId v) {
    double best = kInf;
    NodeId from = kInvalidNode;
    bool tie = false;
    for (const Adjacency::Arc arc : arcs(v)) {
      if (g.usable[arc.link] == 0) continue;
      if (stamped(arc.to) || !(dist[arc.to] < kInf)) continue;
      const double nd = dist[arc.to] + w[arc.link];
      if (nd < best) {
        best = nd;
        from = arc.to;
        tie = false;
      } else if (nd == best) {
        tie = true;
      }
    }
    if (cost_tree && tie && best <= dist[v]) return false;
    if (best < dist[v]) {
      if (!stamped(v)) stamp(v);
      dist[v] = best;
      if (cost_tree) parent[v] = from;
      heap.push_or_decrease(v, best);
    }
    return true;
  };
  const auto seed_restored = [&](NodeId v) {
    return v == src || stamped(v) || seed(v);
  };
  const auto seed_all = [&] {
    const std::size_t invalidated = s.touched.size();
    for (std::size_t i = 0; i < invalidated; ++i) {
      if (!seed(s.touched[i])) return false;
    }
    for (const auto& [a, b] : batch.links_up) {
      if (!seed_restored(a) || !seed_restored(b)) return false;
    }
    for (const NodeId z : batch.nodes_up) {
      if (!seed_restored(z)) return false;
    }
    return true;
  };
  if (!seed_all()) {
    heap.clear();  // frees the slots of the nodes already queued
    return Repair::kTie;
  }
  // The kernel's loop over the seeded nodes: only nodes whose distance
  // falls are queued, so it stays within the invalidated and improved ones.
  if (settle(g, w, dist, parent, heap) && cost_tree) return Repair::kTie;
  return s.touched.empty() ? Repair::kUntouched : Repair::kRepaired;
}

/// True when a batch of link and node faults and restores changes a link
/// that a popped node of a paused pass may have relaxed: an endpoint of a
/// failed or restored link, or a faulted node or one of its neighbours, has
/// a distance at or below `frontier`, the pass's least queued key. A popped
/// node's distance is at or below it and any other node's at or above it,
/// so the test errs only toward finishing the pass.
bool reaches(const Adjacency& g, const Batch& b, const double* dist,
             double frontier) {
  const auto popped = [&](NodeId v) { return dist[v] <= frontier; };
  const auto link = [&](const std::pair<NodeId, NodeId>& l) {
    return popped(l.first) || popped(l.second);
  };
  const auto node = [&](NodeId z) {
    if (popped(z)) return true;
    for (std::uint32_t e = g.first[z]; e < g.first[z + 1]; ++e) {
      if (popped(g.arcs[e].to)) return true;
    }
    return false;
  };
  return std::any_of(b.links_down.begin(), b.links_down.end(), link) ||
         std::any_of(b.links_up.begin(), b.links_up.end(), link) ||
         std::any_of(b.nodes_down.begin(), b.nodes_down.end(), node) ||
         std::any_of(b.nodes_up.begin(), b.nodes_up.end(), node);
}

/// Bytes one dense source row occupies: cost and delay distances and one
/// predecessor per destination.
std::size_t row_bytes(std::size_t n) {
  return n * (2 * sizeof(double) + sizeof(NodeId));
}

/// The full rows of a sparse coordinator matrix, priced region by region
/// (DESIGN.md §13, "Single-homed regions"). A depth-first search over the
/// usable arcs, rooted at the node with the most of them, finds the bridges.
/// The far side of a topmost bridge, the side without the root, is a
/// region: every path from outside enters it over that one link, from its
/// attachment node t to its gateway g. With those links blocked, a row's
/// pass over the core never enters a region, and each other region that
/// holds targets gets a pass of its own, seeded at g with dist[t] + w.
class RegionPasses {
 public:
  RegionPasses(const Adjacency& g, const NodeId* nodes, std::size_t m)
      : g_(g), nodes_(nodes), m_(m), blocked_(g.cost) {
    const std::size_t n = g.first.size() - 1;
    dist_.resize(n);
    region_.assign(n, kCore);
    if (n == 0) return;
    const auto degree = [&](NodeId v) {
      std::uint32_t d = 0;
      for (std::uint32_t e = g.first[v]; e < g.first[v + 1]; ++e) {
        d += g.usable[g.arcs[e].link];
      }
      return d;
    };
    NodeId root = 0;
    for (NodeId v = 1, most = degree(0); v < n; ++v) {
      if (degree(v) > most) {
        most = degree(v);
        root = v;
      }
    }
    // Tarjan's bridges, iteratively: a tree arc into v over link via[v] is
    // a bridge when no arc from v's subtree but that link reaches above v.
    constexpr std::uint32_t kNoLink = std::numeric_limits<std::uint32_t>::max();
    std::vector<std::uint32_t> disc(n, 0), low(n, 0), next(n), via(n, kNoLink);
    std::vector<NodeId> parent(n, kInvalidNode), preorder, stack;
    std::uint32_t clock = 0;
    const auto visit = [&](NodeId v) {
      disc[v] = low[v] = ++clock;
      next[v] = g.first[v];
      preorder.push_back(v);
      stack.push_back(v);
    };
    visit(root);
    while (!stack.empty()) {
      const NodeId u = stack.back();
      if (next[u] == g.first[u + 1]) {
        stack.pop_back();
        if (!stack.empty()) {
          low[stack.back()] = std::min(low[stack.back()], low[u]);
        }
        continue;
      }
      const Adjacency::Arc arc = g.arcs[next[u]++];
      if (g.usable[arc.link] == 0 || arc.link == via[u]) continue;
      if (disc[arc.to] == 0) {
        parent[arc.to] = u;
        via[arc.to] = arc.link;
        visit(arc.to);
      } else {
        low[u] = std::min(low[u], disc[arc.to]);
      }
    }
    // In preorder a node's parent is placed first: a node below a region's
    // gateway joins that region, and a bridge into the core opens one.
    for (std::size_t k = 1; k < preorder.size(); ++k) {
      const NodeId v = preorder[k];
      const NodeId t = parent[v];
      if (region_[t] != kCore) {
        region_[v] = region_[t];
      } else if (low[v] > disc[t]) {
        region_[v] = static_cast<std::uint32_t>(regions_.size());
        regions_.push_back({t, v, g.cost[via[v]], {}});
        blocked_[via[v]] = kInf;
      }
    }
    for (std::size_t j = 0; j < m; ++j) {
      const std::uint32_t r = region_[nodes[j]];
      if (r != kCore) regions_[r].targets.push_back(nodes[j]);
    }
  }

  /// out[j] = the cost from src to nodes[j], with the bits a full pass from
  /// src gives it. `heap` must be empty; it is empty again on return.
  void row(NodeId src, DistanceHeap& heap, double* out) {
    const double* w = blocked_.data();
    double* dist = dist_.data();
    std::fill(dist_.begin(), dist_.end(), kInf);
    heap.fit(dist_.size());
    const auto seed = [&](NodeId v, double d) {
      dist[v] = d;
      heap.push_or_decrease(v, d);
    };
    // A region's pass settles until each of its targets is final.
    const auto settle_targets = [&](const Region& r) {
      for (const NodeId v : r.targets) {
        settle(g_, w, dist, nullptr, heap, Until{v});
      }
      heap.clear();
    };
    seed(src, 0.0);
    const std::uint32_t home = region_[src];
    if (home != kCore) {
      // A source inside a region settles it first, as far as its gateway
      // and targets; every path out of it crosses to t.
      const Region& r = regions_[home];
      settle(g_, w, dist, nullptr, heap, Until{r.gateway});
      settle_targets(r);
      seed(r.attach, dist[r.gateway] + r.w);
    }
    settle(g_, w, dist, nullptr, heap);  // the core
    for (std::uint32_t k = 0; k < regions_.size(); ++k) {
      const Region& r = regions_[k];
      if (r.targets.empty() || k == home || !(dist[r.attach] < kInf)) {
        continue;
      }
      seed(r.gateway, dist[r.attach] + r.w);
      settle_targets(r);
    }
    for (std::size_t j = 0; j < m_; ++j) out[j] = dist[nodes_[j]];
  }

 private:
  static constexpr std::uint32_t kCore =
      std::numeric_limits<std::uint32_t>::max();

  struct Region {
    NodeId attach = kInvalidNode;   // t, outside the region
    NodeId gateway = kInvalidNode;  // g, its end of the bridge
    double w = 0.0;                 // the bridge's cost
    std::vector<NodeId> targets;    // the nodes[j] inside
  };

  const Adjacency& g_;
  const NodeId* nodes_;
  std::size_t m_;
  std::vector<double> blocked_;        // link costs, +inf on the bridges
  std::vector<std::uint32_t> region_;  // per node: its region, or kCore
  std::vector<Region> regions_;
  std::vector<double> dist_;
};

}  // namespace

/// Sparse-tier state: the bounded per-source row cache with the bytes its
/// parts hold, and the heap its passes and repairs share under the lock.
struct RoutingTables::Cache {
  std::size_t max_rows = 512;
  std::mutex mu;
  std::unordered_map<NodeId, Row> rows;
  std::uint64_t tick = 0;
  std::size_t bytes = 0;
  std::size_t peak_bytes = 0;
  DistanceHeap heap;

  /// Bytes a sparse row holds: 12 per entry for the cost part (distance and
  /// predecessor), 8 for the delay part and 4 per node its paused pass
  /// keeps queued.
  static std::size_t bytes_of(const Row& r) {
    return (r.cost.size() + r.delay.size()) * sizeof(double) +
           (r.parent.size() + r.queued.size()) * sizeof(NodeId);
  }

  /// Runs the delay pass of `row`, the row of `src`, over `g` under
  /// `until`: it starts the pass on the part's first run and otherwise puts
  /// the paused queue back, and it keeps the queue again when the pass
  /// pauses. Each run continues the one pass, so the part holds the bits of
  /// an uninterrupted pass as far as it has settled (DESIGN.md §13).
  template <typename Target>
  void run_delay(const Adjacency& g, NodeId src, Row& row,
                 const Target& until) {
    bytes -= row.queued.size() * sizeof(NodeId);
    if (row.delay.empty()) {
      row.delay.resize(g.first.size() - 1);
      bytes += row.delay.size() * sizeof(double);
      shortest_paths(g, g.delay.data(), src, row.delay.data(), nullptr, heap,
                     until);
    } else {
      heap.restore(row.queued, row.delay.data());
      settle(g, g.delay.data(), row.delay.data(), nullptr, heap, until);
    }
    heap.save(row.queued);
    if (row.queued.empty()) row.queued.shrink_to_fit();
    bytes += row.queued.size() * sizeof(NodeId);
    peak_bytes = std::max(peak_bytes, bytes);
  }
};

/// One source row as the queries read it: its distances of one metric and,
/// for the cost metric, its cost tree's predecessors. On the sparse tier it
/// holds the cache lock, so the row stays put while it is read.
struct RoutingTables::PinnedRow {
  std::unique_lock<std::mutex> lock;  // empty on the dense tier
  const double* dist = nullptr;
  const NodeId* parent = nullptr;  // null for the delay metric
};

RoutingTables::RoutingTables() = default;
RoutingTables::~RoutingTables() = default;
RoutingTables::RoutingTables(RoutingTables&&) noexcept = default;
RoutingTables& RoutingTables::operator=(RoutingTables&&) noexcept = default;

RoutingTables RoutingTables::build(const Network& net,
                                   const RoutingOptions& opts) {
  RoutingTables rt;
  const bool use_sparse =
      opts.mode == RoutingMode::kSparse ||
      (opts.mode == RoutingMode::kAuto &&
       net.node_count() > opts.dense_node_limit);
  if (use_sparse) {
    rt.cache_ = std::make_unique<Cache>();
    rt.cache_->max_rows = std::max<std::size_t>(1, opts.max_cached_rows);
    rt.net_ = &net;
    rt.reset_sparse(net);
  } else {
    rt.rebuild_dense(net);
  }
  return rt;
}

void RoutingTables::rebuild_dense(const Network& net) {
  const std::size_t n = net.node_count();
  n_ = n;
  version_ = net.version();
  // Each dense_row pass writes its whole row, flags included.
  cost_.resize(n * n);
  delay_.resize(n * n);
  parent_.resize(n * n);
  cost_ties_.resize(n);
  adj_ = Adjacency::of(net);
  DistanceHeap heap;
  for (NodeId src = 0; src < n; ++src) dense_row(src, heap);
}

void RoutingTables::dense_row(NodeId src, DistanceHeap& heap) {
  const std::size_t base = static_cast<std::size_t>(src) * n_;
  // Cost-weighted pass: distances and the cost tree cost_path() walks.
  cost_ties_[src] =
      shortest_paths(adj_, adj_.cost.data(), src, cost_.data() + base,
                     parent_.data() + base, heap);
  // Delay-weighted pass for the control plane. Its tree carries only
  // distances, which do not depend on how ties were broken.
  shortest_paths(adj_, adj_.delay.data(), src, delay_.data() + base, nullptr,
                 heap);
}

void RoutingTables::reset_sparse(const Network& net) {
  n_ = net.node_count();
  version_ = net.version();
  cache_->rows.clear();
  cache_->bytes = 0;
  adj_ = Adjacency::of(net);
}

void RoutingTables::check_synced() const {
  // Lazily computed rows read the live network; the cached rows all hold
  // values for `version_`, so computing against a newer network state would
  // silently mix snapshots. sync() first.
  IFLOW_CHECK_MSG(
      net_->version() == version_,
      "sparse routing query against a mutated network (table at version "
          << version_ << ", network at " << net_->version()
          << "): call sync() before querying");
}

RoutingTables::Row& RoutingTables::row_locked(NodeId src, Metric metric,
                                              NodeId dst) const {
  Cache& c = *cache_;
  auto it = c.rows.find(src);
  // A paused delay part holds dst's final distance when it lies below the
  // least queued one, the first in heap order.
  const auto final_at_dst = [&](const Row& r) {
    return !r.delay.empty() &&
           (r.queued.empty() || r.delay[dst] < r.delay[r.queued.front()]);
  };
  const bool held = it != c.rows.end() &&
                    (metric == Metric::kCost ? !it->second.cost.empty()
                                             : final_at_dst(it->second));
  if (!held) {
    check_synced();
    if (it == c.rows.end()) {
      it = c.rows.emplace(src, Row{}).first;
      if (c.rows.size() > c.max_rows) {
        // Evict the least-recently-used row (ticks are unique, so the
        // victim does not depend on map iteration order).
        auto victim = c.rows.end();
        for (auto r = c.rows.begin(); r != c.rows.end(); ++r) {
          if (r->first == src) continue;
          if (victim == c.rows.end() ||
              r->second.last_used < victim->second.last_used) {
            victim = r;
          }
        }
        c.bytes -= Cache::bytes_of(victim->second);
        c.rows.erase(victim);
      }
    }
    Row& row = it->second;
    if (metric == Metric::kCost) {
      row.cost.resize(n_);
      row.parent.resize(n_);
      row.cost_ties = shortest_paths(adj_, adj_.cost.data(), src,
                                     row.cost.data(), row.parent.data(),
                                     c.heap);
      c.bytes += n_ * (sizeof(double) + sizeof(NodeId));
      c.peak_bytes = std::max(c.peak_bytes, c.bytes);
    } else {
      c.run_delay(adj_, src, row, Until{dst});
    }
  }
  it->second.last_used = ++c.tick;
  return it->second;
}

RoutingTables::PinnedRow RoutingTables::pin(NodeId src, Metric metric,
                                            NodeId dst) const {
  IFLOW_CHECK(src < n_);
  const bool by_cost = metric == Metric::kCost;
  if (cache_ == nullptr) {
    const std::size_t base = static_cast<std::size_t>(src) * n_;
    return {{},
            (by_cost ? cost_ : delay_).data() + base,
            by_cost ? parent_.data() + base : nullptr};
  }
  std::unique_lock<std::mutex> lock(cache_->mu);
  const Row& row = row_locked(src, metric, dst);
  return {std::move(lock), (by_cost ? row.cost : row.delay).data(),
          by_cost ? row.parent.data() : nullptr};
}

double RoutingTables::cost(NodeId a, NodeId b) const {
  IFLOW_CHECK(b < n_);
  return pin(a, Metric::kCost).dist[b];
}

double RoutingTables::delay_ms(NodeId a, NodeId b) const {
  IFLOW_CHECK(b < n_);
  return pin(a, Metric::kDelay, b).dist[b];
}

bool RoutingTables::reachable(NodeId a, NodeId b) const {
  return std::isfinite(cost(a, b));
}

std::vector<NodeId> RoutingTables::cost_path(NodeId a, NodeId b) const {
  IFLOW_CHECK(b < n_);
  // One row: the source's predecessor chain gives the whole path.
  const PinnedRow row = pin(a, Metric::kCost);
  if (a == b) return {a};
  if (!std::isfinite(row.dist[b])) return {};
  std::vector<NodeId> path;
  for (NodeId v = b; v != a; v = row.parent[v]) {
    // Each predecessor is a node, and a path visits each node at most once.
    IFLOW_CHECK(v < n_ && path.size() + 1 < n_);
    path.push_back(v);
  }
  path.push_back(a);
  std::reverse(path.begin(), path.end());
  return path;
}

void RoutingTables::fill_costs(NodeId src, const NodeId* dst,
                               std::size_t count, double* out) const {
  const PinnedRow row = pin(src, Metric::kCost);
  for (std::size_t i = 0; i < count; ++i) {
    IFLOW_CHECK(dst[i] < n_);
    out[i] = row.dist[dst[i]];
  }
}

std::size_t RoutingTables::cost_matrix(
    const NodeId* nodes, std::size_t m, double* out,
    std::optional<std::uint64_t> since) const {
  if (cache_ == nullptr) {
    for (std::size_t i = 0; i < m; ++i) {
      fill_costs(nodes[i], nodes, m, out + i * m);
    }
    return m;
  }
  for (std::size_t i = 0; i < m; ++i) IFLOW_CHECK(nodes[i] < n_);
  std::lock_guard<std::mutex> lock(cache_->mu);
  // A matrix row is read once, so a row whose costs the cache does not hold
  // is not worth a cache slot: inserting it would evict rows the planner
  // reads again. resident(src) is src's cached cost part, or null, and
  // full_row(src)[v] = cost(src, v) for every node v.
  const auto resident = [&](NodeId src) -> const double* {
    const auto it = cache_->rows.find(src);
    return it == cache_->rows.end() || it->second.cost.empty()
               ? nullptr
               : it->second.cost.data();
  };
  std::vector<double> dist;
  const auto full_row = [&](NodeId src) -> const double* {
    if (const double* row = resident(src)) return row;
    check_synced();
    dist.resize(n_);
    shortest_paths(adj_, adj_.cost.data(), src, dist.data(), nullptr,
                   cache_->heap);
    return dist.data();
  };
  const auto read = [&](const double* row, double* to) {
    for (std::size_t j = 0; j < m; ++j) to[j] = row[nodes[j]];
  };

  std::optional<std::pair<NodeId, NodeId>> link;
  if (since.has_value()) {
    check_synced();
    IFLOW_CHECK(*since <= version_);
    if (const auto muts = net_->mutations_since(*since); muts.has_value()) {
      const Batch batch = classify(*muts);
      if (batch.quality_only) return 0;
      link = single_link_event(batch);
    }
  }
  if (!link.has_value()) {
    // Every row in full: a resident row's costs are read, and the others
    // are priced region by region, from a search made on the first of them.
    std::optional<RegionPasses> passes;
    for (std::size_t i = 0; i < m; ++i) {
      if (const double* row = resident(nodes[i])) {
        read(row, out + i * m);
        continue;
      }
      if (!passes.has_value()) {
        check_synced();
        passes.emplace(adj_, nodes, m);
      }
      passes->row(nodes[i], cache_->heap, out + i * m);
    }
    return m;
  }

  const auto [a, b] = *link;
  // Any path through the adjacency takes one of its links, the cheapest of
  // which is w.
  double w = kInf;
  for (std::uint32_t e = adj_.first[a]; e < adj_.first[a + 1]; ++e) {
    const Adjacency::Arc arc = adj_.arcs[e];
    if (arc.to == b) w = std::min(w, adj_.cost[arc.link]);
  }
  std::vector<double> from_a(m), from_b(m);
  read(full_row(a), from_a.data());
  read(full_row(b), from_b.data());
  // A simple path through the adjacency (in the old network for a failure,
  // the new one for a restore) splits into an i–a and a b–j part that avoid
  // it, or the mirror image, so its length is at least from_a[i] + w +
  // from_b[j] or from_b[i] + w + from_a[j]. Each Dijkstra value is within
  // (n − 1) roundings of its real length, and `rounding` also covers this
  // test's own three. When the bound clears a stored entry, no such path
  // can tie or beat it, and it is what a fresh Dijkstra returns; every other
  // entry is stale. An infinite entry never clears it.
  const double rounding = 4.0 * static_cast<double>(n_) * kUnitRoundoff;
  std::vector<std::uint8_t> stale(m * m, 0);
  std::vector<std::size_t> order;  // rows with a stale entry
  std::vector<std::size_t> count(m, 0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      const double through = std::min(from_a[i] + w + from_b[j],
                                      from_b[i] + w + from_a[j]);
      if (!(through > out[i * m + j] * (1.0 + rounding))) {
        stale[i * m + j] = 1;
        ++count[i];
      }
    }
    if (count[i] > 0) order.push_back(i);
  }

  // Rows to recompute in full, greedily, most stale entries first: a row is
  // recomputed in full unless each of its stale columns belongs to a row
  // already chosen. Each stale entry of the other rows then gets a
  // goal-directed pass aimed at its column's node.
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) {
                     return count[x] > count[y];
                   });
  std::vector<std::uint8_t> full(m, 0);
  std::vector<std::size_t> full_rows;
  for (const std::size_t i : order) {
    for (std::size_t j = 0; j < m; ++j) {
      if (stale[i * m + j] != 0 && full[j] == 0) {
        full[i] = 1;
        full_rows.push_back(i);
        break;
      }
    }
  }

  // Each full row, then the entries aimed at its node, keyed by the row's
  // distances (links are undirected, so row j bounds the rest of a path to
  // nodes[j] from below). The bound is deflated by the factor 1 − rounding
  // and by rounding times the farthest source aimed at the row, so every
  // node on a best path keys at or below the entry's exact value and the
  // goal pops with the bits a full pass gives it (DESIGN.md §13).
  std::vector<double> potential;
  for (const std::size_t j : full_rows) {
    const double* row = full_row(nodes[j]);
    read(row, out + j * m);
    bool aimed = false;
    double farthest = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      if (full[i] != 0 || stale[i * m + j] == 0) continue;
      aimed = true;
      if (out[j * m + i] < kInf) farthest = std::max(farthest, out[j * m + i]);
    }
    if (!aimed) continue;
    const double shave = rounding * farthest;
    potential.resize(n_);
    for (std::size_t v = 0; v < n_; ++v) {
      potential[v] = std::max(0.0, row[v] * (1.0 - rounding) - shave);
    }
    for (std::size_t i = 0; i < m; ++i) {
      if (full[i] != 0 || stale[i * m + j] == 0) continue;
      if (!(out[j * m + i] < kInf)) {  // no path joins the two nodes
        out[i * m + j] = kInf;
        continue;
      }
      dist.resize(n_);
      shortest_paths(adj_, adj_.cost.data(), nodes[i], dist.data(), nullptr,
                     cache_->heap, Goal{nodes[j], potential.data()});
      out[i * m + j] = dist[nodes[j]];
    }
  }
  return order.size();
}

RoutingSyncStats RoutingTables::sync(const Network& net) {
  std::unique_lock<std::mutex> lock;
  if (cache_ != nullptr) {
    IFLOW_CHECK_MSG(&net == net_,
                    "sparse routing tables are bound to the network instance "
                    "they were built from");
    lock = std::unique_lock<std::mutex>(cache_->mu);
  }
  RoutingSyncStats st;
  std::optional<Batch> batch;
  if (const auto muts = net.mutations_since(version_);
      muts.has_value() && net.node_count() == n_) {
    batch = classify(*muts);
  }
  if (batch.has_value() && batch->quality_only) {
    version_ = net.version();
    st.quality_only = true;
    st.rows_retained = cache_ == nullptr ? n_ : cache_->rows.size();
    return st;
  }
  // Cost changes and added links or nodes rebuild every row, and so does a
  // journal that no longer reaches back to this table's version. The sparse
  // tier empties its cache; its rows come back on use.
  if (!batch.has_value() || batch->reprice) {
    if (cache_ == nullptr) {
      rebuild_dense(net);
    } else {
      reset_sparse(net);
    }
    st.full_rebuild = true;
    return st;
  }

  // Link and node faults and restores. A row whose cost tree holds an
  // equal-cost tie cannot be repaired, since Dijkstra's choice between equal
  // candidates depends on the heap's pop order; nor can the row of a node
  // that crashed or came back. The dense tier recomputes such a row and the
  // sparse tier evicts it, both parts.
  const auto doomed = [&](NodeId src, bool ties) {
    return ties || contains(batch->nodes_down, src) ||
           contains(batch->nodes_up, src);
  };
  // A paused delay part the batch reaches is run to its end over the
  // adjacency as it was, then repaired like a complete part. One it does
  // not reach stays paused: none of its popped nodes has relaxed a changed
  // link, so it is the state a pass over the new network is in at the same
  // point (DESIGN.md §13, "Paused delay parts").
  if (cache_ != nullptr) {
    for (auto& [src, row] : cache_->rows) {
      if (!row.queued.empty() && !doomed(src, row.cost_ties) &&
          reaches(adj_, *batch, row.delay.data(),
                  row.delay[row.queued.front()])) {
        cache_->run_delay(adj_, src, row, NoGoal{});
      }
    }
  }
  // The adjacency flips the usable byte of each link the batch touches, so
  // the passes below read the new state.
  for (const auto& [a, b] : batch->links_down) adj_.refresh_usable(net, a);
  for (const auto& [a, b] : batch->links_up) adj_.refresh_usable(net, a);
  for (const NodeId z : batch->nodes_down) adj_.refresh_usable(net, z);
  for (const NodeId z : batch->nodes_up) adj_.refresh_usable(net, z);
  // Then every complete part a resident row holds is repaired in place
  // (DESIGN.md §13): both on the dense tier, the cost and the delay part a
  // sparse row has computed. A row whose cost repair meets a tie is
  // recomputed or evicted like a doomed one.
  if (repair_ == nullptr) repair_ = std::make_unique<RepairScratch>();
  RepairScratch& scratch = *repair_;
  scratch.fit(n_);
  // The sparse tier's passes share its cache's heap, which the lock guards.
  DistanceHeap& heap = cache_ == nullptr ? scratch.heap : cache_->heap;
  heap.fit(n_);
  const auto repair = [&](NodeId src, bool ties, double* cost, NodeId* parent,
                          double* delay) {
    Repair r = Repair::kTie;
    if (!doomed(src, cost != nullptr && ties)) {
      r = cost == nullptr ? Repair::kUntouched
                          : repair_row(adj_, adj_.cost.data(), *batch, src,
                                       cost, parent, scratch, heap);
    }
    if (r == Repair::kTie) {
      ++st.rows_dropped;
      return false;
    }
    const Repair d = delay == nullptr
                         ? Repair::kUntouched
                         : repair_row(adj_, adj_.delay.data(), *batch, src,
                                      delay, nullptr, scratch, heap);
    if (r == Repair::kRepaired || d == Repair::kRepaired) {
      ++st.rows_patched;
    } else {
      ++st.rows_retained;
    }
    return true;
  };
  if (cache_ == nullptr) {
    for (NodeId src = 0; src < n_; ++src) {
      const std::size_t base = static_cast<std::size_t>(src) * n_;
      if (!repair(src, cost_ties_[src] != 0, cost_.data() + base,
                  parent_.data() + base, delay_.data() + base)) {
        dense_row(src, heap);
      }
    }
  } else {
    const auto part = [](auto& v) { return v.empty() ? nullptr : v.data(); };
    for (auto it = cache_->rows.begin(); it != cache_->rows.end();) {
      Row& row = it->second;
      if (repair(it->first, row.cost_ties, part(row.cost), part(row.parent),
                 row.queued.empty() ? part(row.delay) : nullptr)) {
        ++it;
      } else {
        cache_->bytes -= Cache::bytes_of(row);
        it = cache_->rows.erase(it);
      }
    }
  }
  version_ = net.version();
  return st;
}

std::size_t RoutingTables::cached_rows() const {
  if (cache_ == nullptr) return 0;
  std::lock_guard<std::mutex> lock(cache_->mu);
  return cache_->rows.size();
}

std::size_t RoutingTables::memory_bytes() const {
  if (cache_ == nullptr) return dense_equivalent_bytes(n_);
  std::lock_guard<std::mutex> lock(cache_->mu);
  return cache_->bytes;
}

std::size_t RoutingTables::peak_memory_bytes() const {
  if (cache_ == nullptr) return dense_equivalent_bytes(n_);
  std::lock_guard<std::mutex> lock(cache_->mu);
  return cache_->peak_bytes;
}

std::size_t RoutingTables::dense_equivalent_bytes(std::size_t n) {
  return n * row_bytes(n);
}

}  // namespace iflow::net
