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
/// The region of a node outside every single-homed region.
constexpr std::uint32_t kCore = std::numeric_limits<std::uint32_t>::max();

template <typename T>
bool contains(const std::vector<T>& v, T x) {
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

/// Scratch space for repairing dense rows in place: O(n), kept with the
/// table and reused across syncs, rows and metrics.
struct RepairScratch {
  /// A node is invalidated or improved in the current pass when its stamp
  /// equals `pass`. The stamps are zeroed only when `pass` wraps.
  std::vector<std::uint32_t> stamp;
  std::uint32_t pass = 0;
  std::vector<NodeId> touched;  // stamped nodes, in stamping order
  DistanceHeap heap;

  /// Sizes the scratch for an n-node table; a no-op when it already is.
  void fit(std::size_t n) {
    heap.fit(n);
    if (stamp.size() == n) return;
    stamp.assign(n, 0);
    pass = 0;
  }
};

namespace {

enum class Repair : std::uint8_t { kUntouched, kRepaired, kTie };

/// Repairs one source row of one metric in place after a batch of link and node
/// faults and restores, over `g` (its usable bytes already patched to the
/// network after the batch) under the per-link weight `w`, with the scratch's
/// heap fitted to the table's n and empty, and adds the pops to `pops`.
/// `parent` is the row's cost tree, which cost_path() walks; it is null for the
/// delay metric, whose tree carries only distances. The nodes the batch cut off
/// are invalidated, they and the nodes a restore improves are seeded, and the
/// kernel's settle() finishes the pass, so each recomputed value has the bits a
/// fresh pass gives it as long as every node's parent is the unique best
/// candidate. When the cost repair meets an equal candidate it returns kTie
/// with the row partly rewritten, and the row must be recomputed in full.
Repair repair_row(const Adjacency& g, const double* w, const Batch& batch,
                  NodeId src, double* dist, NodeId* parent, RepairScratch& s,
                  std::uint64_t& pops) {
  const bool cost_tree = parent != nullptr;
  DistanceHeap& heap = s.heap;
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
  const Settled settled = settle(g, w, dist, parent, heap);
  pops += settled.pops;
  if (settled.tie && cost_tree) return Repair::kTie;
  return s.touched.empty() ? Repair::kUntouched : Repair::kRepaired;
}

/// Bytes one dense source row occupies: cost and delay distances and one
/// predecessor per destination.
std::size_t row_bytes(std::size_t n) {
  return n * (2 * sizeof(double) + sizeof(NodeId));
}

/// The single-homed regions of a network (DESIGN.md §13, "Single-homed
/// regions"): the far sides of its topmost bridges, the sides without the
/// root of a depth-first search over every link, usable or not. Every path
/// from outside a region enters it over its bridge, from its attachment
/// node t to its gateway g. Faults and restores never change them.
struct Regions {
  struct Region {
    NodeId attach = kInvalidNode;   // t, in the core
    NodeId gateway = kInvalidNode;  // g, its end of the bridge
    std::uint32_t link = 0;         // the bridge
    std::uint32_t begin = 0;        // its nodes: members[begin, end)
    std::uint32_t end = 0;
  };
  std::vector<std::uint32_t> of;  // per node: its region, or kCore
  std::vector<Region> list;
  /// The search's preorder, in which each region's nodes are contiguous.
  std::vector<NodeId> members;
  /// The adjacency's usable bytes with every bridge closed: a pass over
  /// them never crosses from the core into a region or back.
  std::vector<std::uint8_t> open;

  Regions() = default;

  explicit Regions(const Adjacency& g) {
    const std::size_t n = g.first.size() - 1;
    of.assign(n, kCore);
    open = g.usable;
    if (n == 0) return;
    const auto arcs = [&](NodeId v) { return g.first[v + 1] - g.first[v]; };
    NodeId root = 0;
    for (NodeId v = 1; v < n; ++v) {
      if (arcs(v) > arcs(root)) root = v;
    }
    // Tarjan's bridges, rooted at the node with the most arcs (the lowest id
    // on a tie): a tree arc into v over link via[v] is a bridge when no arc
    // from v's subtree but that link reaches above v, so a doubled link
    // never is one.
    constexpr std::uint32_t kNoLink = std::numeric_limits<std::uint32_t>::max();
    std::vector<std::uint32_t> disc(n, 0), low(n, 0), next(n), via(n, kNoLink);
    std::vector<NodeId> parent(n, kInvalidNode), stack;
    std::uint32_t clock = 0;
    const auto visit = [&](NodeId v) {
      disc[v] = low[v] = ++clock;
      next[v] = g.first[v];
      members.push_back(v);
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
      if (arc.link == via[u]) continue;
      if (disc[arc.to] == 0) {
        parent[arc.to] = u;
        via[arc.to] = arc.link;
        visit(arc.to);
      } else {
        low[u] = std::min(low[u], disc[arc.to]);
      }
    }
    // In preorder a node's parent comes first: a node below a region's
    // gateway joins it, and a bridge out of the core opens one, the subtree.
    for (std::uint32_t k = 1; k < members.size(); ++k) {
      const NodeId v = members[k];
      const NodeId t = parent[v];
      if (of[t] == kCore && low[v] > disc[t]) {
        of[v] = static_cast<std::uint32_t>(list.size());
        list.push_back({t, v, via[v], k, k});
        open[via[v]] = 0;
      } else {
        of[v] = of[t];
      }
      if (of[v] != kCore) list[of[v]].end = k + 1;
    }
  }

  /// Seeds a pass across region k's usable bridge, into it from t or out
  /// from g, with dist + w when the near end is reached.
  void cross(const Adjacency& g, const double* w, std::uint32_t k, bool into,
             double* dist, NodeId* parent, DistanceHeap& heap) const {
    const Region& r = list[k];
    const NodeId x = into ? r.attach : r.gateway;
    const NodeId y = into ? r.gateway : r.attach;
    if (g.usable[r.link] == 0 || !(dist[x] < kInf)) return;
    dist[y] = dist[x] + w[r.link];
    if (parent != nullptr) parent[y] = x;
    heap.push_or_decrease(y, dist[y]);
  }
};

}  // namespace

/// Sparse-tier state: the network's single-homed regions, the bounded row
/// cache with the bytes its parts hold, and the heap its passes share.
struct RoutingTables::Cache {
  Regions regions;
  std::size_t max_rows = 512;
  std::mutex mu;
  std::unordered_map<NodeId, Row> rows;
  std::uint64_t tick = 0;
  std::size_t bytes = 0;
  std::size_t peak_bytes = 0;
  DistanceHeap heap;

  /// Bytes a sparse row holds: 12 per entry for the cost part (distance and
  /// predecessor) and 8 for the delay part.
  static std::size_t bytes_of(const Row& r) {
    return (r.cost.dist.size() + r.delay.dist.size()) * sizeof(double) +
           r.parent.size() * sizeof(NodeId);
  }

  /// Settles region r of the `metric` part of src's row, or, for kCore,
  /// starts it: N entries at +inf, then src's home region and the core
  /// (DESIGN.md §13, "Region parts"). A cost pass that meets an equal
  /// candidate is redone as one full pass. Returns the pops.
  std::uint64_t settle_part(const Adjacency& g, Metric metric, NodeId src,
                            Row& row, std::uint32_t r) {
    const bool by_cost = metric == Metric::kCost;
    Part& part = by_cost ? row.cost : row.delay;
    const double* w = by_cost ? g.cost.data() : g.delay.data();
    const std::size_t n = g.first.size() - 1;
    if (r == kCore) {
      const std::size_t held = bytes_of(row);
      part.dist.assign(n, kInf);
      part.settled.assign(regions.list.size(), false);
      if (by_cost) row.parent.assign(n, kInvalidNode);
      bytes += bytes_of(row) - held;
      peak_bytes = std::max(peak_bytes, bytes);
    }
    double* dist = part.dist.data();
    NodeId* parent = by_cost ? row.parent.data() : nullptr;
    heap.fit(n);
    Settled s;
    if (r == kCore) {
      dist[src] = 0.0;
      heap.push_or_decrease(src, 0.0);
      const std::uint32_t home = regions.of[src];
      if (home != kCore) {
        s = settle(g, w, dist, parent, heap, NoGoal{}, regions.open.data());
        part.settled[home] = true;
        regions.cross(g, w, home, false, dist, parent, heap);
      }
    } else {
      part.settled[r] = true;
      regions.cross(g, w, r, true, dist, parent, heap);
    }
    const Settled last =
        settle(g, w, dist, parent, heap, NoGoal{}, regions.open.data());
    s = {s.tie || last.tie, s.pops + last.pops};
    if (by_cost && s.tie) {
      const Settled full = shortest_paths(g, w, src, dist, parent, heap);
      row.cost_ties = full.tie;
      part.settled.assign(part.settled.size(), true);
      s.pops += full.pops;
    }
    return s.pops;
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
    rt.work_.row_pops = rt.rebuild_dense(net);
  }
  return rt;
}

std::uint64_t RoutingTables::rebuild_dense(const Network& net) {
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
  std::uint64_t pops = 0;
  for (NodeId src = 0; src < n; ++src) pops += dense_row(src, heap);
  return pops;
}

std::uint64_t RoutingTables::dense_row(NodeId src, DistanceHeap& heap) {
  const std::size_t base = static_cast<std::size_t>(src) * n_;
  // Cost-weighted pass: distances and the cost tree cost_path() walks.
  const Settled by_cost =
      shortest_paths(adj_, adj_.cost.data(), src, cost_.data() + base,
                     parent_.data() + base, heap);
  cost_ties_[src] = by_cost.tie;
  // Delay-weighted pass for the control plane. Its tree carries only
  // distances, which do not depend on how ties were broken.
  return by_cost.pops + shortest_paths(adj_, adj_.delay.data(), src,
                                       delay_.data() + base, nullptr, heap)
                            .pops;
}

void RoutingTables::reset_sparse(const Network& net) {
  n_ = net.node_count();
  version_ = net.version();
  cache_->rows.clear();
  cache_->bytes = 0;
  adj_ = Adjacency::of(net);
  cache_->regions = Regions(adj_);
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
                                              const NodeId* dst,
                                              std::size_t count) const {
  Cache& c = *cache_;
  auto it = c.rows.find(src);
  if (it == c.rows.end()) {
    check_synced();
    it = c.rows.emplace(src, Row{}).first;
    if (c.rows.size() > c.max_rows) {
      // Evict the least-recently-used row (ticks are unique, so the victim
      // does not depend on map iteration order).
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
  const Part& part = metric == Metric::kCost ? row.cost : row.delay;
  const auto settle_region = [&](std::uint32_t r) {
    check_synced();
    work_.row_pops += c.settle_part(adj_, metric, src, row, r);
  };
  if (part.dist.empty()) settle_region(kCore);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t r = c.regions.of[dst[i]];
    if (r != kCore && !part.settled[r]) settle_region(r);
  }
  row.last_used = ++c.tick;
  return row;
}

inline RoutingTables::PinnedRow RoutingTables::pin(NodeId src, Metric metric,
                                                   const NodeId* dst,
                                                   std::size_t count) const {
  IFLOW_CHECK(src < n_);
  const bool by_cost = metric == Metric::kCost;
  if (cache_ == nullptr) {
    const std::size_t base = static_cast<std::size_t>(src) * n_;
    return {{},
            (by_cost ? cost_ : delay_).data() + base,
            by_cost ? parent_.data() + base : nullptr};
  }
  std::unique_lock<std::mutex> lock(cache_->mu);
  const Row& row = row_locked(src, metric, dst, count);
  return {std::move(lock), (by_cost ? row.cost : row.delay).dist.data(),
          by_cost ? row.parent.data() : nullptr};
}

double RoutingTables::cost(NodeId a, NodeId b) const {
  IFLOW_CHECK(b < n_);
  return pin(a, Metric::kCost, &b, 1).dist[b];
}

double RoutingTables::delay_ms(NodeId a, NodeId b) const {
  IFLOW_CHECK(b < n_);
  return pin(a, Metric::kDelay, &b, 1).dist[b];
}

bool RoutingTables::reachable(NodeId a, NodeId b) const {
  return std::isfinite(cost(a, b));
}

std::vector<NodeId> RoutingTables::cost_path(NodeId a, NodeId b) const {
  IFLOW_CHECK(b < n_);
  // One row: the source's predecessor chain gives the whole path.
  const PinnedRow row = pin(a, Metric::kCost, &b, 1);
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
  for (std::size_t i = 0; i < count; ++i) IFLOW_CHECK(dst[i] < n_);
  const PinnedRow row = pin(src, Metric::kCost, dst, count);
  for (std::size_t i = 0; i < count; ++i) out[i] = row.dist[dst[i]];
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
  Cache& c = *cache_;
  std::uint64_t& pops = work_.matrix_pops;
  // A matrix row is read once, so a row whose costs the cache does not hold
  // is not worth a cache slot: inserting it would evict rows the planner
  // reads again. `targets` holds (region, node) of the list's nodes in
  // regions, by region. resident(src) is src's cached cost part with those
  // regions settled, or null; full_row(src)[v] = cost(src, v) for every v
  // of the core and of those regions.
  std::vector<std::pair<std::uint32_t, NodeId>> targets;
  for (std::size_t j = 0; j < m; ++j) {
    const std::uint32_t r = c.regions.of[nodes[j]];
    if (r != kCore) targets.emplace_back(r, nodes[j]);
  }
  std::sort(targets.begin(), targets.end());
  const auto resident = [&](NodeId src) -> const double* {
    const auto it = c.rows.find(src);
    if (it == c.rows.end() || it->second.cost.dist.empty()) return nullptr;
    Row& row = it->second;
    for (const auto& [r, v] : targets) {
      if (row.cost.settled[r]) continue;
      check_synced();
      pops += c.settle_part(adj_, Metric::kCost, src, row, r);
    }
    return row.cost.dist.data();
  };
  std::vector<double> dist;
  const auto full_row = [&](NodeId src) -> const double* {
    if (const double* row = resident(src)) return row;
    check_synced();
    dist.resize(n_);
    pops += shortest_paths(adj_, adj_.cost.data(), src, dist.data(), nullptr,
                           c.heap)
                .pops;
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
    // are priced region by region (DESIGN.md §13, "Single-homed regions").
    const double* w = adj_.cost.data();
    const auto run = [&](const auto& target) {
      pops += settle(adj_, w, dist.data(), nullptr, c.heap, target,
                     c.regions.open.data())
                  .pops;
    };
    for (std::size_t i = 0; i < m; ++i) {
      if (const double* row = resident(nodes[i])) {
        read(row, out + i * m);
        continue;
      }
      check_synced();
      dist.assign(n_, kInf);
      c.heap.fit(n_);
      dist[nodes[i]] = 0.0;
      c.heap.push_or_decrease(nodes[i], 0.0);
      const std::uint32_t home = c.regions.of[nodes[i]];
      if (home != kCore) {
        // A source inside a region settles it first; every path out of it
        // crosses to t.
        run(NoGoal{});
        c.regions.cross(adj_, w, home, false, dist.data(), nullptr, c.heap);
      }
      run(NoGoal{});  // the core
      // Each other region's pass settles until each of its targets is final.
      for (std::size_t k = 0; k < targets.size(); ++k) {
        const auto [r, v] = targets[k];
        if (r == home) continue;
        if (k == 0 || targets[k - 1].first != r) {
          c.heap.clear();
          c.regions.cross(adj_, w, r, true, dist.data(), nullptr, c.heap);
        }
        run(Until{v});
      }
      c.heap.clear();
      read(dist.data(), out + i * m);
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
  // goal pops with the bits a full pass gives it (DESIGN.md §13). A
  // resident full row is +inf in the regions it has not settled, which no
  // best path between two of the nodes enters.
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
      pops += shortest_paths(adj_, adj_.cost.data(), nodes[i], dist.data(),
                             nullptr, c.heap, Goal{nodes[j], potential.data()})
                  .pops;
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
  // tier empties its cache and finds its regions again; its rows come back
  // on use.
  if (!batch.has_value() || batch->reprice) {
    if (cache_ == nullptr) {
      work_.sync_pops += rebuild_dense(net);
    } else {
      reset_sparse(net);
    }
    st.full_rebuild = true;
    return st;
  }
  // Link and node faults and restores. The adjacency flips the usable byte
  // of each link the batch touches, so the passes below read the new state;
  // on the sparse tier so do the bytes with the bridges closed (only a
  // bridge joins two sides), and each event is the core's (a core node, a
  // link with both ends in the core) or one region's, a bridge included
  // (DESIGN.md §13, "Region parts").
  bool core = false;
  std::vector<std::uint32_t> touched;
  const auto patch = [&](NodeId v, NodeId other_end) {
    adj_.refresh_usable(net, v);
    if (cache_ == nullptr) return;
    Regions& reg = cache_->regions;
    for (const std::uint32_t idx : net.incident(v)) {
      const Link& l = net.links()[idx];
      reg.open[idx] = reg.of[l.a] == reg.of[l.b] ? adj_.usable[idx] : 0;
    }
    const std::uint32_t r = reg.of[reg.of[v] == kCore ? other_end : v];
    core = core || r == kCore;
    if (r != kCore) touched.push_back(r);
  };
  for (const auto& [a, b] : batch->links_down) patch(a, b);
  for (const auto& [a, b] : batch->links_up) patch(a, b);
  for (const NodeId z : batch->nodes_down) patch(z, z);
  for (const NodeId z : batch->nodes_up) patch(z, z);
  if (cache_ == nullptr) {
    // Every row is repaired in place (DESIGN.md §13), both metrics, but for
    // one whose cost tree holds an equal-cost tie (Dijkstra's choice between
    // equal candidates depends on the pop order) or whose source crashed or
    // came back, which is recomputed like one whose cost repair meets a tie.
    if (repair_ == nullptr) repair_ = std::make_unique<RepairScratch>();
    RepairScratch& scratch = *repair_;
    scratch.fit(n_);
    for (NodeId src = 0; src < n_; ++src) {
      const std::size_t base = static_cast<std::size_t>(src) * n_;
      Repair r = Repair::kTie;
      if (cost_ties_[src] == 0 && !contains(batch->nodes_down, src) &&
          !contains(batch->nodes_up, src)) {
        r = repair_row(adj_, adj_.cost.data(), *batch, src,
                       cost_.data() + base, parent_.data() + base, scratch,
                       work_.sync_pops);
      }
      if (r == Repair::kTie) {
        ++st.rows_dropped;
        work_.sync_pops += dense_row(src, scratch.heap);
        continue;
      }
      const Repair d = repair_row(adj_, adj_.delay.data(), *batch, src,
                                  delay_.data() + base, nullptr, scratch,
                                  work_.sync_pops);
      if (r == Repair::kRepaired || d == Repair::kRepaired) {
        ++st.rows_patched;
      } else {
        ++st.rows_retained;
      }
    }
  } else {
    Cache& c = *cache_;
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    // A row re-settles each touched region it holds; its other values keep
    // their bits. A core or home-region event (its source's own crash or
    // restore is one) reaches every value, and a full pass that met a tie
    // may break it otherwise after any fault: those rows are evicted.
    for (auto it = c.rows.begin(); it != c.rows.end();) {
      Row& row = it->second;
      if (core || row.cost_ties || contains(touched, c.regions.of[it->first])) {
        ++st.rows_dropped;
        c.bytes -= Cache::bytes_of(row);
        it = c.rows.erase(it);
        continue;
      }
      bool patched = false;
      for (const std::uint32_t r : touched) {
        for (const Metric metric : {Metric::kCost, Metric::kDelay}) {
          Part& part = metric == Metric::kCost ? row.cost : row.delay;
          if (part.dist.empty() || !part.settled[r]) continue;
          const Regions::Region& reg = c.regions.list[r];
          for (std::uint32_t k = reg.begin; k < reg.end; ++k) {
            const NodeId v = c.regions.members[k];
            part.dist[v] = kInf;
            if (metric == Metric::kCost) row.parent[v] = kInvalidNode;
          }
          work_.sync_pops += c.settle_part(adj_, metric, it->first, row, r);
          patched = true;
        }
      }
      ++(patched ? st.rows_patched : st.rows_retained);
      ++it;
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

RoutingWork RoutingTables::work() const {
  if (cache_ == nullptr) return work_;
  std::lock_guard<std::mutex> lock(cache_->mu);
  return work_;
}

}  // namespace iflow::net
