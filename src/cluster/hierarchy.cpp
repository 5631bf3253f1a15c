#include "cluster/hierarchy.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "cluster/kmedoids.h"
#include "net/shortest_path.h"

namespace iflow::cluster {

namespace {

constexpr std::size_t kNoCluster = std::numeric_limits<std::size_t>::max();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Member of `members` minimising the total traversal cost to the rest;
/// deterministic coordinator (re-)election.
net::NodeId elect_coordinator(const std::vector<net::NodeId>& members,
                              const DistanceFn& dist) {
  IFLOW_CHECK(!members.empty());
  net::NodeId best = members.front();
  double best_sum = kInf;
  for (auto c : members) {
    double sum = 0.0;
    for (auto m : members) sum += dist(c, m);
    if (sum < best_sum) {
      best_sum = sum;
      best = c;
    }
  }
  return best;
}

/// Largest finite entry of an induced_distances matrix (0 for a
/// singleton): that leaf cluster's share of d(1) on the scale path.
double diameter_of(const std::vector<double>& induced) {
  double d = 0.0;
  for (const double v : induced) {
    if (std::isfinite(v)) d = std::max(d, v);
  }
  return d;
}

double induced_diameter(const net::Network& net,
                        const std::vector<net::NodeId>& members) {
  return diameter_of(induced_distances(net, members));
}

net::NodeId elect_coordinator(const std::vector<net::NodeId>& members,
                              const net::RoutingTables& rt) {
  return elect_coordinator(
      members, [&rt](std::uint32_t a, std::uint32_t b) { return rt.cost(a, b); });
}

/// Clusters `items` level by level until a single cluster covers them,
/// appending each level to `levels`; each level's coordinators are the
/// items of the next.
void cluster_upward(std::vector<net::NodeId> items, int max_cs,
                    const DistanceFn& dist, Prng& prng,
                    std::vector<std::vector<Cluster>>& levels) {
  while (true) {
    std::vector<Cluster> level;
    if (items.size() <= static_cast<std::size_t>(max_cs)) {
      Cluster top;
      top.members = std::move(items);
      top.coordinator = elect_coordinator(top.members, dist);
      level.push_back(std::move(top));
      levels.push_back(std::move(level));
      return;
    }
    const int k = static_cast<int>((items.size() + max_cs - 1) /
                                   static_cast<std::size_t>(max_cs));
    KMedoidsResult km =
        k_medoids(items, k, static_cast<std::size_t>(max_cs), dist, prng);
    IFLOW_CHECK_MSG(km.clusters.size() >= 2,
                    "clustering must make progress above max_cs nodes");
    std::vector<net::NodeId> next;
    next.reserve(km.clusters.size());
    for (std::size_t c = 0; c < km.clusters.size(); ++c) {
      Cluster cl;
      cl.members.assign(km.clusters[c].begin(), km.clusters[c].end());
      cl.coordinator = km.medoids[c];
      next.push_back(cl.coordinator);
      level.push_back(std::move(cl));
    }
    levels.push_back(std::move(level));
    items = std::move(next);
  }
}

}  // namespace

std::vector<double> induced_distances(
    const net::Network& net, const std::vector<net::NodeId>& members) {
  const std::size_t m = members.size();
  std::unordered_map<net::NodeId, std::uint32_t> local;
  local.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    local[members[i]] = static_cast<std::uint32_t>(i);
  }
  // Induced adjacency over local ids: only usable links with both endpoints
  // inside the set, each arc with its own weight slot.
  net::Adjacency g;
  g.first.reserve(m + 1);
  for (std::size_t i = 0; i < m; ++i) {
    g.first.push_back(static_cast<std::uint32_t>(g.arcs.size()));
    for (auto idx : net.incident(members[i])) {
      if (!net.usable(idx)) continue;
      const net::Link& l = net.links()[idx];
      const net::NodeId other = (l.a == members[i]) ? l.b : l.a;
      const auto it = local.find(other);
      if (it == local.end()) continue;
      g.arcs.push_back({it->second, static_cast<std::uint32_t>(g.cost.size())});
      g.cost.push_back(l.cost_per_byte);
    }
  }
  g.first.push_back(static_cast<std::uint32_t>(g.arcs.size()));
  g.usable.assign(g.cost.size(), 1);
  std::vector<double> mat(m * m);
  net::DistanceHeap heap;
  for (std::size_t s = 0; s < m; ++s) {
    net::shortest_paths(g, g.cost.data(), static_cast<net::NodeId>(s),
                        mat.data() + s * m, nullptr, heap);
  }
  return mat;
}

Hierarchy Hierarchy::build(const net::Network& net,
                           const net::RoutingTables& rt, int max_cs,
                           Prng& prng) {
  IFLOW_CHECK_MSG(max_cs >= 2, "max_cs must be at least 2");
  IFLOW_CHECK(net.node_count() > 0);
  Hierarchy h;
  h.max_cs_ = max_cs;
  h.node_count_ = net.node_count();

  std::vector<net::NodeId> items(net.node_count());
  for (std::size_t i = 0; i < items.size(); ++i) {
    items[i] = static_cast<net::NodeId>(i);
  }
  cluster_upward(std::move(items), max_cs,
                 [&rt](std::uint32_t a, std::uint32_t b) {
                   return rt.cost(a, b);
                 },
                 prng, h.levels_);
  h.price_coordinators(rt);
  h.rebuild_derived(rt);
  return h;
}

Hierarchy Hierarchy::build_partitioned(
    const net::Network& net, const net::RoutingTables& rt,
    const std::vector<std::vector<net::NodeId>>& partitions, int max_cs,
    Prng& prng) {
  IFLOW_CHECK_MSG(max_cs >= 2, "max_cs must be at least 2");
  IFLOW_CHECK(!partitions.empty());
  Hierarchy h;
  h.max_cs_ = max_cs;
  h.node_count_ = net.node_count();
  h.local_leaf_metrics_ = true;
  h.net_ = &net;

  // Level 1: each partition becomes one cluster (or, when it exceeds
  // max_cs, a local k-medoids split of it). All metrics here are induced —
  // the global routing tables are never consulted per physical node.
  std::vector<Cluster> leaf_level;
  // Each leaf cluster's induced diameter; a partition that fits in max_cs
  // takes it from the distances its coordinator election computed.
  std::vector<double> diameters;
  // pos[v]: v's index in its partition, or kUncovered. Partitions are
  // disjoint, so one NodeId-indexed vector serves them all.
  constexpr std::uint32_t kUncovered =
      std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> pos(net.node_count(), kUncovered);
  std::size_t covered = 0;
  for (const auto& part : partitions) {
    IFLOW_CHECK_MSG(!part.empty(), "empty partition");
    for (std::size_t i = 0; i < part.size(); ++i) {
      const net::NodeId v = part[i];
      IFLOW_CHECK(v < net.node_count());
      IFLOW_CHECK_MSG(pos[v] == kUncovered,
                      "node " << v << " in two partitions");
      pos[v] = static_cast<std::uint32_t>(i);
      ++covered;
    }
    const std::vector<double> local = induced_distances(net, part);
    const std::size_t m = part.size();
    const DistanceFn dist = [&local, &pos, m](std::uint32_t a,
                                              std::uint32_t b) {
      return local[static_cast<std::size_t>(pos[a]) * m + pos[b]];
    };
    if (part.size() <= static_cast<std::size_t>(max_cs)) {
      Cluster cl;
      cl.members = part;
      cl.coordinator = elect_coordinator(cl.members, dist);
      leaf_level.push_back(std::move(cl));
      diameters.push_back(diameter_of(local));
      continue;
    }
    const int k = static_cast<int>((part.size() + max_cs - 1) /
                                   static_cast<std::size_t>(max_cs));
    KMedoidsResult km =
        k_medoids(part, k, static_cast<std::size_t>(max_cs), dist, prng);
    for (std::size_t c = 0; c < km.clusters.size(); ++c) {
      Cluster cl;
      cl.members.assign(km.clusters[c].begin(), km.clusters[c].end());
      cl.coordinator = km.medoids[c];
      diameters.push_back(induced_diameter(net, cl.members));
      leaf_level.push_back(std::move(cl));
    }
  }
  IFLOW_CHECK_MSG(covered == net.node_count(),
                  "partitions cover " << covered << " of "
                                      << net.node_count() << " nodes");
  std::vector<net::NodeId> items;
  items.reserve(leaf_level.size());
  for (const auto& cl : leaf_level) items.push_back(cl.coordinator);
  h.levels_.push_back(std::move(leaf_level));

  // Levels >= 2 cluster the promoted coordinators over true routing costs.
  // Each of them is a leaf coordinator, so the coordinator matrix prices
  // every round and is then kept for est_cost.
  const std::size_t leaves = items.size();
  h.price_coordinators(rt);
  std::vector<std::size_t> leaf(net.node_count());  // a coordinator's index
  for (std::size_t i = 0; i < leaves; ++i) leaf[items[i]] = i;
  cluster_upward(std::move(items), max_cs,
                 [&](std::uint32_t a, std::uint32_t b) {
                   return h.coord_cost_[leaf[a] * leaves + leaf[b]];
                 },
                 prng, h.levels_);

  h.rebuild_derived(rt, std::move(diameters));
  return h;
}

const std::vector<Cluster>& Hierarchy::level(int l) const {
  IFLOW_CHECK(l >= 1 && l <= height());
  return levels_[static_cast<std::size_t>(l - 1)];
}

std::vector<net::NodeId> Hierarchy::nodes_at(int l) const {
  std::vector<net::NodeId> nodes;
  for (const auto& c : level(l)) {
    nodes.insert(nodes.end(), c.members.begin(), c.members.end());
  }
  return nodes;
}

net::NodeId Hierarchy::representative(net::NodeId n, int l) const {
  IFLOW_CHECK(l >= 1 && l <= height());
  IFLOW_CHECK(n < node_count_);
  const net::NodeId rep = rep_[static_cast<std::size_t>(l - 1)][n];
  IFLOW_CHECK_MSG(rep != net::kInvalidNode, "node not in hierarchy");
  return rep;
}

std::size_t Hierarchy::cluster_of(net::NodeId member, int l) const {
  IFLOW_CHECK(l >= 1 && l <= height());
  IFLOW_CHECK(member < node_count_);
  const std::size_t idx = cluster_idx_[static_cast<std::size_t>(l - 1)][member];
  IFLOW_CHECK_MSG(idx != kNoCluster, "node does not participate at level");
  return idx;
}

double Hierarchy::d(int l) const {
  IFLOW_CHECK(l >= 1 && l <= height());
  return d_[static_cast<std::size_t>(l - 1)];
}

bool Hierarchy::contains(net::NodeId n) const {
  return n < node_count_ && rep_[0][n] != net::kInvalidNode;
}

double Hierarchy::est_cost(net::NodeId a, net::NodeId b, int l) const {
  double cost = 0.0;
  fill_est_costs(a, &b, 1, l, &cost);
  return cost;
}

void Hierarchy::fill_est_costs(net::NodeId a, const net::NodeId* b,
                               std::size_t count, int l, double* out) const {
  IFLOW_CHECK(rt_ != nullptr);
  IFLOW_CHECK(l >= 1 && l <= height());
  IFLOW_CHECK(a < node_count_);
  const std::vector<net::NodeId>& rep = rep_[static_cast<std::size_t>(l - 1)];
  bool any = false;  // some destination is in the hierarchy
  for (std::size_t i = 0; i < count; ++i) {
    IFLOW_CHECK(b[i] < node_count_);
    any |= rep[b[i]] != net::kInvalidNode;
  }
  const net::NodeId ra = rep[a];
  if (ra == net::kInvalidNode || !any) {
    std::fill(out, out + count, kInf);
    return;
  }
  if (l == 1) {
    // Level-1 representatives are the nodes themselves.
    rt_->fill_costs(ra, b, count, out);
    for (std::size_t i = 0; i < count; ++i) {
      if (rep[b[i]] == net::kInvalidNode) out[i] = kInf;
    }
    return;
  }
  const std::vector<std::size_t>& leaf = cluster_idx_[0];
  const double* row = coord_cost_.data() + leaf[ra] * levels_[0].size();
  for (std::size_t i = 0; i < count; ++i) {
    const net::NodeId rb = rep[b[i]];
    out[i] = rb == net::kInvalidNode ? kInf : row[leaf[rb]];
    // Fails when costs changed under the hierarchy without a refresh().
    IFLOW_DCHECK(rb == net::kInvalidNode || out[i] == rt_->cost(ra, rb));
  }
}

std::size_t Hierarchy::memory_bytes() const {
  std::size_t bytes =
      (d_.size() + leaf_diameter_.size() + coord_cost_.size()) *
      sizeof(double);
  for (const auto& clusters : levels_) {
    for (const auto& cl : clusters) {
      bytes += sizeof(Cluster) + cl.members.size() * sizeof(net::NodeId);
    }
  }
  for (const auto& idx : cluster_idx_) {
    bytes += idx.size() * sizeof(std::size_t);
  }
  for (const auto& rep : rep_) bytes += rep.size() * sizeof(net::NodeId);
  for (const auto& level : underlying_) {
    for (const auto& u : level) {
      bytes += sizeof(u) + u.size() * sizeof(net::NodeId);
    }
  }
  return bytes;
}

const std::vector<net::NodeId>& Hierarchy::underlying(net::NodeId coord,
                                                      int l) const {
  IFLOW_CHECK(l >= 1 && l <= height());
  IFLOW_CHECK(coord < node_count_);
  const auto& u = underlying_[static_cast<std::size_t>(l - 1)][coord];
  IFLOW_CHECK_MSG(!u.empty(), "node does not participate at level");
  return u;
}

std::size_t Hierarchy::refresh(const net::RoutingTables& rt) {
  // The clusters stay as they are, so the structure tables do too.
  IFLOW_CHECK_MSG(rt.node_count() == node_count_,
                  "refresh against a table over " << rt.node_count()
                                                  << " nodes; the hierarchy has "
                                                  << node_count_);
  // Only the table the matrix was read from can replay what changed since.
  std::optional<std::uint64_t> since;
  if (&rt == rt_) since = coord_version_;
  const std::size_t rows = price_coordinators(rt, since);
  measure_levels(rt);
  return rows;
}

std::size_t Hierarchy::price_coordinators(const net::RoutingTables& rt,
                                          std::optional<std::uint64_t> since) {
  std::vector<net::NodeId> coords;
  coords.reserve(levels_[0].size());
  for (const auto& cl : levels_[0]) coords.push_back(cl.coordinator);
  const std::size_t leaves = coords.size();
  IFLOW_CHECK(!since.has_value() || coord_cost_.size() == leaves * leaves);
  coord_cost_.resize(leaves * leaves);
  const std::size_t rows =
      rt.cost_matrix(coords.data(), leaves, coord_cost_.data(), since);
  coord_version_ = rt.built_against();
#ifndef NDEBUG
  if (since.has_value()) {
    // Every entry the update kept or recomputed must hold what a full
    // recompute gives.
    std::vector<double> full(coord_cost_.size());
    rt.cost_matrix(coords.data(), leaves, full.data());
    IFLOW_CHECK(std::memcmp(full.data(), coord_cost_.data(),
                            full.size() * sizeof(double)) == 0);
  }
#endif
  return rows;
}

void Hierarchy::rebuild_derived(const net::RoutingTables& rt,
                                std::vector<double> leaf_diameters) {
  node_count_ = rt.node_count();
  const std::size_t n = node_count_;
  const std::size_t h = levels_.size();

  cluster_idx_.assign(h, std::vector<std::size_t>(n, kNoCluster));
  rep_.assign(h, std::vector<net::NodeId>(n, net::kInvalidNode));
  underlying_.assign(h, std::vector<std::vector<net::NodeId>>(n));
  for (std::size_t li = 0; li < h; ++li) {
    for (std::size_t ci = 0; ci < levels_[li].size(); ++ci) {
      for (auto m : levels_[li][ci].members) {
        IFLOW_CHECK(m < n);
        cluster_idx_[li][m] = ci;
      }
    }
  }

  // Representatives: identity at level 1 (for nodes present), then the
  // coordinator chain.
  for (const auto& cl : levels_[0]) {
    for (auto m : cl.members) rep_[0][m] = m;
  }
  for (std::size_t li = 1; li < h; ++li) {
    for (net::NodeId node = 0; node < n; ++node) {
      const net::NodeId below = rep_[li - 1][node];
      if (below == net::kInvalidNode) continue;
      rep_[li][node] =
          levels_[li - 1][cluster_idx_[li - 1][below]].coordinator;
    }
  }

  // Underlying physical sets: singletons at level 1, unions of the level
  // below for promoted coordinators.
  for (const auto& cl : levels_[0]) {
    for (auto m : cl.members) underlying_[0][m] = {m};
  }
  for (std::size_t li = 1; li < h; ++li) {
    for (const auto& cl : levels_[li - 1]) {
      auto& u = underlying_[li][cl.coordinator];
      for (auto m : cl.members) {
        const auto& sub = underlying_[li - 1][m];
        u.insert(u.end(), sub.begin(), sub.end());
      }
    }
  }
  // The clusters changed, so every leaf is measured afresh unless the
  // caller has just measured them.
  leaf_diameter_ = std::move(leaf_diameters);
  if (!leaf_diameter_.empty()) leaf_version_ = net_->version();
  measure_levels(rt);
}

void Hierarchy::measure_levels(const net::RoutingTables& rt) {
  rt_ = &rt;
  d_.assign(levels_.size(), 0.0);
  std::size_t li = 0;
  if (local_leaf_metrics_) {
    measure_leaves();
    li = 1;
  }
  for (; li < levels_.size(); ++li) {
    for (const Cluster& cl : levels_[li]) {
      // Members above level 1 are leaf coordinators.
      for (auto a : cl.members) {
        for (auto b : cl.members) {
          d_[li] =
              std::max(d_[li], li == 0 ? rt.cost(a, b) : coord_cost(a, b));
        }
      }
    }
  }
  ++version_;
}

void Hierarchy::measure_leaves() {
  // Scale path: d(1) from each cluster's induced subgraph — an upper bound
  // on the true intra-cluster cost, never a routing row per physical node.
  const std::vector<Cluster>& leaves = levels_[0];
  std::vector<std::uint8_t> stale(leaves.size(), 1);
  std::optional<std::vector<net::Mutation>> muts;
  if (!leaf_diameter_.empty()) muts = net_->mutations_since(leaf_version_);
  if (muts.has_value()) {
    // A cluster's induced subgraph changes only with a fault or restore of
    // a link inside it or of a member; a cost change or an added link can
    // reach any of them.
    const net::Batch batch = net::classify(*muts);
    std::fill(stale.begin(), stale.end(), batch.reprice ? 1 : 0);
    const auto mark = [&](net::NodeId v) {
      if (v < node_count_ && cluster_idx_[0][v] != kNoCluster) {
        stale[cluster_idx_[0][v]] = 1;
      }
    };
    for (const auto& [a, b] : batch.links_down) {
      mark(a);
      mark(b);
    }
    for (const auto& [a, b] : batch.links_up) {
      mark(a);
      mark(b);
    }
    for (const net::NodeId v : batch.nodes_down) mark(v);
    for (const net::NodeId v : batch.nodes_up) mark(v);
  }
  leaf_diameter_.resize(leaves.size());
  for (std::size_t ci = 0; ci < leaves.size(); ++ci) {
    if (stale[ci] != 0) {
      leaf_diameter_[ci] = induced_diameter(*net_, leaves[ci].members);
    }
  }
  leaf_version_ = net_->version();
  // A max is exact, so d(1) has the bits a full measure gives it.
  for (const double d : leaf_diameter_) d_[0] = std::max(d_[0], d);
#ifndef NDEBUG
  if (muts.has_value()) {
    double full = 0.0;
    for (const Cluster& cl : leaves) {
      full = std::max(full, induced_diameter(*net_, cl.members));
    }
    IFLOW_CHECK(std::memcmp(&full, &d_[0], sizeof(double)) == 0);
  }
#endif
}

void Hierarchy::add_node(net::NodeId n, const net::RoutingTables& rt,
                         Prng& prng) {
  IFLOW_CHECK(n < rt.node_count());
  // Descend from the top, at each level into the cluster coordinated by the
  // closest member (paper's join protocol).
  std::size_t ci = 0;  // the single top-level cluster
  for (int l = height(); l >= 2; --l) {
    const Cluster& cl = levels_[static_cast<std::size_t>(l - 1)][ci];
    net::NodeId closest = cl.members.front();
    double best = std::numeric_limits<double>::infinity();
    for (auto m : cl.members) {
      const double c = rt.cost(n, m);
      if (c < best) {
        best = c;
        closest = m;
      }
    }
    ci = cluster_of(closest, l - 1);
  }
  levels_[0][ci].members.push_back(n);
  handle_overflow(1, ci, rt, prng);
  price_coordinators(rt);
  rebuild_derived(rt);
}

void Hierarchy::handle_overflow(int level, std::size_t cluster_index,
                                const net::RoutingTables& rt, Prng& prng) {
  auto& clusters = levels_[static_cast<std::size_t>(level - 1)];
  Cluster& cl = clusters[cluster_index];
  if (cl.members.size() <= static_cast<std::size_t>(max_cs_)) {
    return;
  }
  const net::NodeId old_coord = cl.coordinator;
  const DistanceFn dist = [&rt](std::uint32_t a, std::uint32_t b) {
    return rt.cost(a, b);
  };
  KMedoidsResult split = k_medoids(cl.members, 2,
                                   static_cast<std::size_t>(max_cs_), dist,
                                   prng);
  IFLOW_CHECK(split.clusters.size() == 2);
  cl.members = split.clusters[0];
  cl.coordinator = split.medoids[0];
  Cluster sibling;
  sibling.members = split.clusters[1];
  sibling.coordinator = split.medoids[1];
  clusters.push_back(std::move(sibling));
  const net::NodeId c1 = clusters[cluster_index].coordinator;
  const net::NodeId c2 = clusters.back().coordinator;

  if (level == height()) {
    // The (previously single) top cluster split: grow the hierarchy.
    Cluster top;
    top.members = {c1, c2};
    top.coordinator = elect_coordinator(top.members, rt);
    levels_.push_back({std::move(top)});
    return;
  }

  // Patch the parent membership: old_coord's slot becomes c1, c2 is a new
  // promotion.
  auto& parent_clusters = levels_[static_cast<std::size_t>(level)];
  std::size_t pci = kNoCluster;
  for (std::size_t i = 0; i < parent_clusters.size() && pci == kNoCluster;
       ++i) {
    for (auto m : parent_clusters[i].members) {
      if (m == old_coord) {
        pci = i;
        break;
      }
    }
  }
  IFLOW_CHECK_MSG(pci != kNoCluster, "promoted coordinator missing above");
  Cluster& parent = parent_clusters[pci];
  std::replace(parent.members.begin(), parent.members.end(), old_coord, c1);
  parent.members.push_back(c2);
  if (parent.coordinator == old_coord && c1 != old_coord) {
    // The parent's coordinator id is no longer one of its members: re-elect
    // and repair the promotion chain upward (each level's membership holds
    // the coordinator promoted from below; when that coordinator changes,
    // the entry above must change with it, possibly cascading).
    Cluster* cur = &parent;
    for (std::size_t li = static_cast<std::size_t>(level) + 1;; ++li) {
      const net::NodeId old_promoted = cur->coordinator;
      cur->coordinator = elect_coordinator(cur->members, rt);
      const net::NodeId new_promoted = cur->coordinator;
      if (old_promoted == new_promoted || li >= levels_.size()) break;
      Cluster* next = nullptr;
      for (auto& anc : levels_[li]) {
        const auto it =
            std::find(anc.members.begin(), anc.members.end(), old_promoted);
        if (it == anc.members.end()) continue;
        *it = new_promoted;
        if (anc.coordinator == old_promoted) next = &anc;
        break;
      }
      if (next == nullptr) break;  // chain above is intact
      cur = next;
    }
  }
  handle_overflow(level + 1, pci, rt, prng);
}

void Hierarchy::remove_node(net::NodeId n, const net::RoutingTables& rt) {
  IFLOW_CHECK(n < node_count_);
  // Walk the promotion chain upward. `present` is the id that occurs in the
  // current level's membership; `replacement` is what it becomes there
  // (kInvalidNode = plain erasure, when the cluster below vanished).
  net::NodeId present = n;
  net::NodeId replacement = net::kInvalidNode;

  for (std::size_t li = 0; li < levels_.size(); ++li) {
    auto& clusters = levels_[li];
    std::size_t idx = kNoCluster;
    for (std::size_t i = 0; i < clusters.size(); ++i) {
      if (std::find(clusters[i].members.begin(), clusters[i].members.end(),
                    present) != clusters[i].members.end()) {
        idx = i;
        break;
      }
    }
    IFLOW_CHECK_MSG(idx != kNoCluster || li > 0, "node not in hierarchy");
    if (idx == kNoCluster) break;  // `present` was never promoted this far

    Cluster& cl = clusters[idx];
    auto it = std::find(cl.members.begin(), cl.members.end(), present);
    if (replacement == net::kInvalidNode) {
      cl.members.erase(it);
    } else {
      *it = replacement;
    }

    if (cl.members.empty()) {
      // `present` was the sole member, hence also the coordinator; the
      // cluster vanishes and its promotion above must be erased.
      clusters.erase(clusters.begin() + static_cast<std::ptrdiff_t>(idx));
      replacement = net::kInvalidNode;
      continue;  // keep walking with the same `present` id
    }
    if (cl.coordinator == present) {
      cl.coordinator = elect_coordinator(cl.members, rt);
      // Above this level the old promotion carries the id `present`; it
      // must now read as the freshly elected coordinator.
      replacement = cl.coordinator;
      continue;
    }
    break;  // coordinator unaffected: memberships above are intact
  }

  // Drop levels that emptied out entirely, then collapse redundant
  // singleton tops (a one-cluster level above a one-cluster level carries no
  // information).
  while (!levels_.empty() && levels_.back().empty()) levels_.pop_back();
  IFLOW_CHECK_MSG(!levels_.empty(), "cannot remove the last node");
  while (levels_.size() > 1 && levels_.back().size() == 1 &&
         levels_[levels_.size() - 2].size() == 1) {
    levels_.pop_back();
  }

  price_coordinators(rt);
  rebuild_derived(rt);
}

void Hierarchy::validate(const net::Network& net) const {
  IFLOW_CHECK(!levels_.empty());
  // Level-1 members are distinct physical nodes, each cluster within
  // capacity, coordinator a member.
  std::unordered_set<net::NodeId> seen;
  for (const auto& levelClusters : levels_) {
    IFLOW_CHECK(!levelClusters.empty());
    for (const auto& cl : levelClusters) {
      IFLOW_CHECK(!cl.members.empty());
      IFLOW_CHECK(cl.members.size() <= static_cast<std::size_t>(max_cs_));
      IFLOW_CHECK(std::find(cl.members.begin(), cl.members.end(),
                            cl.coordinator) != cl.members.end());
    }
  }
  for (const auto& cl : levels_[0]) {
    for (auto m : cl.members) {
      IFLOW_CHECK(m < net.node_count());
      IFLOW_CHECK_MSG(seen.insert(m).second, "node in two level-1 clusters");
    }
  }
  // Members at level l (>= 2) are exactly the coordinators of level l-1.
  for (std::size_t li = 1; li < levels_.size(); ++li) {
    std::vector<net::NodeId> promoted;
    for (const auto& cl : levels_[li - 1]) promoted.push_back(cl.coordinator);
    std::vector<net::NodeId> members;
    for (const auto& cl : levels_[li]) {
      members.insert(members.end(), cl.members.begin(), cl.members.end());
    }
    std::sort(promoted.begin(), promoted.end());
    std::sort(members.begin(), members.end());
    IFLOW_CHECK_MSG(promoted == members,
                    "level " << li + 1 << " membership != promotions");
  }
  // Exactly one top-level cluster.
  IFLOW_CHECK(levels_.back().size() == 1);
}

}  // namespace iflow::cluster
