#include "opt/search/sparse_oracle.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "cluster/theory.h"

namespace iflow::opt {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

/// Lazily built per-leaf-cluster distance sketch over the cluster's induced
/// subgraph. Small clusters keep the full member × member matrix (estimates
/// are induced-exact, slack d(1)); larger ones keep pivot rows only and
/// answer min_p d(a,p) + d(p,b) (slack 2·d(1), since the coordinator is
/// always a pivot).
struct SparseOracle::LeafSketch {
  std::vector<net::NodeId> members;
  std::unordered_map<net::NodeId, std::uint32_t> pos;
  /// Row-major: full |m| × |m| induced matrix, or |pivots| × |m| rows.
  std::vector<double> rows;
  bool full = false;

  double local(std::uint32_t a, std::uint32_t b) const {
    if (full) return rows[static_cast<std::size_t>(a) * members.size() + b];
    double best = kInf;
    const std::size_t m = members.size();
    for (std::size_t p = 0; p * m < rows.size(); ++p) {
      best = std::min(best, rows[p * m + a] + rows[p * m + b]);
    }
    return best;
  }

  std::size_t bytes() const {
    return rows.size() * sizeof(double) +
           members.size() * (sizeof(net::NodeId) + sizeof(std::uint32_t) * 2);
  }
};

SparseOracle::SparseOracle(const net::Network& net,
                           const net::RoutingTables& rt,
                           const cluster::Hierarchy& h,
                           SparseOracleOptions opts)
    : net_(&net), rt_(&rt), h_(&h), opts_(opts) {
  IFLOW_CHECK(opts_.pivots_per_cluster >= 1);
  built_rt_ = rt.built_against();
  built_h_ = h.version();
}

SparseOracle::~SparseOracle() = default;

void SparseOracle::refresh() {
  std::lock_guard<std::mutex> lock(mu_);
  sketches_.clear();
  built_rt_ = rt_->built_against();
  built_h_ = h_->version();
}

std::uint64_t SparseOracle::stamp() const {
  return built_rt_ * 0x9E3779B97F4A7C15ULL ^ built_h_;
}

std::size_t SparseOracle::memory_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = 0;
  for (const auto& [idx, sk] : sketches_) total += sk->bytes();
  return total;
}

const SparseOracle::LeafSketch& SparseOracle::sketch_locked(
    std::size_t cluster_index) const {
  auto it = sketches_.find(cluster_index);
  if (it != sketches_.end()) return *it->second;

  auto sk = std::make_unique<LeafSketch>();
  sk->members = h_->level(1)[cluster_index].members;
  const std::size_t m = sk->members.size();
  for (std::size_t i = 0; i < m; ++i) {
    sk->pos[sk->members[i]] = static_cast<std::uint32_t>(i);
  }
  std::vector<double> local = cluster::induced_distances(*net_, sk->members);
  if (m <= 2 * opts_.pivots_per_cluster) {
    sk->full = true;
    sk->rows = std::move(local);
  } else {
    // Landmarks: the coordinator (so every estimate is bounded by
    // d(a,c) + d(c,b) <= 2·d(1)), then farthest-point sampling for
    // coverage. Deterministic: ties resolve to the lowest member index.
    const std::uint32_t coord =
        sk->pos.at(h_->level(1)[cluster_index].coordinator);
    std::vector<std::uint32_t> pivots{coord};
    std::vector<double> nearest(m);
    for (std::size_t i = 0; i < m; ++i) nearest[i] = local[coord * m + i];
    while (pivots.size() < opts_.pivots_per_cluster) {
      std::uint32_t far = coord;
      double far_d = -1.0;
      for (std::uint32_t i = 0; i < m; ++i) {
        const double nd = std::isfinite(nearest[i]) ? nearest[i] : -1.0;
        if (nd > far_d) {
          far_d = nd;
          far = i;
        }
      }
      if (far_d <= 0.0) break;  // everything already covered (or isolated)
      pivots.push_back(far);
      for (std::size_t i = 0; i < m; ++i) {
        nearest[i] = std::min(nearest[i], local[far * m + i]);
      }
    }
    sk->rows.resize(pivots.size() * m);
    for (std::size_t p = 0; p < pivots.size(); ++p) {
      for (std::size_t i = 0; i < m; ++i) {
        sk->rows[p * m + i] = local[static_cast<std::size_t>(pivots[p]) * m + i];
      }
    }
  }
  it = sketches_.emplace(cluster_index, std::move(sk)).first;
  return *it->second;
}

SparseEstimate SparseOracle::estimate(net::NodeId a, net::NodeId b) const {
  IFLOW_DCHECK(rt_->built_against() == built_rt_ && h_->version() == built_h_);
  if (a == b) return {0.0, 0.0};
  if (!h_->contains(a) || !h_->contains(b)) return {kInf, 0.0};

  const std::size_t ca = h_->cluster_of(a, 1);
  const std::size_t cb = h_->cluster_of(b, 1);
  if (ca == cb) {
    // Sketches are only sound against an induced-based d(1); hierarchies
    // built the classic way answer leaves exactly instead.
    if (opts_.exact_leaves || !h_->local_leaf_metrics()) {
      return {rt_->cost(a, b), 0.0};
    }
    SparseEstimate est;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const LeafSketch& sk = sketch_locked(ca);
      est.value = sk.local(sk.pos.at(a), sk.pos.at(b));
      est.slack = (sk.full ? 1.0 : 2.0) * h_->d(1);
    }
    if (!std::isfinite(est.value)) {
      // The induced subgraph is disconnected but the pair may still be
      // reachable through the rest of the network: fall back to exact.
      return {rt_->cost(a, b), 0.0};
    }
    return est;
  }

  // Cross-cluster: Theorem-1 estimate at the lowest level where the two
  // representatives share a cluster (the tightest available slack).
  for (int l = 2; l <= h_->height(); ++l) {
    const net::NodeId ra = h_->representative(a, l);
    const net::NodeId rb = h_->representative(b, l);
    if (h_->cluster_of(ra, l) == h_->cluster_of(rb, l)) {
      return {h_->est_cost(a, b, l), cluster::theorem1_slack(*h_, l)};
    }
  }
  // Unreachable in the hierarchy sense (cannot happen with a single top
  // cluster, but keep the contract total).
  return {kInf, 0.0};
}

double SparseOracle::distance(net::NodeId a, net::NodeId b) const {
  return estimate(a, b).value;
}

double SparseOracle::slack(net::NodeId a, net::NodeId b) const {
  return estimate(a, b).slack;
}

void SparseOracle::validate_pair(net::NodeId a, net::NodeId b) const {
  const SparseEstimate est = estimate(a, b);
  const double exact = rt_->cost(a, b);
  if (!std::isfinite(est.value) || !std::isfinite(exact)) {
    // An infinite estimate is only allowed for genuinely severed pairs —
    // nodes outside the hierarchy (crashed) or unreachable in the network.
    const bool severed = !h_->contains(a) || !h_->contains(b) ||
                         !std::isfinite(exact);
    IFLOW_CHECK_MSG(severed || std::isfinite(est.value),
                    "finite pair (" << a << ", " << b
                                    << ") estimated as unreachable");
    return;
  }
  const double eps = 1e-9 * (1.0 + exact + est.slack);
  IFLOW_CHECK_MSG(std::abs(est.value - exact) <= est.slack + eps,
                  "estimate " << est.value << " for (" << a << ", " << b
                              << ") outside slack " << est.slack
                              << " of exact " << exact);
}

}  // namespace iflow::opt
