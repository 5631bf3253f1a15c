#include "net/network.h"

#include <algorithm>
#include <queue>

namespace iflow::net {

namespace {

/// Entries retained in the mutation journal. Large enough that any
/// within-reaction reader (middleware sync after each fault entry point,
/// chaos replay) never falls off the tail; falling off just costs a full
/// rebuild, never correctness.
constexpr std::size_t kMutationLogCapacity = 4096;

void check_degradation(const Degradation& d) {
  IFLOW_CHECK_MSG(d.slowdown >= 1.0, "slowdown must be >= 1");
  IFLOW_CHECK_MSG(d.loss >= 0.0 && d.loss < 1.0,
                  "degradation loss must be in [0, 1)");
  IFLOW_CHECK_MSG(d.flap_hz >= 0.0, "negative flap frequency");
}

}  // namespace

Batch classify(const std::vector<Mutation>& muts) {
  Batch b;
  for (const Mutation& m : muts) {
    if (m.kind != MutationKind::kQuality) b.quality_only = false;
    switch (m.kind) {
      case MutationKind::kTopology:
      case MutationKind::kLinkCost:
        b.reprice = true;
        break;
      case MutationKind::kLinkDown:
        b.links_down.emplace_back(m.a, m.b);
        break;
      case MutationKind::kLinkUp:
        b.links_up.emplace_back(m.a, m.b);
        break;
      case MutationKind::kNodeDown:
        b.nodes_down.push_back(m.a);
        break;
      case MutationKind::kNodeUp:
        b.nodes_up.push_back(m.a);
        break;
      case MutationKind::kQuality:
        break;
    }
  }
  return b;
}

void Network::record(MutationKind kind, NodeId a, NodeId b) {
  ++version_;
  const Mutation m{version_, kind, a, b};
  if (log_.size() < kMutationLogCapacity) {
    log_.push_back(m);
    return;
  }
  log_base_ = log_[log_head_].version;
  log_[log_head_] = m;
  log_head_ = (log_head_ + 1) % log_.size();
}

std::optional<std::vector<Mutation>> Network::mutations_since(
    std::uint64_t since) const {
  if (since < log_base_) return std::nullopt;
  std::vector<Mutation> out;
  // Versions are consecutive: v sits v - log_base_ - 1 past the oldest.
  for (std::uint64_t v = since + 1; v <= version_; ++v) {
    out.push_back(log_[(log_head_ + (v - log_base_ - 1)) % log_.size()]);
  }
  return out;
}

NodeId Network::add_node(NodeKind kind) {
  kinds_.push_back(kind);
  alive_.push_back(1);
  node_degradation_.emplace_back();
  incident_.emplace_back();
  return static_cast<NodeId>(kinds_.size() - 1);
}

void Network::add_link(NodeId a, NodeId b, double cost_per_byte,
                       double delay_ms, double bandwidth_bps) {
  IFLOW_CHECK_MSG(a < node_count() && b < node_count(), "endpoint out of range");
  IFLOW_CHECK_MSG(a != b, "self-link");
  IFLOW_CHECK_MSG(cost_per_byte > 0.0, "link cost must be positive");
  IFLOW_CHECK_MSG(delay_ms >= 0.0, "negative delay");
  IFLOW_CHECK_MSG(bandwidth_bps > 0.0, "bandwidth must be positive");
  Link l;
  l.a = a;
  l.b = b;
  l.cost_per_byte = cost_per_byte;
  l.delay_ms = delay_ms;
  l.bandwidth_bps = bandwidth_bps;
  links_.push_back(l);
  const auto idx = static_cast<std::uint32_t>(links_.size() - 1);
  incident_[a].push_back(idx);
  incident_[b].push_back(idx);
  record(MutationKind::kTopology, a, b);
}

void Network::set_link_cost(NodeId a, NodeId b, double cost_per_byte) {
  IFLOW_CHECK_MSG(cost_per_byte > 0.0, "link cost must be positive");
  for (auto idx : incident(a)) {
    Link& l = links_[idx];
    if ((l.a == a && l.b == b) || (l.a == b && l.b == a)) {
      l.cost_per_byte = cost_per_byte;
      record(MutationKind::kLinkCost, a, b);
      return;
    }
  }
  IFLOW_CHECK_MSG(false, "no link between " << a << " and " << b);
}

void Network::set_link_loss(NodeId a, NodeId b, double loss) {
  IFLOW_CHECK_MSG(loss >= 0.0 && loss < 1.0, "loss must be in [0, 1)");
  bool found = false;
  for (auto idx : incident(a)) {
    Link& l = links_[idx];
    if ((l.a == a && l.b == b) || (l.a == b && l.b == a)) {
      l.loss = loss;
      found = true;
    }
  }
  IFLOW_CHECK_MSG(found, "no link between " << a << " and " << b);
  record(MutationKind::kQuality, a, b);
}

void Network::set_link_jitter(NodeId a, NodeId b, double jitter_ms) {
  IFLOW_CHECK_MSG(jitter_ms >= 0.0, "negative jitter");
  bool found = false;
  for (auto idx : incident(a)) {
    Link& l = links_[idx];
    if ((l.a == a && l.b == b) || (l.a == b && l.b == a)) {
      l.jitter_ms = jitter_ms;
      found = true;
    }
  }
  IFLOW_CHECK_MSG(found, "no link between " << a << " and " << b);
  record(MutationKind::kQuality, a, b);
}

void Network::degrade_link(NodeId a, NodeId b, const Degradation& d) {
  check_degradation(d);
  bool found = false;
  for (auto idx : incident(a)) {
    Link& l = links_[idx];
    if ((l.a == a && l.b == b) || (l.a == b && l.b == a)) {
      l.degradation = d;
      found = true;
    }
  }
  IFLOW_CHECK_MSG(found, "no link between " << a << " and " << b);
  record(MutationKind::kQuality, a, b);
}

void Network::degrade_node(NodeId n, const Degradation& d) {
  IFLOW_CHECK(n < node_count());
  check_degradation(d);
  node_degradation_[n] = d;
  record(MutationKind::kQuality, n, kInvalidNode);
}

const Degradation& Network::node_degradation(NodeId n) const {
  IFLOW_CHECK(n < node_count());
  return node_degradation_[n];
}

void Network::fail_link(NodeId a, NodeId b) {
  bool found = false;
  bool changed = false;
  for (auto idx : incident(a)) {
    Link& l = links_[idx];
    if ((l.a == a && l.b == b) || (l.a == b && l.b == a)) {
      found = true;
      if (l.up) {
        l.up = false;
        changed = true;
      }
    }
  }
  IFLOW_CHECK_MSG(found, "no link between " << a << " and " << b);
  IFLOW_CHECK_MSG(changed, "link " << a << "-" << b << " is already down");
  record(MutationKind::kLinkDown, a, b);
}

void Network::restore_link(NodeId a, NodeId b) {
  bool found = false;
  bool changed = false;
  for (auto idx : incident(a)) {
    Link& l = links_[idx];
    if ((l.a == a && l.b == b) || (l.a == b && l.b == a)) {
      found = true;
      if (!l.up) {
        l.up = true;
        changed = true;
      }
    }
  }
  IFLOW_CHECK_MSG(found, "no link between " << a << " and " << b);
  IFLOW_CHECK_MSG(changed, "link " << a << "-" << b << " is not down");
  record(MutationKind::kLinkUp, a, b);
}

void Network::crash_node(NodeId n) {
  IFLOW_CHECK(n < node_count());
  IFLOW_CHECK_MSG(alive_[n], "node " << n << " is already crashed");
  alive_[n] = 0;
  record(MutationKind::kNodeDown, n, kInvalidNode);
}

void Network::restore_node(NodeId n) {
  IFLOW_CHECK(n < node_count());
  IFLOW_CHECK_MSG(!alive_[n], "node " << n << " is not crashed");
  alive_[n] = 1;
  record(MutationKind::kNodeUp, n, kInvalidNode);
}

bool Network::node_alive(NodeId n) const {
  IFLOW_CHECK(n < node_count());
  return alive_[n] != 0;
}

bool Network::link_up(std::uint32_t link_index) const {
  IFLOW_CHECK(link_index < links_.size());
  return links_[link_index].up;
}

bool Network::usable(std::uint32_t link_index) const {
  IFLOW_CHECK(link_index < links_.size());
  const Link& l = links_[link_index];
  return l.up && alive_[l.a] != 0 && alive_[l.b] != 0;
}

std::uint32_t Network::cheapest_usable_link(NodeId a, NodeId b) const {
  std::uint32_t best = kInvalidLink;
  double best_cost = std::numeric_limits<double>::infinity();
  for (auto idx : incident(a)) {
    const Link& l = links_[idx];
    const bool matches = (l.a == a && l.b == b) || (l.a == b && l.b == a);
    if (matches && usable(idx) && l.cost_per_byte < best_cost) {
      best = idx;
      best_cost = l.cost_per_byte;
    }
  }
  return best;
}

NodeKind Network::kind(NodeId n) const {
  IFLOW_CHECK(n < node_count());
  return kinds_[n];
}

const std::vector<std::uint32_t>& Network::incident(NodeId n) const {
  IFLOW_CHECK(n < node_count());
  return incident_[n];
}

bool Network::connected() const {
  const std::size_t alive_total = static_cast<std::size_t>(
      std::count(alive_.begin(), alive_.end(), char{1}));
  if (alive_total == 0) return true;
  std::vector<char> seen(node_count(), 0);
  std::queue<NodeId> frontier;
  NodeId start = kInvalidNode;
  for (NodeId n = 0; n < node_count(); ++n) {
    if (alive_[n]) {
      start = n;
      break;
    }
  }
  frontier.push(start);
  seen[start] = 1;
  std::size_t reached = 1;
  while (!frontier.empty()) {
    const NodeId n = frontier.front();
    frontier.pop();
    for (auto idx : incident_[n]) {
      if (!usable(idx)) continue;
      const Link& l = links_[idx];
      const NodeId other = (l.a == n) ? l.b : l.a;
      if (!seen[other]) {
        seen[other] = 1;
        ++reached;
        frontier.push(other);
      }
    }
  }
  return reached == alive_total;
}

}  // namespace iflow::net
