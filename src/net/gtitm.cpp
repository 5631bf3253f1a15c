#include "net/gtitm.h"

#include <cmath>

namespace iflow::net {

namespace {

/// Probability of an extra (non-spanning-tree) edge inside a stub domain,
/// per candidate pair. GT-ITM stub domains are sparse random graphs.
constexpr double kStubExtraEdgeProb = 0.15;
/// Probability of an extra edge between transit-node pairs beyond the
/// connectivity ring.
constexpr double kTransitExtraEdgeProb = 0.3;

/// Per-byte link cost ranges. Transit links are far more expensive than
/// intranet links.
constexpr double kStubCostMin = 1.0, kStubCostMax = 3.0;
constexpr double kGatewayCostMin = 4.0, kGatewayCostMax = 8.0;
constexpr double kTransitCostMin = 10.0, kTransitCostMax = 20.0;

/// Uniform link bandwidth (Emulab prototype links).
constexpr double kBandwidthBps = 1.0e6;

/// Connects a stub domain's `members` into a random spanning tree (each
/// node links to a uniformly chosen earlier node), then sprinkles extra
/// edges; this mirrors the sparse random intra-domain graphs GT-ITM
/// produces while guaranteeing connectivity.
void wire_domain(Network& net, const std::vector<NodeId>& members,
                 const TransitStubParams& p, Prng& prng) {
  for (std::size_t i = 1; i < members.size(); ++i) {
    const NodeId prior = members[prng.index(i)];
    net.add_link(members[i], prior, prng.uniform(kStubCostMin, kStubCostMax),
                 prng.uniform(p.delay_min_ms, p.delay_max_ms), kBandwidthBps);
  }
  for (std::size_t i = 0; i < members.size(); ++i) {
    for (std::size_t j = i + 2; j < members.size(); ++j) {
      if (prng.chance(kStubExtraEdgeProb)) {
        net.add_link(members[i], members[j],
                     prng.uniform(kStubCostMin, kStubCostMax),
                     prng.uniform(p.delay_min_ms, p.delay_max_ms),
                     kBandwidthBps);
      }
    }
  }
}

}  // namespace

Network make_transit_stub(const TransitStubParams& p, Prng& prng) {
  IFLOW_CHECK(p.transit_count >= 1);
  IFLOW_CHECK(p.stub_domains_per_transit >= 1);
  IFLOW_CHECK(p.stub_domain_size >= 1);
  Network net;

  std::vector<NodeId> transit;
  transit.reserve(static_cast<std::size_t>(p.transit_count));
  for (int i = 0; i < p.transit_count; ++i) {
    transit.push_back(net.add_node(NodeKind::kTransit));
  }
  // Backbone: connectivity ring plus random chords.
  if (p.transit_count > 1) {
    for (int i = 0; i < p.transit_count; ++i) {
      const NodeId a = transit[static_cast<std::size_t>(i)];
      const NodeId b = transit[static_cast<std::size_t>((i + 1) % p.transit_count)];
      if (i + 1 == p.transit_count && p.transit_count == 2) break;  // ring of 2 = 1 edge
      net.add_link(a, b, prng.uniform(kTransitCostMin, kTransitCostMax),
                   prng.uniform(p.delay_min_ms, p.delay_max_ms),
                   kBandwidthBps);
    }
    for (int i = 0; i < p.transit_count; ++i) {
      for (int j = i + 2; j < p.transit_count; ++j) {
        if (i == 0 && j == p.transit_count - 1) continue;  // ring edge already
        if (prng.chance(kTransitExtraEdgeProb)) {
          net.add_link(transit[static_cast<std::size_t>(i)],
                       transit[static_cast<std::size_t>(j)],
                       prng.uniform(kTransitCostMin, kTransitCostMax),
                       prng.uniform(p.delay_min_ms, p.delay_max_ms),
                       kBandwidthBps);
        }
      }
    }
  }

  // Stub domains, each hung off its transit node through a gateway link.
  for (int t = 0; t < p.transit_count; ++t) {
    for (int d = 0; d < p.stub_domains_per_transit; ++d) {
      std::vector<NodeId> members;
      members.reserve(static_cast<std::size_t>(p.stub_domain_size));
      for (int s = 0; s < p.stub_domain_size; ++s) {
        members.push_back(net.add_node(NodeKind::kStub));
      }
      wire_domain(net, members, p, prng);
      const NodeId gateway = prng.pick(members);
      net.add_link(gateway, transit[static_cast<std::size_t>(t)],
                   prng.uniform(kGatewayCostMin, kGatewayCostMax),
                   prng.uniform(p.delay_min_ms, p.delay_max_ms),
                   kBandwidthBps);
    }
  }

  IFLOW_CHECK(net.connected());
  IFLOW_CHECK(static_cast<int>(net.node_count()) == p.total_nodes());
  return net;
}

int stub_domain_count(const TransitStubParams& p) {
  return p.transit_count * p.stub_domains_per_transit;
}

std::vector<NodeId> stub_domain_members(const TransitStubParams& p,
                                        int index) {
  IFLOW_CHECK(index >= 0 && index < stub_domain_count(p));
  const NodeId first = static_cast<NodeId>(
      p.transit_count + index * p.stub_domain_size);
  std::vector<NodeId> members;
  members.reserve(static_cast<std::size_t>(p.stub_domain_size));
  for (int s = 0; s < p.stub_domain_size; ++s) {
    members.push_back(first + static_cast<NodeId>(s));
  }
  return members;
}

TransitStubParams scale_to(int target_nodes) {
  IFLOW_CHECK(target_nodes >= 8);
  TransitStubParams p;
  // Keep the paper's shape (4 stub domains of 8 per transit node => 33
  // nodes per transit node) and grow the backbone.
  const int per_transit = 1 + p.stub_domains_per_transit * p.stub_domain_size;
  p.transit_count =
      std::max(1, static_cast<int>(std::lround(static_cast<double>(target_nodes) /
                                               per_transit)));
  // Adjust stub domain size to land near the target.
  const int remaining = target_nodes - p.transit_count;
  const int domains = p.transit_count * p.stub_domains_per_transit;
  p.stub_domain_size = std::max(1, (remaining + domains / 2) / domains);
  return p;
}

}  // namespace iflow::net
