// Test worlds shared by the routing suites.
#pragma once

#include <cmath>

#include "net/gtitm.h"
#include "net/network.h"

namespace iflow::net {

/// The same topology with every link's cost and delay rounded down to an
/// integer: equal-cost paths become common, so Dijkstra's tie-breaking
/// decides many parents.
inline Network with_integer_weights(const Network& net) {
  Network out;
  for (NodeId v = 0; v < net.node_count(); ++v) out.add_node(net.kind(v));
  for (const Link& l : net.links()) {
    out.add_link(l.a, l.b, std::floor(l.cost_per_byte), std::floor(l.delay_ms),
                 l.bandwidth_bps);
  }
  return out;
}

/// A transit–stub shape whose transit nodes out-degree every stub node:
/// eight gateway links and two ring links each, against at most seven
/// domain links and one gateway link. The region search roots at the node
/// with the most arcs, so here its core is the transit ring and each stub
/// domain is one single-homed region.
inline TransitStubParams rooted_in_transit() {
  TransitStubParams p;
  p.transit_count = 3;
  p.stub_domains_per_transit = 8;
  return p;
}

}  // namespace iflow::net
