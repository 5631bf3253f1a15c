// Transit–stub topology generation in the style of GT-ITM
// (Zegura, Calvert, Bhattacharjee — "How to model an internetwork",
// INFOCOM '96), which the paper uses for all simulated networks.
//
// Structure: one transit domain of `transit_count` backbone nodes; each
// transit node anchors `stub_domains_per_transit` stub domains of
// `stub_domain_size` nodes. Stub (intranet) links are cheap, transit
// (long-haul) links expensive — reproducing the paper's cost assignment
// ("links in the stub domains had lower costs than those in the transit
// domain").
#pragma once

#include "common/prng.h"
#include "net/network.h"

namespace iflow::net {

/// Parameters of the transit–stub generator. The defaults reproduce the
/// paper's main 128-node-class configuration (1 transit domain of 4 nodes,
/// 4 stub domains of 8 nodes per transit node). Edge densities, per-byte
/// cost ranges and the link bandwidth are fixed by the generator
/// (gtitm.cpp): the paper varies the network's size, not its cost model.
struct TransitStubParams {
  int transit_count = 4;
  int stub_domains_per_transit = 4;
  int stub_domain_size = 8;

  /// Propagation delay range (the Emulab prototype used 1–60 ms).
  double delay_min_ms = 1.0, delay_max_ms = 60.0;

  int total_nodes() const {
    return transit_count +
           transit_count * stub_domains_per_transit * stub_domain_size;
  }
};

/// Generates a connected transit–stub network. Deterministic given the Prng
/// state.
Network make_transit_stub(const TransitStubParams& params, Prng& prng);

/// Number of stub domains the parameters produce.
int stub_domain_count(const TransitStubParams& params);

/// Node ids of stub domain `index` (row-major over (transit node, domain)).
/// The generator lays out ids deterministically — transit nodes first, then
/// each stub domain contiguously — so domain membership is recoverable from
/// the parameters alone. Scenario generators use this for geo-clustered
/// placement and region-correlated failure scripts.
std::vector<NodeId> stub_domain_members(const TransitStubParams& params,
                                        int index);

/// Picks a structure whose node count is close to `target_nodes`, scaling
/// the paper's 128-node shape; used by the Fig 9 network-size sweep
/// (128 … 1024 nodes).
TransitStubParams scale_to(int target_nodes);

}  // namespace iflow::net
