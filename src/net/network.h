// Physical network model.
//
// A Network is an undirected weighted graph of processing nodes. Each link
// carries three attributes used by different layers of the system:
//   * cost_per_byte — the optimisation metric (paper §3: "link costs ...
//     represent the cost of transmitting a unit amount of data");
//   * delay_ms     — propagation delay, used by the control-plane model and
//     the discrete-event engine;
//   * bandwidth_bps — capacity, used by the engine to model serialisation.
//
// Links are mutable at runtime (set_link_cost) so the middleware layer can
// perturb the network and re-trigger optimisation (adaptivity experiments).
//
// Fault model: links can fail and be restored (fail_link/restore_link), and
// nodes can crash and be restored (crash_node/restore_node). A crashed node
// takes all of its incident links down implicitly: the links keep their `up`
// flag, but usable() is false while either endpoint is dead, so a restored
// node gets its surviving links back without extra bookkeeping. Every fault
// transition bumps version() so dependent tables can detect staleness.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"

namespace iflow::net {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();
inline constexpr std::uint32_t kInvalidLink =
    std::numeric_limits<std::uint32_t>::max();

/// Classification of one recorded Network change, coarse enough for
/// derived structures (routing tables, hierarchies) to decide what a
/// change can possibly invalidate.
enum class MutationKind : std::uint8_t {
  kTopology,  // link added: adjacency itself changed
  kLinkCost,  // cost_per_byte of an adjacency changed
  kLinkDown,  // fail_link: the (a, b) adjacency went administratively down
  kLinkUp,    // restore_link
  kNodeDown,  // crash_node: every incident link of `a` became unusable
  kNodeUp,    // restore_node
  kQuality,   // loss / jitter only: routing metrics are unaffected
};

/// One entry of the Network's bounded mutation log.
struct Mutation {
  /// Network::version() right after this change was applied.
  std::uint64_t version = 0;
  MutationKind kind = MutationKind::kTopology;
  /// Link endpoints, or the node in `a` for node events.
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
};

/// A journal batch sorted by what each kind of mutation can invalidate.
struct Batch {
  /// Every mutation is kQuality (or there is none): no routing metric moved.
  bool quality_only = true;
  /// Links added or link costs changed: the journal does not record a
  /// link's old cost, which an in-place repair would need.
  bool reprice = false;
  std::vector<std::pair<NodeId, NodeId>> links_down;
  std::vector<std::pair<NodeId, NodeId>> links_up;
  std::vector<NodeId> nodes_down;
  std::vector<NodeId> nodes_up;
};

/// Sorts a journal batch (Network::mutations_since) into a Batch, keeping
/// the order of the events of each kind.
Batch classify(const std::vector<Mutation>& muts);

/// Continuous gray-failure state of a node or link: the element stays
/// administratively up — routing, planning costs and paths are unchanged —
/// but traffic touching it is slowed, dropped, or both. Distinct from
/// fail/crash (binary down). Journaled as kQuality mutations, so derived
/// tables' incremental sync() treats a degradation like a loss change:
/// nothing to recompute. Only the engine's reliable delivery plane and the
/// health plane's probes read it.
struct Degradation {
  /// Multiplier (>= 1) on the propagation + serialisation time of every
  /// traversal touching the element. 1 = full speed.
  double slowdown = 1.0;
  /// Extra per-traversal drop probability in [0, 1), combined
  /// multiplicatively with link loss and other degradations on the hop.
  double loss = 0.0;
  /// Flap frequency in Hz. > 0 makes the element alternate between clean
  /// and degraded in a deterministic square wave of simulation time: the
  /// degraded half applies `slowdown` and `loss`, the clean half neither.
  /// 0 = the degradation applies continuously.
  double flap_hz = 0.0;

  bool degraded() const {
    return slowdown > 1.0 || loss > 0.0 || flap_hz > 0.0;
  }
};

/// True when a degradation is in effect at simulation time `t`: always for
/// a non-flapping degradation, and during the down half of the square wave
/// for a flapping one.
inline bool degraded_at(const Degradation& d, double t) {
  if (!d.degraded()) return false;
  if (d.flap_hz <= 0.0) return true;
  return std::fmod(t * d.flap_hz, 1.0) < 0.5;
}

/// Undirected physical link between two nodes.
struct Link {
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  double cost_per_byte = 0.0;
  double delay_ms = 0.0;
  double bandwidth_bps = 0.0;
  /// Per-transmission drop probability in [0, 1). The network only stores
  /// the parameter; the engine draws the actual losses from its own seeded
  /// Prng so runs stay deterministic. 0 = lossless (default).
  double loss = 0.0;
  /// Upper bound of the uniform extra delay the engine may add per
  /// traversal, on top of delay_ms. 0 = no jitter (default).
  double jitter_ms = 0.0;
  /// Administrative state: false after fail_link until restore_link. A link
  /// that is `up` may still be unusable if an endpoint node is crashed.
  bool up = true;
  /// Gray-failure state of this link (identity when healthy). Like `loss`,
  /// only the engine's delivery layer reads it.
  Degradation degradation;
};

/// Node classification produced by the topology generator; purely
/// informational (benches and examples use it for reporting).
enum class NodeKind : std::uint8_t { kTransit, kStub };

/// Undirected weighted graph of physical processing nodes.
class Network {
 public:
  Network() = default;

  /// Appends a node and returns its id. Ids are dense [0, node_count).
  NodeId add_node(NodeKind kind = NodeKind::kStub);

  /// Adds an undirected link. Both endpoints must exist; self-links and
  /// non-positive costs are rejected.
  void add_link(NodeId a, NodeId b, double cost_per_byte, double delay_ms,
                double bandwidth_bps);

  /// Updates the cost of the (a, b) link in place. Used by adaptivity
  /// experiments to model changing network conditions. Throws if no such
  /// link exists.
  void set_link_cost(NodeId a, NodeId b, double cost_per_byte);

  /// Sets the drop probability of every (a, b) link (parallel links model
  /// one lossy adjacency). Requires 0 <= loss < 1; throws if no such link
  /// exists. Loss does not affect routing or planning costs — only the
  /// engine's delivery layer reads it.
  void set_link_loss(NodeId a, NodeId b, double loss);

  /// Sets the delay-jitter bound of every (a, b) link. Requires
  /// jitter_ms >= 0; throws if no such link exists.
  void set_link_jitter(NodeId a, NodeId b, double jitter_ms);

  /// Sets the gray-failure state of every (a, b) link (parallel links model
  /// one degraded adjacency). Requires slowdown >= 1, 0 <= loss < 1 and
  /// flap_hz >= 0; throws if no such link exists. Pass a default-constructed
  /// Degradation to clear. Quality-only: routing and planning costs are
  /// unaffected, so incremental sync() stays free.
  void degrade_link(NodeId a, NodeId b, const Degradation& d);

  /// Sets the gray-failure state of a node: every traversal of an incident
  /// link (and the health plane's direct probes) sees the degradation. The
  /// node stays alive and keeps hosting — this is slow/lossy, not crashed.
  /// Same validation and journaling as degrade_link.
  void degrade_node(NodeId n, const Degradation& d);

  /// Current gray-failure state of a node (identity when healthy).
  const Degradation& node_degradation(NodeId n) const;

  /// Takes the (a, b) link down. With parallel links, all of them go down —
  /// a fault between two nodes severs the whole adjacency. Throws if no such
  /// link exists or every one of them is already down.
  void fail_link(NodeId a, NodeId b);

  /// Brings every down (a, b) link back up. Throws if no such link exists or
  /// none of them is down.
  void restore_link(NodeId a, NodeId b);

  /// Full node crash: the node stops forwarding as well as processing, so
  /// every incident link becomes unusable. Throws if already crashed.
  void crash_node(NodeId n);

  /// Brings a crashed node back. Incident links that were individually
  /// failed stay down; the rest become usable again. Throws if alive.
  void restore_node(NodeId n);

  bool node_alive(NodeId n) const;

  /// Administrative link flag only (ignores endpoint liveness).
  bool link_up(std::uint32_t link_index) const;

  /// True when the link can carry traffic: up and both endpoints alive.
  bool usable(std::uint32_t link_index) const;

  std::size_t node_count() const { return kinds_.size(); }
  std::size_t link_count() const { return links_.size(); }
  const std::vector<Link>& links() const { return links_; }
  NodeKind kind(NodeId n) const;

  /// Index of the cheapest usable (a, b) link, or kInvalidLink when the two
  /// nodes are not usably adjacent. This is the link Dijkstra relaxes. The
  /// engine does not use it: it resolves each hop to the first-added (a, b)
  /// link (DESIGN.md §11, known gaps).
  std::uint32_t cheapest_usable_link(NodeId a, NodeId b) const;

  /// Indices into links() of the links incident to n.
  const std::vector<std::uint32_t>& incident(NodeId n) const;

  /// True when every *alive* node can reach every other alive node over
  /// usable links. Dead nodes do not count against connectivity.
  bool connected() const;

  /// Monotonically increases whenever link attributes or fault state change;
  /// routing tables record the version they were built against so staleness
  /// is detectable.
  std::uint64_t version() const { return version_; }

  /// Mutations applied after version `since`, oldest first, or nullopt when
  /// the bounded log has already discarded entries that recent (the caller
  /// must treat everything as dirty and rebuild). An empty vector means the
  /// caller is up to date.
  std::optional<std::vector<Mutation>> mutations_since(
      std::uint64_t since) const;

 private:
  void record(MutationKind kind, NodeId a, NodeId b);

  std::vector<NodeKind> kinds_;
  std::vector<char> alive_;
  /// Per-node gray-failure state, parallel to kinds_.
  std::vector<Degradation> node_degradation_;
  std::vector<Link> links_;
  std::vector<std::vector<std::uint32_t>> incident_;
  std::uint64_t version_ = 0;
  /// Bounded change journal for incremental repair of derived tables: a
  /// ring of versions log_base_ + 1 .. version_, one entry each, the oldest
  /// at `log_head_` once it is full. A reader at or past `log_base_` can
  /// replay instead of rebuilding.
  std::vector<Mutation> log_;
  std::size_t log_head_ = 0;
  std::uint64_t log_base_ = 0;
};

}  // namespace iflow::net
