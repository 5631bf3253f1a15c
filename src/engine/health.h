// Gray-failure health plane (DESIGN.md §15).
//
// Binary fault handling (fail/crash/restore, DESIGN.md §10) cannot see the
// failures that cost real deployments the most availability: elements that
// are slow, lossy or flapping but never declared dead. The Σ rate×path-cost
// placement happily routes hot operator chains straight through them. This
// header closes that gap with a seeded, deterministic φ-accrual-style
// failure detector fed entirely by the reliable data plane's existing
// telemetry (per-channel ack RTT samples against the clean-network
// expectation, retransmit counts, queue depths — see ChannelTelemetry), a
// healthy → suspect → quarantined → probation lifecycle with hysteresis,
// and a detection-contract harness (run_gray) that proves the loop closes:
// detector-on runs must beat detector-off goodput under seeded gray
// failures while never quarantining anything in a healthy twin run.
//
// Node attribution is exonerate-then-cover (boolean network tomography):
// a clean channel exonerates every node on its path for the epoch (a sick
// node would have corrupted that channel too), and the sick channels are
// then explained greedily — the non-exonerated node crossing the most
// still-unexplained sick channels absorbs their signal, repeatedly. The
// greedy step matters in hub-shaped topologies where EVERY channel crosses
// the degraded relay: naive min-over-crossing-channels gives the hub the
// LOWEST suspicion there (its min ranges over all channels) and blames the
// innocent endpoints instead. Links keep the simple min-over-crossing rule
// (their suspicion is advisory; quarantine acts on nodes). In a fully
// clean run every signal is exactly zero — measured RTT equals the stored
// expectation bit for bit, and no retransmissions fire under
// topology-sized timeouts — which is the zero-false-positive foundation.
//
// Quarantined elements carry no channels, so the detector re-admits them by
// active probing: seeded Bernoulli probes evaluated against the network's
// CURRENT degradation state (a probe of a healed element always succeeds, a
// flapping element fails whenever a probe lands in the down half of its
// wave). An element leaves quarantine for probation after one fully clean
// probe epoch and returns to healthy only after a budget of consecutive
// clean probes (kProbeBudget in health.cpp); any dirty probe sends it
// straight back to quarantine.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/prng.h"
#include "engine/middleware.h"

namespace iflow::engine {

enum class HealthState : std::uint8_t {
  kHealthy,
  kSuspect,      // suspicion crossed kPhiSuspect; still placeable
  kQuarantined,  // excluded from hosting; probed for recovery
  kProbation,    // probes clean so far; still excluded until the budget
};

const char* to_string(HealthState s);

/// Pricing penalty of an element while quarantined or on probation, and the
/// cap of a suspect element's penalty (see node_penalty()).
inline constexpr double kHealthPenaltyMax = 8.0;

struct HealthTransition {
  net::NodeId node = net::kInvalidNode;
  HealthState from = HealthState::kHealthy;
  HealthState to = HealthState::kHealthy;
};

/// Seeded, deterministic φ-accrual-style failure detector over the
/// reliable data plane's telemetry. Call observe() with each epoch's
/// ChannelTelemetry, then step() once per epoch to accrue suspicion, probe
/// quarantined elements and advance the lifecycle. Everything is a pure
/// function of (seed, observations, network degradation state), so two
/// monitors fed the same run agree bitwise.
class HealthMonitor {
 public:
  HealthMonitor(std::size_t node_count, std::uint64_t seed);

  /// Accumulates one epoch's channel telemetry. Callable any number of
  /// times between step()s; each batch runs exonerate-then-cover node
  /// attribution (see file comment) and blamed nodes keep the maximum over
  /// batches. Channels that sent nothing, or never left their node,
  /// observe nothing.
  void observe(const std::vector<ChannelTelemetry>& telemetry);

  /// Closes the epoch: φ accrual + decay, seeded probes of quarantined and
  /// probation elements against `net`'s current degradation state
  /// (evaluated at probe times inside the epoch ending at `now`), and
  /// lifecycle moves. Returns the transitions, in node order.
  std::vector<HealthTransition> step(const net::Network& net, double now,
                                     double epoch_s);

  HealthState state(net::NodeId n) const;
  double phi(net::NodeId n) const;

  /// Nodes currently excluded from placement: quarantined or on probation
  /// (probation re-admits only after the probe budget). Sorted.
  std::vector<net::NodeId> quarantined() const;

  /// Restore/release hook: clears node `n`'s accrued suspicion, streaks and
  /// epoch accumulators and drops every link-suspicion entry touching it.
  /// Without this, φ accrued before a restore_node/release_quarantine leaks
  /// into the recovered element's probation window as stale suspicion —
  /// the telemetry that produced it described hardware that was replaced.
  void on_restore(net::NodeId n);

  /// Multiplicative per-node pricing penalty (>= 1 each, healthy = 1) for
  /// Middleware::set_health_penalty / OptimizerEnv::node_penalty.
  std::vector<double> node_penalty() const;

  /// Healthy → quarantined entries since construction (the false-positive
  /// counter of the detection contract's healthy twin).
  std::uint64_t quarantines_total() const { return quarantines_total_; }

  /// Per-link suspicion, for observability and tests: same accrual as
  /// nodes, keyed by the (min, max) endpoint pair of observed hops. Links
  /// have no quarantine lifecycle — a link-only degradation cannot be
  /// routed around by re-placement (degradations never change routes), so
  /// it surfaces through pricing and through its endpoints' signals.
  struct LinkSuspicion {
    net::NodeId a = net::kInvalidNode;
    net::NodeId b = net::kInvalidNode;
    double phi = 0.0;
  };
  std::vector<LinkSuspicion> link_suspicion() const;

 private:
  struct ElementHealth {
    HealthState state = HealthState::kHealthy;
    double phi = 0.0;
    int confirm_streak = 0;  // consecutive epochs >= kPhiQuarantine
    int clean_streak = 0;    // consecutive epochs < kPhiSuspect
    int probe_streak = 0;    // consecutive clean probes
  };

  double channel_signal(const ChannelTelemetry& t) const;
  bool probe_clean(const net::Network& net, net::NodeId n, double t,
                   Prng& prng) const;

  std::uint64_t seed_ = 0;
  std::uint64_t epoch_ = 0;
  std::uint64_t quarantines_total_ = 0;
  std::vector<ElementHealth> nodes_;
  // Per-epoch accumulators, reset by step().
  std::vector<double> node_signal_;
  std::vector<char> node_observed_;
  // Link suspicion, deterministic iteration order.
  std::map<std::pair<net::NodeId, net::NodeId>, double> link_phi_;
  std::map<std::pair<net::NodeId, net::NodeId>, double> link_signal_;
};

// ---------------------------------------------------------------------------
// Detection-contract harness.

/// One seeded gray-failure episode (see run_gray).
struct GrayConfig {
  /// Epochs per run and the telemetry window each one simulates.
  int epochs = 6;
  double epoch_s = 12.0;
  /// Default gray intensity: slow and heavily lossy, not flapping.
  net::Degradation degradation{3.0, 0.6, 0.0};
  /// Planner threads (digests must not depend on this).
  int threads = 1;
};

struct GrayReport {
  /// Degraded nodes (same targets in every sub-run).
  std::vector<net::NodeId> targets;
  /// Final-epoch aggregate goodput of the three sub-runs: detector on,
  /// detector off (same degradations, no health plane), and the healthy
  /// twin (detector on, nothing degraded).
  double goodput_on = 0.0;
  double goodput_off = 0.0;
  double goodput_healthy = 0.0;
  double recovery_ratio = 0.0;  // goodput_on / goodput_off
  /// First epoch (0-based) the detector quarantined anything; -1 = never.
  int detection_epoch = -1;
  std::size_t quarantined = 0;       // detector-on run, at the end
  std::size_t false_positives = 0;   // healthy-twin quarantine entries
  std::size_t violations = 0;        // validator violations across sub-runs
  std::string violation_detail;      // first violation, for diagnostics
  /// Detection contract: recovery_ratio >= 1.5, zero false positives, zero
  /// violations, and the degradation was detected at all.
  bool contract_ok = false;
  /// Per-epoch digest lines of all three sub-runs (hexfloat goodput);
  /// bitwise-stable across planner thread counts.
  std::string digest;
};

/// Runs the seeded gray-failure detection contract over copies of
/// `net`/`catalog`: deploys the workload, degrades deterministically chosen
/// operator-hosting stub nodes, and drives epoch-by-epoch reliable
/// simulations three times — detector on, detector off, and a healthy
/// baseline twin — wiring HealthMonitor transitions into Middleware
/// quarantine/penalty/release. Throws (IFLOW_CHECK) when the deployed
/// workload offers no degradable operator host.
GrayReport run_gray(const net::Network& net, const query::Catalog& catalog,
                    const std::vector<query::Query>& queries, int max_cs,
                    Algorithm algorithm, std::uint64_t seed,
                    const GrayConfig& cfg = {});

}  // namespace iflow::engine
