#include "engine/health.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <limits>

#include "engine/chaos.h"

namespace iflow::engine {

namespace {

/// Suspicion thresholds: healthy → suspect at kPhiSuspect, suspect →
/// quarantined after kConfirmEpochs consecutive epochs at or above
/// kPhiQuarantine. The band between the two thresholds is hysteresis: a
/// flapping element parked there neither confirms nor clears.
constexpr double kPhiSuspect = 0.8;
constexpr double kPhiQuarantine = 2.0;
constexpr int kConfirmEpochs = 2;
/// Suspect → healthy after this many consecutive epochs below kPhiSuspect.
constexpr int kClearEpochs = 2;
/// Probation: probes per epoch, and the consecutive-clean-probe budget an
/// element must survive before re-admission.
constexpr int kProbesPerEpoch = 2;
constexpr int kProbeBudget = 4;
/// Signal floors: retransmit ratio and RTT inflation below these are
/// treated as zero (clean runs sit exactly at 0 and 1 respectively; the
/// floors are pure slack).
constexpr double kRetransmitFloor = 0.05;
constexpr double kRttInflationFloor = 1.5;
/// Queue depths above this contribute one unit of signal (sized against
/// the reliability window, default 64).
constexpr std::size_t kQueueFloor = 48;
/// Per-epoch signal cap and the φ accrual decay:
/// phi ← phi·decay + signal (so a steady signal s accrues toward
/// s / (1 - decay), and silence halves suspicion every epoch).
constexpr double kSignalCap = 4.0;
constexpr double kDecay = 0.5;
/// Pricing penalty: pen = min(kHealthPenaltyMax, 1 + phi·kPenaltyScale)
/// for suspect elements, kHealthPenaltyMax while quarantined or on
/// probation.
constexpr double kPenaltyScale = 2.0;

static_assert(kPhiSuspect > 0.0);
static_assert(kPhiQuarantine >= kPhiSuspect);
static_assert(kConfirmEpochs >= 1 && kClearEpochs >= 1);
static_assert(kProbesPerEpoch >= 1 && kProbeBudget >= 1);
static_assert(kDecay >= 0.0 && kDecay < 1.0);
static_assert(kPenaltyScale >= 0.0 && kHealthPenaltyMax >= 1.0);

}  // namespace

const char* to_string(HealthState s) {
  switch (s) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kSuspect: return "suspect";
    case HealthState::kQuarantined: return "quarantined";
    case HealthState::kProbation: return "probation";
  }
  return "unknown";
}

HealthMonitor::HealthMonitor(std::size_t node_count, std::uint64_t seed)
    : seed_(seed), nodes_(node_count), node_signal_(node_count, 0.0),
      node_observed_(node_count, 0) {}

double HealthMonitor::channel_signal(const ChannelTelemetry& t) const {
  // Total silence — transmissions went out, nothing ever came back — is as
  // bad as the telemetry gets.
  if (t.rtt_samples == 0) return kSignalCap;
  double sig = 0.0;
  const double retr =
      static_cast<double>(t.retransmits) / static_cast<double>(t.sent);
  // Retransmissions dominate the loss signature; weight them so a heavily
  // lossy channel saturates the cap on its own.
  sig += std::max(0.0, retr - kRetransmitFloor) * 4.0;
  if (t.expected_rtt_sum_ms > 0.0) {
    const double inflation = t.rtt_sum_ms / t.expected_rtt_sum_ms;
    sig += std::max(0.0, inflation - kRttInflationFloor);
  }
  if (t.max_queue_depth > kQueueFloor) sig += 1.0;
  return std::min(sig, kSignalCap);
}

void HealthMonitor::observe(const std::vector<ChannelTelemetry>& telemetry) {
  // Pass 1: per-channel signals; clean channels exonerate their whole path
  // (links pick up the min-over-crossing rule right here).
  std::vector<const ChannelTelemetry*> sick;
  std::vector<double> sick_sig;
  std::vector<char> exonerated(nodes_.size(), 0);
  for (const ChannelTelemetry& t : telemetry) {
    // Idle channels and co-located edges (path never leaves the node)
    // carry no evidence either way.
    if (t.sent == 0 || t.path.size() < 2) continue;
    const double sig = channel_signal(t);
    if (sig <= 0.0) {
      for (const net::NodeId n : t.path) {
        IFLOW_CHECK(n < nodes_.size());
        exonerated[n] = 1;
      }
    } else {
      sick.push_back(&t);
      sick_sig.push_back(sig);
    }
    for (std::size_t i = 0; i + 1 < t.path.size(); ++i) {
      const auto key = std::make_pair(std::min(t.path[i], t.path[i + 1]),
                                      std::max(t.path[i], t.path[i + 1]));
      const auto it = link_signal_.find(key);
      if (it == link_signal_.end()) {
        link_signal_.emplace(key, sig);
      } else {
        it->second = std::min(it->second, sig);
      }
    }
  }
  // Pass 2: greedy cover. Repeatedly blame the non-exonerated node that
  // crosses the most still-unexplained sick channels (ties to the lowest
  // id, so the sweep is deterministic), give it the worst covered signal,
  // and mark those channels explained. Every sick channel crosses at least
  // its own endpoints, so the loop always terminates with all channels
  // covered or only exonerated nodes left.
  std::vector<char> covered(sick.size(), 0);
  for (;;) {
    std::vector<std::size_t> crossing(nodes_.size(), 0);
    for (std::size_t c = 0; c < sick.size(); ++c) {
      if (covered[c] != 0) continue;
      for (const net::NodeId n : sick[c]->path) {
        IFLOW_CHECK(n < nodes_.size());
        if (exonerated[n] == 0) ++crossing[n];
      }
    }
    net::NodeId best = net::kInvalidNode;
    for (net::NodeId n = 0; n < nodes_.size(); ++n) {
      if (crossing[n] != 0 &&
          (best == net::kInvalidNode || crossing[n] > crossing[best])) {
        best = n;
      }
    }
    if (best == net::kInvalidNode) break;
    double worst = 0.0;
    for (std::size_t c = 0; c < sick.size(); ++c) {
      if (covered[c] != 0) continue;
      for (const net::NodeId n : sick[c]->path) {
        if (n == best) {
          worst = std::max(worst, sick_sig[c]);
          covered[c] = 1;
          break;
        }
      }
    }
    node_observed_[best] = 1;
    node_signal_[best] = std::max(node_signal_[best], worst);
  }
}

bool HealthMonitor::probe_clean(const net::Network& net, net::NodeId n,
                                double t, Prng& prng) const {
  const net::Degradation& d = net.node_degradation(n);
  // degraded_at folds the flap wave: a flapping element is only sick in
  // the down half of its cycle, and a healed element is never sick.
  if (!net::degraded_at(d, t)) return true;
  if (d.slowdown >= kRttInflationFloor) return false;
  if (d.loss > 0.0) return !prng.chance(d.loss);
  return true;  // degradation below every detection floor
}

std::vector<HealthTransition> HealthMonitor::step(const net::Network& net,
                                                  double now,
                                                  double epoch_s) {
  IFLOW_CHECK(epoch_s > 0.0);
  std::vector<HealthTransition> out;
  for (net::NodeId n = 0; n < nodes_.size(); ++n) {
    ElementHealth& e = nodes_[n];
    const HealthState from = e.state;
    if (e.state == HealthState::kQuarantined ||
        e.state == HealthState::kProbation) {
      // Excluded elements carry no channels; probe them instead. The probe
      // stream is a pure function of (seed, node, epoch), so replays and
      // thread counts cannot perturb it.
      Prng prng(seed_ ^ (0x9E3779B97F4A7C15ULL * (n + 1)) ^
                (epoch_ * 0xC2B2AE3D27D4EB4FULL));
      bool all_clean = true;
      for (int k = 0; k < kProbesPerEpoch; ++k) {
        const double t = now - epoch_s +
                         epoch_s * static_cast<double>(k + 1) /
                             static_cast<double>(kProbesPerEpoch + 1);
        if (!probe_clean(net, n, t, prng)) all_clean = false;
      }
      e.phi *= kDecay;  // no telemetry: suspicion cools passively
      if (all_clean) {
        e.probe_streak += kProbesPerEpoch;
        if (e.state == HealthState::kQuarantined) {
          e.state = HealthState::kProbation;
        }
        if (e.state == HealthState::kProbation &&
            e.probe_streak >= kProbeBudget) {
          e = ElementHealth{};  // fully re-admitted, suspicion forgotten
        }
      } else {
        e.probe_streak = 0;
        e.state = HealthState::kQuarantined;
      }
    } else {
      const double sig =
          node_observed_[n] != 0 ? std::min(node_signal_[n], kSignalCap)
                                 : 0.0;
      e.phi = e.phi * kDecay + sig;
      if (e.phi >= kPhiQuarantine) {
        ++e.confirm_streak;
      } else {
        e.confirm_streak = 0;
      }
      if (e.phi < kPhiSuspect) {
        ++e.clean_streak;
      } else {
        e.clean_streak = 0;
      }
      if (e.state == HealthState::kHealthy && e.phi >= kPhiSuspect) {
        e.state = HealthState::kSuspect;
      }
      if (e.state == HealthState::kSuspect) {
        if (e.confirm_streak >= kConfirmEpochs) {
          e.state = HealthState::kQuarantined;
          e.confirm_streak = 0;
          e.clean_streak = 0;
          e.probe_streak = 0;
          ++quarantines_total_;
        } else if (e.clean_streak >= kClearEpochs) {
          e.state = HealthState::kHealthy;
        }
      }
    }
    if (e.state != from) out.push_back(HealthTransition{n, from, e.state});
  }

  // Link suspicion: same accrual, observation-keyed.
  for (const auto& [key, sig] : link_signal_) {
    double& phi = link_phi_[key];
    phi = phi * kDecay + std::min(sig, kSignalCap);
  }
  for (auto it = link_phi_.begin(); it != link_phi_.end();) {
    if (link_signal_.find(it->first) == link_signal_.end()) {
      it->second *= kDecay;
    }
    it = it->second < 1e-12 ? link_phi_.erase(it) : std::next(it);
  }

  std::fill(node_signal_.begin(), node_signal_.end(), 0.0);
  std::fill(node_observed_.begin(), node_observed_.end(), 0);
  link_signal_.clear();
  ++epoch_;
  return out;
}

HealthState HealthMonitor::state(net::NodeId n) const {
  IFLOW_CHECK(n < nodes_.size());
  return nodes_[n].state;
}

double HealthMonitor::phi(net::NodeId n) const {
  IFLOW_CHECK(n < nodes_.size());
  return nodes_[n].phi;
}

void HealthMonitor::on_restore(net::NodeId n) {
  IFLOW_CHECK(n < nodes_.size());
  // The suspicion accrued before the restore described an element that was
  // just repaired or replaced; carrying it into probation would price (and
  // in the worst case re-quarantine) the recovered node off stale evidence.
  nodes_[n] = ElementHealth{};
  node_signal_[n] = 0.0;
  node_observed_[n] = 0;
  for (auto it = link_phi_.begin(); it != link_phi_.end();) {
    it = (it->first.first == n || it->first.second == n) ? link_phi_.erase(it)
                                                         : std::next(it);
  }
  for (auto it = link_signal_.begin(); it != link_signal_.end();) {
    it = (it->first.first == n || it->first.second == n)
             ? link_signal_.erase(it)
             : std::next(it);
  }
}

std::vector<net::NodeId> HealthMonitor::quarantined() const {
  std::vector<net::NodeId> out;
  for (net::NodeId n = 0; n < nodes_.size(); ++n) {
    if (nodes_[n].state == HealthState::kQuarantined ||
        nodes_[n].state == HealthState::kProbation) {
      out.push_back(n);
    }
  }
  return out;
}

std::vector<double> HealthMonitor::node_penalty() const {
  std::vector<double> out(nodes_.size(), 1.0);
  for (net::NodeId n = 0; n < nodes_.size(); ++n) {
    const ElementHealth& e = nodes_[n];
    if (e.state == HealthState::kQuarantined ||
        e.state == HealthState::kProbation) {
      out[n] = kHealthPenaltyMax;
    } else if (e.phi > 0.0) {
      out[n] = std::min(kHealthPenaltyMax, 1.0 + e.phi * kPenaltyScale);
    }
  }
  return out;
}

std::vector<HealthMonitor::LinkSuspicion> HealthMonitor::link_suspicion()
    const {
  std::vector<LinkSuspicion> out;
  out.reserve(link_phi_.size());
  for (const auto& [key, phi] : link_phi_) {
    out.push_back(LinkSuspicion{key.first, key.second, phi});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Detection-contract harness.

namespace {

/// Operator-hosting nodes to degrade (chosen deterministically among stub
/// hosts that are no query's source or sink, so quarantine + migration can
/// actually take their traffic off them).
constexpr std::size_t kGrayTargets = 1;
static_assert(kGrayTargets >= 1);
/// Reliability knobs sized to multi-hop topologies (the 50 ms default
/// would retransmit spuriously and poison the zero-FP contract).
constexpr double kGrayAckTimeoutS = 1.0;
constexpr double kGrayMaxBackoffS = 4.0;

/// Degradable relay hosts: operator hosts that are no query's endpoint
/// (relay_hosts) and stub nodes, kGrayTargets of them drawn
/// deterministically. Quarantining one of these can actually heal the
/// workload — migration removes every flow touching it.
std::vector<net::NodeId> pick_targets(const Middleware& mw,
                                      const std::vector<query::Query>& queries,
                                      std::uint64_t seed) {
  std::vector<net::NodeId> candidates = relay_hosts(mw, queries);
  std::erase_if(candidates, [&](net::NodeId n) {
    return mw.network().kind(n) != net::NodeKind::kStub;
  });
  IFLOW_CHECK_MSG(!candidates.empty(),
                  "gray harness needs a stub operator host that is not a "
                  "query endpoint (use a relay-shaped topology)");
  Prng prng(seed ^ 0x6A47A26E7ULL);
  prng.shuffle(candidates);
  candidates.resize(std::min(candidates.size(), kGrayTargets));
  std::sort(candidates.begin(), candidates.end());
  return candidates;
}

struct SubRun {
  double final_goodput = 0.0;
  int detection_epoch = -1;
  std::size_t quarantined = 0;
  std::uint64_t quarantines_total = 0;
  std::size_t violations = 0;
  std::string violation_detail;
  std::string digest;
};

/// One epoch-by-epoch episode over private copies of the world.
SubRun gray_run(net::Network net, query::Catalog catalog,
                const std::vector<query::Query>& queries, int max_cs,
                Algorithm algorithm, std::uint64_t seed,
                const GrayConfig& cfg,
                const std::vector<net::NodeId>& targets, bool degrade,
                bool detect, const char* tag) {
  Middleware mw(net, catalog, max_cs, algorithm, seed);
  mw.workspace().set_threads(cfg.threads);
  for (const query::Query& q : queries) mw.deploy(q);
  if (degrade) {
    for (const net::NodeId n : targets) mw.degrade_node(n, cfg.degradation);
  }
  HealthMonitor hm(net.node_count(), seed ^ 0x6EA17BULL);

  EngineConfig ec;
  ec.duration_s = cfg.epoch_s;
  ec.reliability.ack_timeout_s = kGrayAckTimeoutS;
  ec.reliability.max_backoff_s = kGrayMaxBackoffS;

  SubRun out;
  std::ostringstream digest;
  for (int e = 0; e < cfg.epochs; ++e) {
    Simulation sim(mw.network(), mw.routing(), mw.catalog(), ec,
                   seed ^ (0x51D0E5ULL * static_cast<std::uint64_t>(e + 1)));
    IFLOW_CHECK_MSG(mw.deploy_actives(sim), "reuse chain failed to deploy");
    sim.run();
    double goodput = 0.0;
    for (const auto& [qid, ds] : mw.collect_delivery_stats(sim)) {
      goodput += ds.goodput_tps;
    }
    out.final_goodput = goodput;

    std::vector<Redeployment> reds;
    if (detect) {
      hm.observe(sim.channel_telemetry());
      const std::vector<HealthTransition> trans = hm.step(
          mw.network(), cfg.epoch_s * static_cast<double>(e + 1),
          cfg.epoch_s);
      // Penalty first, so quarantine migrations already steer by the fresh
      // suspicion scores.
      mw.set_health_penalty(hm.node_penalty());
      for (const HealthTransition& t : trans) {
        std::vector<Redeployment> r;
        if (t.to == HealthState::kQuarantined &&
            t.from != HealthState::kProbation) {
          if (out.detection_epoch < 0) out.detection_epoch = e;
          r = mw.quarantine_node(t.node);
        } else if (t.from == HealthState::kProbation &&
                   t.to == HealthState::kHealthy) {
          r = mw.release_quarantine(t.node);
          // Telemetry baselines reset with the release: probation starts
          // from zero suspicion instead of the pre-quarantine accrual.
          hm.on_restore(t.node);
        }
        reds.insert(reds.end(), r.begin(), r.end());
      }
    }
    const std::size_t v =
        validate_actives(mw, replanned_ids(reds), &out.violation_detail);
    out.violations += v;
    digest << tag << " epoch " << e << " goodput " << std::hexfloat
           << goodput << std::defaultfloat << " quarantined "
           << mw.quarantined_nodes().size() << " suspended "
           << mw.suspended_queries() << " viol " << v << '\n';
  }
  out.quarantined = mw.quarantined_nodes().size();
  out.quarantines_total = hm.quarantines_total();
  out.digest = digest.str();
  return out;
}

}  // namespace

GrayReport run_gray(const net::Network& net, const query::Catalog& catalog,
                    const std::vector<query::Query>& queries, int max_cs,
                    Algorithm algorithm, std::uint64_t seed,
                    const GrayConfig& cfg) {
  IFLOW_CHECK(cfg.epochs >= 1 && cfg.epoch_s > 0.0);
  GrayReport report;
  // A scratch deployment (private copies) decides which operator hosts the
  // planner actually uses; the three measured sub-runs then share targets.
  {
    net::Network scratch_net = net;
    query::Catalog scratch_cat = catalog;
    Middleware scout(scratch_net, scratch_cat, max_cs, algorithm, seed);
    scout.workspace().set_threads(cfg.threads);
    for (const query::Query& q : queries) scout.deploy(q);
    report.targets = pick_targets(scout, queries, seed);
  }

  const SubRun on = gray_run(net, catalog, queries, max_cs, algorithm, seed,
                             cfg, report.targets, /*degrade=*/true,
                             /*detect=*/true, "on");
  const SubRun off = gray_run(net, catalog, queries, max_cs, algorithm, seed,
                              cfg, report.targets, /*degrade=*/true,
                              /*detect=*/false, "off");
  const SubRun healthy = gray_run(net, catalog, queries, max_cs, algorithm,
                                  seed, cfg, report.targets,
                                  /*degrade=*/false, /*detect=*/true,
                                  "healthy");

  report.goodput_on = on.final_goodput;
  report.goodput_off = off.final_goodput;
  report.goodput_healthy = healthy.final_goodput;
  report.recovery_ratio =
      off.final_goodput > 0.0
          ? on.final_goodput / off.final_goodput
          : (on.final_goodput > 0.0 ? std::numeric_limits<double>::infinity()
                                    : 1.0);
  report.detection_epoch = on.detection_epoch;
  report.quarantined = on.quarantined;
  report.false_positives =
      static_cast<std::size_t>(healthy.quarantines_total);
  report.violations = on.violations + off.violations + healthy.violations;
  for (const SubRun* r : {&on, &off, &healthy}) {
    if (!r->violation_detail.empty() && report.violation_detail.empty()) {
      report.violation_detail = r->violation_detail;
    }
  }
  report.contract_ok = report.detection_epoch >= 0 &&
                       report.recovery_ratio >= 1.5 &&
                       report.false_positives == 0 &&
                       report.violations == 0;
  report.digest = on.digest + off.digest + healthy.digest;
  return report;
}

}  // namespace iflow::engine
