#include "engine/health.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <limits>

#include "engine/chaos.h"

namespace iflow::engine {

const char* to_string(HealthState s) {
  switch (s) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kSuspect: return "suspect";
    case HealthState::kQuarantined: return "quarantined";
    case HealthState::kProbation: return "probation";
  }
  return "unknown";
}

HealthMonitor::HealthMonitor(std::size_t node_count, const HealthConfig& cfg,
                             std::uint64_t seed)
    : cfg_(cfg), seed_(seed), nodes_(node_count),
      node_signal_(node_count, 0.0), node_observed_(node_count, 0) {
  IFLOW_CHECK(cfg_.phi_suspect > 0.0);
  IFLOW_CHECK(cfg_.phi_quarantine >= cfg_.phi_suspect);
  IFLOW_CHECK(cfg_.confirm_epochs >= 1 && cfg_.clear_epochs >= 1);
  IFLOW_CHECK(cfg_.probes_per_epoch >= 1 && cfg_.probe_budget >= 1);
  IFLOW_CHECK(cfg_.decay >= 0.0 && cfg_.decay < 1.0);
  IFLOW_CHECK(cfg_.penalty_scale >= 0.0 && cfg_.penalty_max >= 1.0);
}

double HealthMonitor::channel_signal(const ChannelTelemetry& t) const {
  // Total silence — transmissions went out, nothing ever came back — is as
  // bad as the telemetry gets.
  if (t.rtt_samples == 0) return cfg_.signal_cap;
  double sig = 0.0;
  const double retr =
      static_cast<double>(t.retransmits) / static_cast<double>(t.sent);
  // Retransmissions dominate the loss signature; weight them so a heavily
  // lossy channel saturates the cap on its own.
  sig += std::max(0.0, retr - cfg_.retransmit_floor) * 4.0;
  if (t.expected_rtt_sum_ms > 0.0) {
    const double inflation = t.rtt_sum_ms / t.expected_rtt_sum_ms;
    sig += std::max(0.0, inflation - cfg_.rtt_inflation_floor);
  }
  if (t.max_queue_depth > cfg_.queue_floor) sig += 1.0;
  return std::min(sig, cfg_.signal_cap);
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
  if (d.slowdown >= cfg_.rtt_inflation_floor) return false;
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
      for (int k = 0; k < cfg_.probes_per_epoch; ++k) {
        const double t = now - epoch_s +
                         epoch_s * static_cast<double>(k + 1) /
                             static_cast<double>(cfg_.probes_per_epoch + 1);
        if (!probe_clean(net, n, t, prng)) all_clean = false;
      }
      e.phi *= cfg_.decay;  // no telemetry: suspicion cools passively
      if (all_clean) {
        e.probe_streak += cfg_.probes_per_epoch;
        if (e.state == HealthState::kQuarantined) {
          e.state = HealthState::kProbation;
        }
        if (e.state == HealthState::kProbation &&
            e.probe_streak >= cfg_.probe_budget) {
          e = ElementHealth{};  // fully re-admitted, suspicion forgotten
        }
      } else {
        e.probe_streak = 0;
        e.state = HealthState::kQuarantined;
      }
    } else {
      const double sig =
          node_observed_[n] != 0 ? std::min(node_signal_[n], cfg_.signal_cap)
                                 : 0.0;
      e.phi = e.phi * cfg_.decay + sig;
      if (e.phi >= cfg_.phi_quarantine) {
        ++e.confirm_streak;
      } else {
        e.confirm_streak = 0;
      }
      if (e.phi < cfg_.phi_suspect) {
        ++e.clean_streak;
      } else {
        e.clean_streak = 0;
      }
      if (e.state == HealthState::kHealthy && e.phi >= cfg_.phi_suspect) {
        e.state = HealthState::kSuspect;
      }
      if (e.state == HealthState::kSuspect) {
        if (e.confirm_streak >= cfg_.confirm_epochs) {
          e.state = HealthState::kQuarantined;
          e.confirm_streak = 0;
          e.clean_streak = 0;
          e.probe_streak = 0;
          ++quarantines_total_;
        } else if (e.clean_streak >= cfg_.clear_epochs) {
          e.state = HealthState::kHealthy;
        }
      }
    }
    if (e.state != from) out.push_back(HealthTransition{n, from, e.state});
  }

  // Link suspicion: same accrual, observation-keyed.
  for (const auto& [key, sig] : link_signal_) {
    double& phi = link_phi_[key];
    phi = phi * cfg_.decay + std::min(sig, cfg_.signal_cap);
  }
  for (auto it = link_phi_.begin(); it != link_phi_.end();) {
    if (link_signal_.find(it->first) == link_signal_.end()) {
      it->second *= cfg_.decay;
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
      out[n] = cfg_.penalty_max;
    } else if (e.phi > 0.0) {
      out[n] = std::min(cfg_.penalty_max, 1.0 + e.phi * cfg_.penalty_scale);
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

/// Degradable relay hosts: operator hosts that are no query's endpoint
/// (relay_hosts) and stub nodes, `want` of them drawn deterministically.
/// Quarantining one of these can actually heal the workload — migration
/// removes every flow touching it.
std::vector<net::NodeId> pick_targets(const Middleware& mw,
                                      const std::vector<query::Query>& queries,
                                      int want, std::uint64_t seed) {
  std::vector<net::NodeId> candidates = relay_hosts(mw, queries);
  std::erase_if(candidates, [&](net::NodeId n) {
    return mw.network().kind(n) != net::NodeKind::kStub;
  });
  IFLOW_CHECK_MSG(!candidates.empty(),
                  "gray harness needs a stub operator host that is not a "
                  "query endpoint (use a relay-shaped topology)");
  Prng prng(seed ^ 0x6A47A26E7ULL);
  prng.shuffle(candidates);
  candidates.resize(
      std::min(candidates.size(), static_cast<std::size_t>(want)));
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
  HealthMonitor hm(net.node_count(), cfg.health, seed ^ 0x6EA17BULL);

  EngineConfig ec;
  ec.duration_s = cfg.epoch_s;
  ec.reliability.enabled = true;
  ec.reliability.ack_timeout_s = cfg.ack_timeout_s;
  ec.reliability.max_backoff_s = cfg.max_backoff_s;

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
  IFLOW_CHECK(cfg.epochs >= 1 && cfg.epoch_s > 0.0 && cfg.targets >= 1);
  GrayReport report;
  // A scratch deployment (private copies) decides which operator hosts the
  // planner actually uses; the three measured sub-runs then share targets.
  {
    net::Network scratch_net = net;
    query::Catalog scratch_cat = catalog;
    Middleware scout(scratch_net, scratch_cat, max_cs, algorithm, seed);
    scout.workspace().set_threads(cfg.threads);
    for (const query::Query& q : queries) scout.deploy(q);
    report.targets = pick_targets(scout, queries, cfg.targets, seed);
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
