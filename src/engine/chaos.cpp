#include "engine/chaos.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <unordered_set>

#include "verify/validator.h"

namespace iflow::engine {

namespace {

constexpr double kEps = 1e-9;

template <typename T>
void mark(std::vector<T>& set, const T& x, const char* what) {
  IFLOW_CHECK_MSG(std::find(set.begin(), set.end(), x) == set.end(), what);
  set.push_back(x);
}

template <typename T>
void unmark(std::vector<T>& set, const T& x, const char* what) {
  const auto it = std::find(set.begin(), set.end(), x);
  IFLOW_CHECK_MSG(it != set.end(), what);
  set.erase(it);
}

/// Elements of `all` that are not in `taken`, in `all`'s order.
template <typename T>
std::vector<T> except(const std::vector<T>& all, const std::vector<T>& taken) {
  std::vector<T> out;
  for (const T& x : all) {
    if (std::find(taken.begin(), taken.end(), x) == taken.end()) {
      out.push_back(x);
    }
  }
  return out;
}

}  // namespace

const char* to_string(ChaosEventKind k) {
  switch (k) {
    case ChaosEventKind::kCrashNode: return "crash-node";
    case ChaosEventKind::kFailNode: return "fail-node";
    case ChaosEventKind::kRestoreNode: return "restore-node";
    case ChaosEventKind::kFailLink: return "fail-link";
    case ChaosEventKind::kRestoreLink: return "restore-link";
    case ChaosEventKind::kRateSpike: return "rate-spike";
    case ChaosEventKind::kSetLinkLoss: return "set-link-loss";
    case ChaosEventKind::kSetLinkJitter: return "set-link-jitter";
    case ChaosEventKind::kQueuePressure: return "queue-pressure";
    case ChaosEventKind::kDegradeNode: return "degrade-node";
    case ChaosEventKind::kDegradeLink: return "degrade-link";
    case ChaosEventKind::kClearNode: return "clear-node";
    case ChaosEventKind::kClearLink: return "clear-link";
    case ChaosEventKind::kRegister: return "register";
    case ChaosEventKind::kUnregister: return "unregister";
    case ChaosEventKind::kSetQuota: return "set-quota";
  }
  return "?";
}

std::vector<LinkPair> distinct_link_pairs(const net::Network& net) {
  std::vector<LinkPair> pairs;
  std::unordered_set<std::uint64_t> seen;
  for (const net::Link& l : net.links()) {
    const net::NodeId a = std::min(l.a, l.b);
    const net::NodeId b = std::max(l.a, l.b);
    if (seen.insert((static_cast<std::uint64_t>(a) << 32) | b).second) {
      pairs.emplace_back(a, b);
    }
  }
  return pairs;
}

void FaultState::apply(const ChaosEvent& e) {
  const LinkPair pair{std::min(e.a, e.b), std::max(e.a, e.b)};
  switch (e.kind) {
    case ChaosEventKind::kCrashNode:
    case ChaosEventKind::kFailNode:
      mark(down_nodes_, e.a, "event faults a node that is already down");
      break;
    case ChaosEventKind::kRestoreNode:
      unmark(down_nodes_, e.a, "event restores a node that is up");
      break;
    case ChaosEventKind::kFailLink:
      mark(down_links_, pair, "event fails a link pair that is already down");
      break;
    case ChaosEventKind::kRestoreLink:
      unmark(down_links_, pair, "event restores a link pair that is up");
      break;
    case ChaosEventKind::kDegradeNode:
      mark(degraded_nodes_, e.a, "event degrades a degraded node");
      break;
    case ChaosEventKind::kClearNode:
      unmark(degraded_nodes_, e.a, "event clears a healthy node");
      break;
    case ChaosEventKind::kDegradeLink:
      mark(degraded_links_, pair, "event degrades a degraded link pair");
      break;
    case ChaosEventKind::kClearLink:
      unmark(degraded_links_, pair, "event clears a healthy link pair");
      break;
    case ChaosEventKind::kRateSpike:
    case ChaosEventKind::kSetLinkLoss:
    case ChaosEventKind::kSetLinkJitter:
    case ChaosEventKind::kQueuePressure:
    case ChaosEventKind::kRegister:
    case ChaosEventKind::kUnregister:
    case ChaosEventKind::kSetQuota:
      break;
  }
}

InjectorCore::InjectorCore(const net::Network& net,
                           const query::Catalog& catalog, std::uint64_t seed)
    : prng(seed),
      nodes(net.node_count()),
      link_pairs(distinct_link_pairs(net)) {
  std::iota(nodes.begin(), nodes.end(), net::NodeId{0});
  for (query::StreamId s = 0;
       s < static_cast<query::StreamId>(catalog.stream_count()); ++s) {
    base_rates.push_back(catalog.stream(s).tuple_rate);
  }
}

ChaosEvent InjectorCore::spike() {
  ChaosEvent e;
  e.kind = ChaosEventKind::kRateSpike;
  const std::size_t i = prng.index(base_rates.size());
  e.stream = static_cast<query::StreamId>(i);
  e.rate = base_rates[i] * prng.uniform(0.25, 4.0);
  return e;
}

std::optional<ChaosEvent> InjectorCore::fault_or_restore(int max_down_nodes,
                                                         int max_down_links,
                                                         double restore_bias,
                                                         bool crash_coin) {
  const std::vector<net::NodeId>& down_nodes = state.down_nodes();
  const std::vector<LinkPair>& down_links = state.down_links();
  // Never take down more than half the nodes: the hierarchy keeps a
  // working quorum and planners always have somewhere to place operators.
  const bool node_budget =
      down_nodes.size() <
          static_cast<std::size_t>(std::max(max_down_nodes, 0)) &&
      (down_nodes.size() + 1) * 2 <= nodes.size();
  const bool link_budget =
      down_links.size() <
          static_cast<std::size_t>(std::max(max_down_links, 0)) &&
      down_links.size() < link_pairs.size();
  const bool can_fault = node_budget || link_budget;
  const bool anything_down = !down_nodes.empty() || !down_links.empty();

  ChaosEvent e;
  if (anything_down && (prng.chance(restore_bias) || !can_fault)) {
    const std::size_t pick = prng.index(down_nodes.size() + down_links.size());
    if (pick < down_nodes.size()) {
      e.kind = ChaosEventKind::kRestoreNode;
      e.a = down_nodes[pick];
    } else {
      e.kind = ChaosEventKind::kRestoreLink;
      std::tie(e.a, e.b) = down_links[pick - down_nodes.size()];
    }
    return e;
  }
  if (!can_fault) return std::nullopt;

  if (node_budget && (!link_budget || prng.chance(0.5))) {
    e.kind = crash_coin && prng.chance(0.5) ? ChaosEventKind::kCrashNode
                                            : ChaosEventKind::kFailNode;
    e.a = prng.pick(except(nodes, down_nodes));
    return e;
  }
  e.kind = ChaosEventKind::kFailLink;
  std::tie(e.a, e.b) = prng.pick(except(link_pairs, down_links));
  return e;
}

FaultInjector::FaultInjector(const net::Network& net,
                             const query::Catalog& catalog,
                             const ChaosConfig& cfg, std::uint64_t seed)
    : cfg_(cfg), core_(net, catalog, seed) {
  IFLOW_CHECK(core_.nodes.size() >= 2);
}

ChaosEvent FaultInjector::next() {
  const ChaosEvent e = draw();
  core_.state.apply(e);
  return e;
}

ChaosEvent FaultInjector::draw() {
  Prng& prng = core_.prng;
  const std::vector<LinkPair>& link_pairs = core_.link_pairs;
  if (!core_.base_rates.empty() && prng.chance(cfg_.spike_probability)) {
    return core_.spike();
  }

  ChaosEvent e;
  // Delivery-layer events: none of these change what is down, so they sit
  // outside the budget/restore bookkeeping. Re-drawing loss or jitter on a
  // pair that already has some simply overwrites it.
  if (!link_pairs.empty() && prng.chance(cfg_.loss_probability)) {
    e.kind = ChaosEventKind::kSetLinkLoss;
    std::tie(e.a, e.b) = prng.pick(link_pairs);
    e.rate = prng.uniform(0.0, cfg_.max_link_loss);
    return e;
  }
  if (!link_pairs.empty() && prng.chance(cfg_.jitter_probability)) {
    e.kind = ChaosEventKind::kSetLinkJitter;
    std::tie(e.a, e.b) = prng.pick(link_pairs);
    e.rate = prng.uniform(0.0, cfg_.max_jitter_ms);
    return e;
  }
  if (prng.chance(cfg_.queue_probability)) {
    e.kind = ChaosEventKind::kQueuePressure;
    // Per-tuple service time; the top of the range keeps operator
    // utilization under ~0.4 at the generator's spiked stream rates, so
    // backpressure queues stay shallow and event-time results unaffected.
    e.rate = prng.uniform(0.0001, 0.0005);
    return e;
  }
  if (prng.chance(cfg_.gray_probability)) {
    // Gray failures live outside the down-budget bookkeeping: a degraded
    // element stays administratively up. The injector still budgets how
    // many are sick at once and heals restore-biased, like real faults.
    const std::vector<net::NodeId>& sick_nodes = core_.state.degraded_nodes();
    const std::vector<LinkPair>& sick_links = core_.state.degraded_links();
    const std::size_t degraded = sick_nodes.size() + sick_links.size();
    const bool budget =
        degraded < static_cast<std::size_t>(std::max(cfg_.max_degraded, 0));
    if (degraded > 0 && (!budget || prng.chance(cfg_.restore_bias))) {
      const std::size_t pick = prng.index(degraded);
      if (pick < sick_nodes.size()) {
        e.kind = ChaosEventKind::kClearNode;
        e.a = sick_nodes[pick];
      } else {
        e.kind = ChaosEventKind::kClearLink;
        std::tie(e.a, e.b) = sick_links[pick - sick_nodes.size()];
      }
      return e;
    }
    if (budget) {
      // Three gray families: slow element, lossy element, flapper (slow
      // AND lossy, gated by an on/off wave).
      const std::size_t family = prng.index(3);
      if (family == 0 || family == 2) {
        e.slowdown = prng.uniform(1.5, std::max(1.5, cfg_.max_gray_slowdown));
      }
      if (family == 1 || family == 2) {
        e.rate = prng.uniform(0.05, std::max(0.05, cfg_.max_gray_loss));
      }
      if (family == 2) {
        e.flap_hz = prng.uniform(0.05, std::max(0.05, cfg_.max_gray_flap_hz));
      }
      const std::vector<net::NodeId> well_nodes =
          except(core_.nodes, sick_nodes);
      const std::vector<LinkPair> well_links = except(link_pairs, sick_links);
      const bool pick_node =
          !well_nodes.empty() && (well_links.empty() || prng.chance(0.5));
      if (pick_node) {
        e.kind = ChaosEventKind::kDegradeNode;
        e.a = prng.pick(well_nodes);
        return e;
      }
      if (!well_links.empty()) {
        e.kind = ChaosEventKind::kDegradeLink;
        std::tie(e.a, e.b) = prng.pick(well_links);
        return e;
      }
      // Everything already degraded; fall through.
    }
  }

  if (std::optional<ChaosEvent> f =
          core_.fault_or_restore(cfg_.max_down_nodes, cfg_.max_down_links,
                                 cfg_.restore_bias, /*crash_coin=*/true)) {
    return *f;
  }
  // Caps reached with nothing down can only happen with zero budgets;
  // degrade to a spike.
  IFLOW_CHECK_MSG(!core_.base_rates.empty(),
                  "chaos config leaves no applicable event");
  return core_.spike();
}

std::size_t validate_actives(
    Middleware& mw, const std::unordered_set<query::QueryId>& replanned,
    std::string* first_detail) {
  opt::OptimizerEnv env = mw.planning_env();
  const std::vector<net::NodeId> excluded = mw.excluded_hosts();
  std::size_t violations = 0;
  for (const Middleware::ActiveView& v : mw.active_views()) {
    verify::ValidateOptions vopts;
    // No active deployment may keep an operator or derived unit on a
    // failed, crashed, quarantined or load-shed host (kExcludedHost).
    vopts.excluded_hosts = &excluded;
    if (replanned.count(v.query->id) > 0) {
      vopts.query = v.query;
      vopts.planned_cost = v.planned_cost;
    }
    const std::vector<verify::Violation> found =
        verify::validate(*v.deployment, env, vopts);
    if (!found.empty() && first_detail != nullptr && first_detail->empty()) {
      std::ostringstream os;
      os << "query " << v.query->id << ": " << verify::describe(found);
      *first_detail = os.str();
    }
    violations += found.size();
  }
  return violations;
}

std::unordered_set<query::QueryId> replanned_ids(
    const std::vector<Redeployment>& reds) {
  std::unordered_set<query::QueryId> out;
  for (const Redeployment& r : reds) {
    if (r.outcome == Outcome::kMigrated || r.outcome == Outcome::kResumed) {
      out.insert(r.query);
    }
  }
  return out;
}

std::vector<net::NodeId> relay_hosts(const Middleware& mw,
                                     const std::vector<query::Query>& queries) {
  const std::size_t nodes = mw.network().node_count();
  std::vector<char> endpoint(nodes, 0);
  for (const query::Query& q : queries) {
    endpoint[q.sink] = 1;
    for (const query::StreamId s : q.sources) {
      endpoint[mw.catalog().stream(s).source] = 1;
    }
  }
  std::vector<char> hosting(nodes, 0);
  for (const Middleware::ActiveView& v : mw.active_views()) {
    for (const query::DeployedOp& op : v.deployment->ops) {
      hosting[op.node] = 1;
    }
  }
  std::vector<net::NodeId> out;
  for (net::NodeId n = 0; n < nodes; ++n) {
    if (hosting[n] != 0 && endpoint[n] == 0) out.push_back(n);
  }
  IFLOW_CHECK_MSG(!out.empty(),
                  "the harness needs an operator host that is not a query "
                  "endpoint (use a relay-shaped topology)");
  return out;
}

namespace {

/// Applies a network, rate or quality event to `mw` and returns the
/// redeployments it caused. Queue pressure and population events belong to
/// one runner each, which handles them before calling this.
std::vector<Redeployment> apply_event(Middleware& mw, const ChaosEvent& e) {
  switch (e.kind) {
    case ChaosEventKind::kCrashNode: return mw.crash_node(e.a);
    case ChaosEventKind::kFailNode: return mw.fail_node(e.a);
    case ChaosEventKind::kRestoreNode: return mw.restore_node(e.a);
    case ChaosEventKind::kFailLink: return mw.fail_link(e.a, e.b);
    case ChaosEventKind::kRestoreLink: return mw.restore_link(e.a, e.b);
    case ChaosEventKind::kRateSpike:
      mw.set_stream_rate(e.stream, e.rate);
      return mw.adapt();
    case ChaosEventKind::kSetLinkLoss:
      mw.set_link_loss(e.a, e.b, e.rate);
      return {};
    case ChaosEventKind::kSetLinkJitter:
      mw.set_link_jitter(e.a, e.b, e.rate);
      return {};
    case ChaosEventKind::kDegradeNode:
      mw.degrade_node(e.a, net::Degradation{e.slowdown, e.rate, e.flap_hz});
      return {};
    case ChaosEventKind::kDegradeLink:
      mw.degrade_link(e.a, e.b,
                      net::Degradation{e.slowdown, e.rate, e.flap_hz});
      return {};
    case ChaosEventKind::kClearNode:
      mw.degrade_node(e.a, net::Degradation{});
      return {};
    case ChaosEventKind::kClearLink:
      mw.degrade_link(e.a, e.b, net::Degradation{});
      return {};
    case ChaosEventKind::kQueuePressure:
    case ChaosEventKind::kRegister:
    case ChaosEventKind::kUnregister:
    case ChaosEventKind::kSetQuota:
      break;
  }
  IFLOW_CHECK_MSG(false, "this runner cannot apply a " << to_string(e.kind)
                                                       << " event");
  return {};
}

/// One transcript line per event: the event, then the state it left. The
/// registration runner's `note` records a register/unregister outcome.
void digest_line(std::ostringstream& os, std::size_t step,
                 const ChaosEvent& e, const char* note, const Middleware& mw,
                 double total_cost, std::size_t violations) {
  os << "step " << step << ' ' << to_string(e.kind) << ' ';
  switch (e.kind) {
    case ChaosEventKind::kRateSpike:
      os << 's' << e.stream << ' ' << std::hexfloat << e.rate
         << std::defaultfloat;
      break;
    case ChaosEventKind::kSetLinkLoss:
    case ChaosEventKind::kSetLinkJitter:
      os << e.a << '-' << e.b << ' ' << std::hexfloat << e.rate
         << std::defaultfloat;
      break;
    case ChaosEventKind::kQueuePressure:
      os << std::hexfloat << e.rate << std::defaultfloat;
      break;
    case ChaosEventKind::kDegradeNode:
    case ChaosEventKind::kDegradeLink:
      os << e.a;
      if (e.b != net::kInvalidNode) os << '-' << e.b;
      os << ' ' << std::hexfloat << e.slowdown << ' ' << e.rate << ' '
         << e.flap_hz << std::defaultfloat;
      break;
    case ChaosEventKind::kRegister:
    case ChaosEventKind::kUnregister:
      os << 'q' << e.query << ' ' << note;
      break;
    case ChaosEventKind::kSetQuota:
      os << 't' << e.tenant << " w " << std::hexfloat << e.quota.weight
         << std::defaultfloat << " maxq " << e.quota.max_queries;
      break;
    default:
      os << e.a;
      if (e.b != net::kInvalidNode) os << '-' << e.b;
      break;
  }
  os << " cost " << std::hexfloat << total_cost << std::defaultfloat
     << " active " << mw.active_queries() << " suspended "
     << mw.suspended_queries() << " viol " << violations << '\n';
}

/// The restoration sweep both churn runners end with: bring back every link
/// pair and node `state` still has down, heal every degradation, then adapt
/// until quiescent so the suspended queue drains and drifted deployments
/// settle. Each restore resets the resume-attempt budgets. Validation runs
/// after every call — a planned cost is only checkable against the routing
/// tables it was computed under, and each restore rebuilds them — and adds
/// to `violations` / `detail`.
void restore_all(Middleware& mw, const FaultState& state,
                 std::size_t& violations, std::string& detail) {
  const auto validate = [&](const std::vector<Redeployment>& reds) {
    violations += validate_actives(mw, replanned_ids(reds), &detail);
  };
  for (const auto& [a, b] : state.down_links()) {
    validate(mw.restore_link(a, b));
  }
  for (const net::NodeId n : state.down_nodes()) {
    validate(mw.restore_node(n));
  }
  // Gray degradations heal too. Quality-only, so no replanning happens —
  // but the delivery twins compare lossy vs loss-free counts EXACTLY, and
  // a still-degraded hop would push residual loss past the retry budget.
  for (const net::NodeId n : state.degraded_nodes()) {
    mw.degrade_node(n, net::Degradation{});
  }
  for (const auto& [a, b] : state.degraded_links()) {
    mw.degrade_link(a, b, net::Degradation{});
  }
  for (int round = 0; round < 5; ++round) {
    const std::vector<Redeployment> r = mw.adapt();
    validate(r);
    if (r.empty()) break;
  }
}

}  // namespace

ChaosReport run_churn(net::Network net, query::Catalog catalog,
                      const std::vector<query::Query>& queries, int max_cs,
                      Algorithm algorithm, std::uint64_t seed,
                      const ChaosConfig& cfg,
                      const std::vector<ChaosEvent>& script) {
  // Injector draws never read the middleware, so a drawn run replays its
  // schedule drawn up front.
  std::vector<ChaosEvent> drawn;
  if (script.empty()) {
    FaultInjector inj(net, catalog, cfg, seed ^ 0xC4A05E7A11DEADULL);
    for (int i = 0; i < cfg.events; ++i) drawn.push_back(inj.next());
  }
  const std::vector<ChaosEvent>& events = script.empty() ? drawn : script;

  ChaosReport report;
  std::ostringstream digest;

  Middleware mw(net, catalog, max_cs, algorithm, seed, cfg.drift_threshold);
  mw.workspace().set_threads(cfg.threads);
  for (const query::Query& q : queries) {
    report.deploy_time_ms += mw.deploy(q).deploy_time_ms;
  }

  // Queue pressure applies to the post-churn delivery check; the last
  // event wins.
  double queue_service_s = 0.0;
  FaultState state;
  for (std::size_t i = 0; i < events.size(); ++i) {
    ChaosStep step;
    step.event = events[i];
    const ChaosEvent& e = step.event;
    state.apply(e);
    if (e.kind == ChaosEventKind::kQueuePressure) {
      queue_service_s = e.rate;
    } else {
      step.redeployments = apply_event(mw, e);
    }
    step.violations = validate_actives(mw, replanned_ids(step.redeployments),
                                       &step.violation_detail);
    if (!step.violation_detail.empty() && report.violation_detail.empty()) {
      report.violation_detail = step.violation_detail;
    }
    step.active = mw.active_queries();
    step.suspended = mw.suspended_queries();
    step.total_cost = mw.total_current_cost();
    report.violations += step.violations;
    digest_line(digest, i, e, "", mw, step.total_cost, step.violations);
    report.steps.push_back(std::move(step));
  }

  restore_all(mw, state, report.violations, report.violation_detail);
  // Staggered resumes leave reuse on the table (each query planned against
  // whatever advertisements existed at its resume); the convergence pass
  // recovers it.
  report.violations += validate_actives(mw, replanned_ids(mw.reoptimize()),
                                        &report.violation_detail);

  report.all_resumed = mw.suspended_queries() == 0 &&
                       mw.active_queries() == queries.size();
  report.final_cost = mw.total_current_cost();

  // Fresh baseline: a brand-new middleware over copies of the end state
  // (all nodes alive, all links up, spiked rates retained) optimizing the
  // same workload in the same order.
  net::Network fresh_net = mw.network();
  query::Catalog fresh_catalog = mw.catalog();
  Middleware fresh(fresh_net, fresh_catalog, max_cs, algorithm, seed,
                   cfg.drift_threshold);
  fresh.workspace().set_threads(cfg.threads);
  for (const query::Query& q : queries) fresh.deploy(q);
  report.fresh_cost = fresh.total_current_cost();

  // One-sided: the churned system must not end up much WORSE than a fresh
  // optimization of the same end state. It may well end up cheaper — the
  // repeated adapt() cycles amount to iterated re-optimization with reuse,
  // which a single greedy deploy pass does not get.
  const double f = cfg.convergence_factor;
  report.converged =
      report.all_resumed && std::isfinite(report.final_cost) &&
      std::isfinite(report.fresh_cost) &&
      report.final_cost <= f * report.fresh_cost + kEps;

  digest << "final cost " << std::hexfloat << report.final_cost
         << " fresh " << report.fresh_cost << std::defaultfloat
         << " resumed " << (report.all_resumed ? 1 : 0) << " viol "
         << report.violations << '\n';

  // Post-churn delivery contract: deploy the surviving actives into two
  // simulations — one over the churned network with its
  // accumulated loss/jitter, one over a loss-free copy — driven by the same
  // engine seed (sources draw only from the main engine Prng, so both runs
  // emit identical tuples). With per-link loss under the retry budget's
  // tolerance, ack-based retransmission plus receiver dedup must make the
  // lossy run deliver exactly the loss-free counts, with zero tuples lost
  // after retries.
  if (cfg.delivery_check) {
    EngineConfig ec;
    // delivery_duration_s is the emission window; the extra 30 s is a
    // settle window during which sources are quiet but the full retry
    // chain (~23 s at 12 retries capped at 2 s) completes.
    ec.duration_s = cfg.delivery_duration_s + 30.0;
    // The count-equality contract needs parameters sized to the topology,
    // not to wall-clock goodput. GT-ITM paths run to ~1 s round trip, so
    // the backoff cap must exceed the worst RTT or every in-flight ack
    // loses the race and the channel retransmits forever; the window must
    // exceed the bandwidth-delay product of a spiked stream (4 × 100 t/s
    // × 1 s RTT) or backpressure stalls delay tuples without bound; and
    // join partners are retained for the whole run so a retransmit-delayed
    // tuple still meets everything it would have met loss-free.
    ec.reliability.max_backoff_s = 2.0;
    ec.reliability.window = 1024;
    ec.reliability.lateness_s = ec.duration_s;
    ec.reliability.drain_s = 30.0;
    // Scenario rate curves shape emission in BOTH twins identically, so the
    // count-equality contract is unaffected.
    ec.rate_factor = cfg.rate_modulation;
    if (queue_service_s > 0.0) {
      ec.reliability.service_s = queue_service_s;
      ec.reliability.queue_capacity = 96;
      ec.reliability.overflow = OverflowPolicy::kBackpressure;
    }
    const std::uint64_t sim_seed = seed ^ 0x0DE11FE12ULL;
    const std::vector<Middleware::ActiveView> views = mw.active_views();

    const net::Network& lossy_net = mw.network();
    net::Network clean_net = lossy_net;
    for (const net::Link& l : lossy_net.links()) {
      clean_net.set_link_loss(l.a, l.b, 0.0);
      clean_net.set_link_jitter(l.a, l.b, 0.0);
    }
    const net::RoutingTables lossy_rt = net::RoutingTables::build(lossy_net);
    const net::RoutingTables clean_rt = net::RoutingTables::build(clean_net);

    Simulation lossy(lossy_net, lossy_rt, mw.catalog(), ec, sim_seed);
    Simulation clean(clean_net, clean_rt, mw.catalog(), ec, sim_seed);
    // A provider missing outright makes the check not runnable.
    if (mw.deploy_actives(lossy) && mw.deploy_actives(clean)) {
      lossy.run();
      clean.run();
      report.delivery_checked = true;
      bool ok = true;
      for (const Middleware::ActiveView& v : views) {
        const query::QueryId q = v.query->id;
        if (lossy.tuples_delivered(q) != clean.tuples_delivered(q)) {
          ok = false;
        }
        const DeliveryStats ds = lossy.delivery_stats(q);
        if (ds.lost != 0) ok = false;
        report.delivered_total += ds.delivered;
        report.retransmits_total += ds.retransmits;
        report.duplicates_total += ds.duplicates;
        report.mean_availability += lossy.availability(q);
      }
      if (!views.empty()) {
        report.mean_availability /= static_cast<double>(views.size());
      }
      report.goodput_tps = static_cast<double>(report.delivered_total) /
                           cfg.delivery_duration_s;
      report.delivery_ok = ok;
    }
    digest << "delivery checked " << (report.delivery_checked ? 1 : 0)
           << " ok " << (report.delivery_ok ? 1 : 0) << " delivered "
           << report.delivered_total << " retrans "
           << report.retransmits_total << " dup " << report.duplicates_total
           << " avail " << std::hexfloat << report.mean_availability
           << " goodput " << report.goodput_tps << std::defaultfloat << '\n';
  }

  report.digest = digest.str();
  return report;
}

// ---------------------------------------------------------------------------
// Registration churn (multi-tenant churn plane).
// ---------------------------------------------------------------------------

namespace {

/// Live registration-churn draws. next() sees the runner's in-system view
/// because register / unregister eligibility depends on admission outcomes
/// no schedule drawn up front could predict.
class RegistrationInjector {
 public:
  RegistrationInjector(const net::Network& net, const query::Catalog& catalog,
                       const std::vector<query::Query>& pool,
                       const RegistrationChurnConfig& cfg, std::uint64_t seed)
      : cfg_(cfg), core_(net, catalog, seed), pool_size_(pool.size()) {
    for (const query::Query& q : pool) tenants_.push_back(q.tenant);
    std::sort(tenants_.begin(), tenants_.end());
    tenants_.erase(std::unique(tenants_.begin(), tenants_.end()),
                   tenants_.end());
  }

  ChaosEvent next(const std::vector<char>& in_system) {
    const ChaosEvent e = draw(in_system);
    core_.state.apply(e);
    return e;
  }

 private:
  ChaosEvent draw(const std::vector<char>& in_system) {
    Prng& prng = core_.prng;
    if (prng.chance(cfg_.fault_probability)) {
      if (std::optional<ChaosEvent> f = core_.fault_or_restore(
              cfg_.max_down_nodes, cfg_.max_down_links, cfg_.restore_bias,
              /*crash_coin=*/false)) {
        return *f;
      }
      // No fault budget and nothing to restore: fall through to churn.
    }
    if (!core_.base_rates.empty() && prng.chance(cfg_.spike_probability)) {
      return core_.spike();
    }
    ChaosEvent e;
    if (!tenants_.empty() && prng.chance(cfg_.quota_probability)) {
      e.kind = ChaosEventKind::kSetQuota;
      e.tenant = prng.pick(tenants_);
      e.quota.weight = prng.uniform(0.5, 2.0);
      e.quota.max_queries = 1 + prng.index(pool_size_);
      return e;
    }
    std::vector<std::size_t> in, out;
    for (std::size_t i = 0; i < in_system.size(); ++i) {
      (in_system[i] != 0 ? in : out).push_back(i);
    }
    const bool unregister =
        !in.empty() && (out.empty() || prng.chance(cfg_.unregister_bias));
    if (unregister) {
      e.kind = ChaosEventKind::kUnregister;
      e.query = in[prng.index(in.size())];
    } else {
      IFLOW_CHECK_MSG(!out.empty(),
                      "registration churn over an empty query pool");
      e.kind = ChaosEventKind::kRegister;
      e.query = out[prng.index(out.size())];
    }
    return e;
  }

  RegistrationChurnConfig cfg_;
  InjectorCore core_;
  std::size_t pool_size_;
  std::vector<std::uint32_t> tenants_;
};

/// Nodes over node_capacity plus links over their bandwidth headroom, per
/// the incremental ledger. Rate spikes may legitimately push EXISTING
/// actives over budget (admission gates arrivals; drift is rebalance
/// territory) — the harness invariant is that an admitted registration
/// never raises this count.
std::size_t capacity_breaches(const Middleware& mw,
                              const RegistrationChurnConfig& cfg) {
  std::size_t n = 0;
  if (cfg.node_capacity > 0.0) {
    for (const double load : mw.ledger().node_load()) {
      if (load > cfg.node_capacity + 1e-6) ++n;
    }
  }
  if (cfg.link_utilization_cap > 0.0) {
    const auto& links = mw.network().links();
    const std::vector<double>& loads = mw.ledger().link_load();
    for (std::size_t i = 0; i < loads.size() && i < links.size(); ++i) {
      const double bw = links[i].bandwidth_bps;
      if (bw <= 0.0) continue;
      if (loads[i] > bw / 8.0 * cfg.link_utilization_cap + 1e-6) ++n;
    }
  }
  return n;
}

}  // namespace

RegistrationChurnReport run_registration_churn(
    net::Network net, query::Catalog catalog,
    const std::vector<query::Query>& pool, int max_cs, Algorithm algorithm,
    std::uint64_t seed, const RegistrationChurnConfig& cfg,
    const std::vector<ChaosEvent>& script) {
  std::optional<RegistrationInjector> inj;
  if (script.empty()) {
    inj.emplace(net, catalog, pool, cfg, seed ^ 0x9E61577E4A71ULL);
  }
  const std::size_t count =
      script.empty() ? static_cast<std::size_t>(std::max(cfg.events, 0))
                     : script.size();

  RegistrationChurnReport report;
  std::ostringstream digest;

  Middleware mw(net, catalog, max_cs, algorithm, seed, cfg.drift_threshold);
  mw.workspace().set_threads(cfg.threads);
  AdmissionConfig ac;
  ac.node_capacity = cfg.node_capacity;
  ac.link_utilization_cap = cfg.link_utilization_cap;
  mw.set_admission_config(ac);
  for (const auto& [tenant, quota] : cfg.quotas) {
    mw.set_tenant_quota(tenant, quota);
  }

  std::vector<char> in_system(pool.size(), 0);
  std::size_t restores = 0;  // attempt-budget resets, for the backoff bound
  FaultState state;

  const auto validate_after =
      [&](const std::unordered_set<query::QueryId>& fresh) -> std::size_t {
    const std::size_t v =
        validate_actives(mw, fresh, &report.violation_detail);
    report.violations += v;
    return v;
  };

  const auto settle_pass = [&](std::size_t step_no) {
    const std::vector<Redeployment> reds = mw.settle();
    ++report.settles;
    const Middleware::SettleStats& st = mw.last_settle_stats();
    report.settle_replans += st.replanned;
    report.settle_moves += st.moved;
    report.settle_actives += mw.active_queries();
    const std::size_t v = validate_after(replanned_ids(reds));
    digest << "settle " << step_no << " replanned " << st.replanned
           << " moved " << st.moved << " cost " << std::hexfloat
           << mw.total_current_cost() << std::defaultfloat << " viol " << v
           << '\n';
  };

  for (std::size_t i = 0; i < count; ++i) {
    const ChaosEvent e = inj ? inj->next(in_system) : script[i];
    state.apply(e);
    std::vector<Redeployment> reds;
    std::unordered_set<query::QueryId> fresh;
    const char* note = "";
    switch (e.kind) {
      case ChaosEventKind::kRegister: {
        IFLOW_CHECK(e.query < pool.size());
        if (in_system[e.query] != 0) {
          note = "noop";  // scripted replay of a register already in effect
          break;
        }
        const query::Query& q = pool[e.query];
        const std::size_t breaches_before = capacity_breaches(mw, cfg);
        const opt::OptimizeResult res = mw.deploy(q);
        if (res.feasible) {
          in_system[e.query] = 1;
          ++report.registrations;
          report.deploy_time_ms += res.deploy_time_ms;
          if (mw.last_admission().decision ==
              AdmissionDecision::kAdmitDegraded) {
            ++report.degraded;
            note = "degraded";
          } else {
            ++report.admitted;
            note = "admit";
          }
          for (const query::LeafUnit& u : res.deployment.units) {
            if (u.derived) {
              ++report.reuse_deployments;
              break;
            }
          }
          fresh.insert(q.id);
          const std::size_t breaches_after = capacity_breaches(mw, cfg);
          if (breaches_after > breaches_before) {
            report.capacity_violations += breaches_after - breaches_before;
          }
        } else if (mw.last_admission().decision == AdmissionDecision::kReject) {
          ++report.rejections;
          note = "rejected";
          if (report.first_rejection.empty()) {
            report.first_rejection = mw.last_admission().reason;
          }
        } else {
          // Endpoints down or momentarily unplannable: parked suspended,
          // holding its tenant slot; the resume passes retry it.
          in_system[e.query] = 1;
          ++report.registrations;
          ++report.parked;
          note = "parked";
        }
        break;
      }
      case ChaosEventKind::kUnregister: {
        IFLOW_CHECK(e.query < pool.size());
        if (mw.undeploy(pool[e.query].id, &reds)) {
          in_system[e.query] = 0;
          ++report.unregistrations;
          note = "ok";
        } else {
          note = "noop";  // scripted unregister of a rejected registration
        }
        break;
      }
      case ChaosEventKind::kSetQuota:
        mw.set_tenant_quota(e.tenant, e.quota);
        break;
      default:
        reds = apply_event(mw, e);
        if (e.kind == ChaosEventKind::kRestoreNode ||
            e.kind == ChaosEventKind::kRestoreLink) {
          ++restores;
        }
        break;
    }
    std::unordered_set<query::QueryId> ids = replanned_ids(reds);
    ids.insert(fresh.begin(), fresh.end());
    const std::size_t v = validate_after(ids);
    digest_line(digest, i, e, note, mw, mw.total_current_cost(), v);
    if (cfg.settle_every > 0 &&
        (i + 1) % static_cast<std::size_t>(cfg.settle_every) == 0) {
      settle_pass(i);
    }
  }

  // Restore whatever the events left down, drain the suspended queue, then
  // settle the remaining dirty region.
  restores += state.down_links().size() + state.down_nodes().size();
  restore_all(mw, state, report.violations, report.violation_detail);
  settle_pass(count);
  report.final_cost = mw.total_current_cost();

  // Settle parity: the incremental dirty-region path must leave at most
  // parity_slack of the total cost on the table versus a full re-cluster.
  validate_after(replanned_ids(mw.reoptimize()));
  report.reopt_cost = mw.total_current_cost();
  report.parity_ok = std::isfinite(report.final_cost) &&
                     std::isfinite(report.reopt_cost) &&
                     report.reopt_cost >=
                         report.final_cost * (1.0 - cfg.parity_slack) - kEps;

  // Bounded retries: each suspended query fails at most max_resume_attempts
  // times between attempt-budget resets, and only restores reset budgets.
  report.resume_failures = mw.resume_failures_total();
  const std::uint64_t bound =
      (static_cast<std::uint64_t>(restores) + 1) *
      static_cast<std::uint64_t>(mw.max_resume_attempts()) * pool.size();
  report.backoff_bounded = report.resume_failures <= bound;

  report.ok = report.violations == 0 && report.capacity_violations == 0 &&
              report.parity_ok && report.backoff_bounded;

  digest << "final cost " << std::hexfloat << report.final_cost << " reopt "
         << report.reopt_cost << std::defaultfloat << " reg "
         << report.registrations << " rej " << report.rejections << " viol "
         << report.violations << '\n';
  report.digest = digest.str();
  return report;
}

// ---------------------------------------------------------------------------
// Checkpoint/recovery contract.
// ---------------------------------------------------------------------------

RecoveryReport run_recovery(net::Network net, query::Catalog catalog,
                            const std::vector<query::Query>& queries,
                            int max_cs, Algorithm algorithm,
                            std::uint64_t seed, const RecoveryConfig& cfg) {
  RecoveryReport report;
  std::ostringstream digest;

  Middleware mw(net, catalog, max_cs, algorithm, seed);
  mw.workspace().set_threads(cfg.threads);
  for (const query::Query& q : queries) mw.deploy(q);

  const auto validate_after = [&](const std::vector<Redeployment>& reds) {
    report.violations +=
        validate_actives(mw, replanned_ids(reds), &report.violation_detail);
  };

  // Control-plane churn: alternate fault (crash or quarantine of a
  // deterministically drawn operator host) and heal, so every event either
  // migrates operators off a node or settles them back — each adoption is
  // recorded as a state migration the data-plane phase replays as a warm
  // kMigrateOps handoff.
  const std::vector<net::NodeId> targets = relay_hosts(mw, queries);
  Prng ev_prng(seed ^ 0x2ECC0DE5EEDULL);
  net::NodeId down = net::kInvalidNode;
  net::NodeId held = net::kInvalidNode;  // quarantined
  for (int i = 0; i < cfg.events; ++i) {
    const char* what = nullptr;
    net::NodeId n = net::kInvalidNode;
    if (down != net::kInvalidNode) {
      n = down;
      what = "restore-node";
      validate_after(mw.restore_node(n));
      down = net::kInvalidNode;
    } else if (held != net::kInvalidNode) {
      n = held;
      what = "release-quarantine";
      validate_after(mw.release_quarantine(n));
      held = net::kInvalidNode;
    } else if (ev_prng.chance(0.5)) {
      n = targets[ev_prng.index(targets.size())];
      what = "crash-node";
      validate_after(mw.crash_node(n));
      down = n;
    } else {
      n = targets[ev_prng.index(targets.size())];
      what = "quarantine-node";
      validate_after(mw.quarantine_node(n));
      held = n;
    }
    ++report.events;
    digest << "recovery step " << i << ' ' << what << ' ' << n << " cost "
           << std::hexfloat << mw.total_current_cost() << std::defaultfloat
           << " active " << mw.active_queries() << " suspended "
           << mw.suspended_queries() << " viol " << report.violations << '\n';
  }
  if (down != net::kInvalidNode) validate_after(mw.restore_node(down));
  if (held != net::kInvalidNode) validate_after(mw.release_quarantine(held));
  validate_after(mw.reoptimize());

  // Warm handoffs the planner performed; deduped (from, to) pairs become
  // forced kMigrateOps faults in the data-plane phase. Cold resumes (empty
  // before-deployment) record no moves and inject nothing.
  std::vector<std::pair<net::NodeId, net::NodeId>> moves;
  for (const StateMigration& m : mw.state_migrations()) {
    if (!m.warm || m.moves.empty()) continue;
    ++report.migrations;
    for (const StateMigration::OpMove& mv : m.moves) {
      const auto p = std::make_pair(mv.from, mv.to);
      if (std::find(moves.begin(), moves.end(), p) == moves.end()) {
        moves.push_back(p);
      }
    }
  }
  // The crash target must come from the *settled* placement: churn plus the
  // final replan may have moved every operator off the pre-churn hosts, and
  // crashing a now-stateless node would exercise nothing (the volatile arm
  // would lose no results and the contract's teeth check would be vacuous).
  const std::vector<net::NodeId> after = relay_hosts(mw, queries);
  const net::NodeId crash_target = after[ev_prng.index(after.size())];
  // The data-plane phase needs at least one forced migration even when the
  // churn phase happened to replan without moving anything: hand the crash
  // target's ops to another live host mid-window.
  if (moves.empty()) {
    for (const net::NodeId n : after) {
      if (n != crash_target) {
        moves.emplace_back(n, crash_target);
        break;
      }
    }
    if (moves.empty()) moves.emplace_back(crash_target, targets.front());
  }
  if (moves.size() > 4) moves.resize(4);

  // Data-plane phase: three simulations of the settled
  // deployment under one engine seed. Sources draw only from the main
  // engine Prng, so all three emit identical tuples; the checkpoint plane
  // must make the faulted run indistinguishable from the twin at the sinks.
  EngineConfig ec;
  ec.duration_s = cfg.duration_s + cfg.drain_s;
  ec.reliability.ack_timeout_s = cfg.ack_timeout_s;
  ec.reliability.max_backoff_s = cfg.max_backoff_s;
  ec.reliability.window = 1024;
  ec.reliability.lateness_s = ec.duration_s;
  ec.reliability.drain_s = cfg.drain_s;

  EngineConfig ec_ckpt = ec;
  ec_ckpt.checkpoint.enabled = true;
  ec_ckpt.checkpoint.volatile_state = true;
  ec_ckpt.checkpoint.interval_s = cfg.checkpoint_interval_s;
  ec_ckpt.checkpoint.replicas = cfg.replicas;

  EngineConfig ec_vol = ec;
  ec_vol.checkpoint.enabled = false;
  ec_vol.checkpoint.volatile_state = true;

  const std::uint64_t sim_seed = seed ^ 0x2ECC0DE5ULL;
  const net::Network& final_net = mw.network();
  const net::RoutingTables final_rt = net::RoutingTables::build(final_net);
  const std::vector<Middleware::ActiveView> views = mw.active_views();

  const auto deploy_all = [&](Simulation& sim) {
    IFLOW_CHECK_MSG(mw.deploy_actives(sim), "reuse chain failed to deploy");
  };

  const auto schedule_faults = [&](Simulation& sim) {
    sim.schedule_fault(SimFault{cfg.crash_at_s, SimFault::Kind::kCrashNode,
                                crash_target, net::kInvalidNode, 0.0});
    sim.schedule_fault(SimFault{cfg.crash_at_s + cfg.crash_len_s,
                                SimFault::Kind::kRestoreNode, crash_target,
                                net::kInvalidNode, 0.0});
    double t = cfg.migrate_at_s;
    for (const auto& [from, to] : moves) {
      sim.schedule_fault(
          SimFault{t, SimFault::Kind::kMigrateOps, from, to, 0.0});
      t += 0.5;
    }
  };

  // Fault-free twin. Checkpoints stay ON so the barrier/alignment schedule
  // is identical to the faulted run — the only difference is the faults.
  Simulation twin(final_net, final_rt, mw.catalog(), ec_ckpt, sim_seed);
  deploy_all(twin);
  twin.run();

  // Faulted run: crash + rollback recovery + warm migrations, snapshots on.
  Simulation faulted(final_net, final_rt, mw.catalog(), ec_ckpt, sim_seed);
  deploy_all(faulted);
  schedule_faults(faulted);
  faulted.run();

  // Teeth: same faults, snapshots off, volatile operator state. Crashes
  // wipe windows with nothing to roll back to and migrations start cold,
  // so results MUST go missing — otherwise the contract is vacuous.
  Simulation volatile_arm(final_net, final_rt, mw.catalog(), ec_vol,
                          sim_seed);
  deploy_all(volatile_arm);
  schedule_faults(volatile_arm);
  volatile_arm.run();

  bool counts_match = true;
  for (const Middleware::ActiveView& v : views) {
    const query::QueryId q = v.query->id;
    const std::uint64_t tw = twin.tuples_delivered(q);
    const std::uint64_t fa = faulted.tuples_delivered(q);
    const std::uint64_t vo = volatile_arm.tuples_delivered(q);
    if (tw != fa) counts_match = false;
    report.twin_delivered += tw;
    report.faulted_delivered += fa;
    report.volatile_delivered += vo;
    const DeliveryStats ds = faulted.delivery_stats(q);
    report.faulted_lost += ds.lost;
    report.seen_high_water = std::max(report.seen_high_water,
                                      ds.seen_high_water);
    digest << "query " << q << " twin " << tw << " faulted " << fa
           << " volatile " << vo << " lost " << ds.lost << " snapbytes "
           << std::hexfloat << ds.snapshot_bytes << std::defaultfloat
           << '\n';
  }
  report.counts_match = counts_match;
  report.loss_without_snapshots =
      report.volatile_delivered < report.twin_delivered;

  const SnapshotStats ss = faulted.snapshot_stats();
  report.epochs_committed = ss.epochs_committed;
  report.snapshot_bytes_total = ss.bytes_total;
  report.snapshot_bytes_max = ss.bytes_max;
  report.barrier_latency_max_s = ss.barrier_latency_max_s;
  if (ss.epochs_committed > 0) {
    report.barrier_latency_mean_s =
        ss.barrier_latency_sum_s / static_cast<double>(ss.epochs_committed);
  }
  report.retained_high_water = ss.retained_high_water;
  report.recovery_latency_s = ss.recovery_latency_max_s;

  report.contract_ok = report.counts_match && report.faulted_lost == 0 &&
                       report.loss_without_snapshots &&
                       report.violations == 0 && report.epochs_committed >= 1;

  digest << "recovery summary match " << (report.counts_match ? 1 : 0)
         << " teeth " << (report.loss_without_snapshots ? 1 : 0)
         << " epochs " << report.epochs_committed << " recoveries "
         << ss.recoveries << " replayed " << ss.replayed_tuples << " bytes "
         << std::hexfloat << report.snapshot_bytes_total << " barrier "
         << report.barrier_latency_max_s << " rollback "
         << report.recovery_latency_s << std::defaultfloat << " migrations "
         << moves.size() << " viol " << report.violations << '\n';
  report.digest = digest.str();
  return report;
}

}  // namespace iflow::engine
