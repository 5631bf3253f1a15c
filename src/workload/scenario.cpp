#include "workload/scenario.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sql/binder.h"

namespace iflow::workload {

namespace {

constexpr double kPi = 3.14159265358979323846;

using engine::ChaosEvent;
using engine::ChaosEventKind;

/// One link connecting `members` to the rest of the network (a stub
/// domain's gateway), or an invalid pair when the domain is isolated.
std::pair<net::NodeId, net::NodeId> gateway_link(
    const net::Network& net, const std::vector<net::NodeId>& members) {
  const auto inside = [&](net::NodeId n) {
    return std::find(members.begin(), members.end(), n) != members.end();
  };
  for (const net::Link& l : net.links()) {
    if (inside(l.a) != inside(l.b)) {
      return {std::min(l.a, l.b), std::max(l.a, l.b)};
    }
  }
  return {net::kInvalidNode, net::kInvalidNode};
}

void apply_selectivity_model(const ScenarioSpec& spec, query::Catalog& cat,
                             Prng& prng) {
  const int n = static_cast<int>(cat.stream_count());
  const double lo = spec.workload.selectivity_min;
  const double hi = spec.workload.selectivity_max;
  switch (spec.selectivity) {
    case SelectivityModel::kUniform:
      break;  // the generator already drew uniformly
    case SelectivityModel::kZipf: {
      // Random rank assignment, then a power-law decay from hi toward lo:
      // a few hot pairs dominate join costs, the tail is nearly free.
      std::vector<std::pair<query::StreamId, query::StreamId>> pairs;
      for (int a = 0; a < n; ++a) {
        for (int b = a + 1; b < n; ++b) {
          pairs.emplace_back(static_cast<query::StreamId>(a),
                             static_cast<query::StreamId>(b));
        }
      }
      prng.shuffle(pairs);
      for (std::size_t r = 0; r < pairs.size(); ++r) {
        const double s =
            lo + (hi - lo) / std::pow(static_cast<double>(r + 1),
                                      spec.zipf_exponent);
        cat.set_selectivity(pairs[r].first, pairs[r].second, s);
      }
      break;
    }
    case SelectivityModel::kCorrelated: {
      // Block structure: streams within a group join productively, cross
      // group joins are near the floor — plans that respect the grouping
      // (and operator reuse inside a group) win decisively.
      const int groups = std::max(1, spec.clusters);
      std::vector<int> group(static_cast<std::size_t>(n));
      for (int s = 0; s < n; ++s) {
        group[static_cast<std::size_t>(s)] =
            static_cast<int>(prng.index(static_cast<std::size_t>(groups)));
      }
      for (int a = 0; a < n; ++a) {
        for (int b = a + 1; b < n; ++b) {
          const bool same = group[static_cast<std::size_t>(a)] ==
                            group[static_cast<std::size_t>(b)];
          const double s = same ? prng.uniform(0.5 * (lo + hi), hi)
                                : prng.uniform(lo, lo + 0.1 * (hi - lo));
          cat.set_selectivity(static_cast<query::StreamId>(a),
                              static_cast<query::StreamId>(b), s);
        }
      }
      break;
    }
  }
}

void apply_placement_model(const ScenarioSpec& spec, Scenario& s,
                           Prng& prng) {
  if (spec.placement != PlacementModel::kGeoClustered) return;
  const int domains = net::stub_domain_count(spec.topology);
  IFLOW_CHECK_MSG(domains >= 2,
                  "geo-clustered placement needs >= 2 stub domains");
  const int source_domains =
      std::min(std::max(1, spec.clusters), domains - 1);
  std::vector<int> order(static_cast<std::size_t>(domains));
  for (int d = 0; d < domains; ++d) order[static_cast<std::size_t>(d)] = d;
  prng.shuffle(order);

  // Sources pack into the first `source_domains` shuffled domains …
  for (std::size_t sid = 0; sid < s.workload.catalog.stream_count(); ++sid) {
    const int d = order[prng.index(static_cast<std::size_t>(source_domains))];
    const auto members = net::stub_domain_members(spec.topology, d);
    s.workload.catalog.set_source(static_cast<query::StreamId>(sid),
                                  prng.pick(members));
  }
  // … sinks land in the remaining ones, so results always cross the transit
  // backbone (the expensive links the hierarchy is built to avoid).
  const int sink_domains = domains - source_domains;
  for (query::Query& q : s.workload.queries) {
    const int d = order[static_cast<std::size_t>(
        source_domains +
        static_cast<int>(prng.index(static_cast<std::size_t>(sink_domains))))];
    const auto members = net::stub_domain_members(spec.topology, d);
    q.sink = prng.pick(members);
  }
}

void apply_shared_sources(const ScenarioSpec& spec, Scenario& s, Prng& prng) {
  const auto n = static_cast<std::size_t>(spec.workload.num_streams);
  const auto h1 = static_cast<query::StreamId>(prng.index(n));
  auto h2 = static_cast<query::StreamId>(prng.index(n - 1));
  if (h2 >= h1) ++h2;
  const auto shared_sink =
      static_cast<net::NodeId>(prng.index(s.net.node_count()));

  for (std::size_t qi = 0; qi < s.workload.queries.size(); ++qi) {
    query::Query& q = s.workload.queries[qi];
    // Every query joins the hot pair; extra sources come from its original
    // draw, so span sizes are preserved. Reuse-aware optimizers can share
    // the hot pair's join operator across the whole family.
    std::vector<query::StreamId> sources = {h1, h2};
    for (query::StreamId src : q.sources) {
      if (src != h1 && src != h2 && sources.size() < q.sources.size()) {
        sources.push_back(src);
      }
    }
    std::sort(sources.begin(), sources.end());
    q.sources = std::move(sources);
    q.filter_selectivity.clear();  // was parallel to the old source list
    if (qi < s.workload.queries.size() / 2) q.sink = shared_sink;
  }
}

void apply_union_fan_in(const ScenarioSpec& spec, Scenario& s, Prng& prng) {
  const query::Catalog& cat = s.workload.catalog;
  std::vector<query::Query> out;
  query::QueryId next = 0;

  // Two UNION ALL families compiled through the SQL front-end: every branch
  // becomes an independently optimizable query delivering to the family's
  // sink (fan-in interleaves there).
  for (int family = 0; family < 2; ++family) {
    const auto sink = static_cast<net::NodeId>(prng.index(s.net.node_count()));
    const int branches = 2 + static_cast<int>(prng.index(2));
    std::string text;
    for (int b = 0; b < branches; ++b) {
      std::vector<query::StreamId> ids(cat.stream_count());
      for (std::size_t i = 0; i < ids.size(); ++i) {
        ids[i] = static_cast<query::StreamId>(i);
      }
      prng.shuffle(ids);
      const std::size_t k = 2 + prng.index(2);
      std::string from, where;
      for (std::size_t i = 0; i < k; ++i) {
        if (i) from += ", ";
        from += cat.stream(ids[i]).name;
        if (i + 1 < k) {
          if (i) where += " AND ";
          where += cat.stream(ids[i]).name + ".k = " +
                   cat.stream(ids[i + 1]).name + ".k";
        }
      }
      if (b) text += " UNION ALL ";
      text += "SELECT * FROM " + from + " WHERE " + where;
    }
    for (const sql::BoundQuery& b : sql::compile_union(text, cat, next, sink)) {
      out.push_back(b.query);
    }
    next = static_cast<query::QueryId>(out.size());
  }
  // Top up with plain generated queries so the workload size stays at spec.
  for (query::Query& q : s.workload.queries) {
    if (static_cast<int>(out.size()) >= spec.num_queries) break;
    q.id = next++;
    out.push_back(std::move(q));
  }
  s.workload.queries = std::move(out);
}

std::vector<RateCurve> make_rate_curves(const ScenarioSpec& spec,
                                        std::size_t streams, Prng& prng) {
  std::vector<RateCurve> curves;
  if (spec.rates == RateCurve::Shape::kConstant) return curves;
  curves.resize(streams);
  for (RateCurve& c : curves) {
    if (spec.rates == RateCurve::Shape::kDiurnal) {
      c.shape = RateCurve::Shape::kDiurnal;
      c.period_s = 40.0;
      c.amplitude = prng.uniform(0.3, 0.6);
      c.phase = prng.uniform(0.0, 2.0 * kPi);
    } else {  // flash crowd: roughly half the streams burst, the rest hold
      if (prng.chance(0.5)) {
        c.shape = RateCurve::Shape::kFlashCrowd;
        c.burst_start_s = prng.uniform(5.0, 10.0);
        c.burst_duration_s = prng.uniform(5.0, 10.0);
        c.burst_factor = prng.uniform(2.0, 4.0);
      }
    }
  }
  return curves;
}

/// Rate curves must reach the *planner* too, not just the engine: sampled
/// curve values become scripted kRateSpike events, so re-optimization and
/// node_loads re-pricing chase the same curve the engine emits against.
void append_rate_samples(const Scenario& s, std::vector<ChaosEvent>& script) {
  if (s.rate_curves.empty()) return;
  const std::size_t streams = s.workload.catalog.stream_count();
  for (int i = 0; i < 8; ++i) {
    const double t = 4.0 * (i + 1);
    const auto sid = static_cast<query::StreamId>(
        static_cast<std::size_t>(i) % streams);
    const double base = s.workload.catalog.stream(sid).tuple_rate;
    ChaosEvent e;
    e.kind = ChaosEventKind::kRateSpike;
    e.stream = sid;
    e.rate = std::max(0.01 * base, base * s.rate_curves[sid].factor_at(t));
    script.push_back(e);
  }
}

void append_failure_script(const ScenarioSpec& spec, const Scenario& s,
                           Prng& prng, std::vector<ChaosEvent>& script) {
  const auto node_event = [](ChaosEventKind kind, net::NodeId n) {
    ChaosEvent e;
    e.kind = kind;
    e.a = n;
    return e;
  };
  const auto link_event = [](ChaosEventKind kind,
                             std::pair<net::NodeId, net::NodeId> p,
                             double rate = 0.0) {
    ChaosEvent e;
    e.kind = kind;
    e.a = p.first;
    e.b = p.second;
    e.rate = rate;
    return e;
  };

  switch (spec.failures) {
    case FailureProfile::kNone:
      break;
    case FailureProfile::kClusterOutage: {
      // Correlated whole-domain outages: every node of a stub domain
      // crashes together, recovers together — the failure mode uniform
      // injectors never produce.
      const int domains = net::stub_domain_count(spec.topology);
      std::vector<int> order(static_cast<std::size_t>(domains));
      for (int d = 0; d < domains; ++d) order[static_cast<std::size_t>(d)] = d;
      prng.shuffle(order);
      const int rounds = std::min(spec.failure_rounds, domains);
      for (int r = 0; r < rounds; ++r) {
        const auto members =
            net::stub_domain_members(spec.topology, order[static_cast<std::size_t>(r)]);
        for (net::NodeId n : members) {
          script.push_back(node_event(ChaosEventKind::kCrashNode, n));
        }
        for (net::NodeId n : members) {
          script.push_back(node_event(ChaosEventKind::kRestoreNode, n));
        }
      }
      break;
    }
    case FailureProfile::kFlappingRegion: {
      // One domain flaps: two of its nodes and its gateway adjacency cycle
      // down/up every round, forcing repeated suspend/resume of the same
      // deployments (adaptation hysteresis territory).
      const int d = static_cast<int>(prng.index(
          static_cast<std::size_t>(net::stub_domain_count(spec.topology))));
      const auto members = net::stub_domain_members(spec.topology, d);
      const auto gw = gateway_link(s.net, members);
      for (int r = 0; r < spec.failure_rounds; ++r) {
        script.push_back(node_event(ChaosEventKind::kCrashNode, members[0]));
        script.push_back(node_event(ChaosEventKind::kCrashNode, members[1]));
        if (gw.first != net::kInvalidNode) {
          script.push_back(link_event(ChaosEventKind::kFailLink, gw));
          script.push_back(link_event(ChaosEventKind::kRestoreLink, gw));
        }
        script.push_back(node_event(ChaosEventKind::kRestoreNode, members[0]));
        script.push_back(node_event(ChaosEventKind::kRestoreNode, members[1]));
      }
      break;
    }
    case FailureProfile::kLossStorm: {
      // Waves of loss + jitter re-draws across many links; planning costs
      // are untouched but the delivery layer has to retransmit through the
      // storm (exactly-once contract under adversarial but in-budget loss).
      auto pairs = engine::distinct_link_pairs(s.net);
      for (int r = 0; r < spec.failure_rounds; ++r) {
        prng.shuffle(pairs);
        const std::size_t waves = std::min<std::size_t>(6, pairs.size());
        for (std::size_t i = 0; i < waves; ++i) {
          script.push_back(link_event(ChaosEventKind::kSetLinkLoss, pairs[i],
                                      prng.uniform(0.01, 0.035)));
        }
        script.push_back(link_event(ChaosEventKind::kSetLinkJitter, pairs[0],
                                    prng.uniform(0.5, 1.5)));
      }
      break;
    }
    case FailureProfile::kGraySlowNode:
    case FailureProfile::kGrayFlapper: {
      // A node turns gray — slow (and, flapping, intermittently lossy) but
      // administratively up. Quality-only mutations: no replanning, free
      // incremental routing sync, digest-stable. Rounds of sicken/heal,
      // then one final degradation left for the restoration sweep.
      const auto gray = [&](net::NodeId n, bool clear) {
        ChaosEvent e;
        e.kind = clear ? ChaosEventKind::kClearNode
                       : ChaosEventKind::kDegradeNode;
        e.a = n;
        if (!clear) {
          if (spec.failures == FailureProfile::kGraySlowNode) {
            e.slowdown = 3.0;
            e.rate = 0.15;
          } else {
            e.slowdown = 2.0;
            e.rate = 0.4;
            e.flap_hz = 0.2;
          }
        }
        return e;
      };
      const auto victim = static_cast<net::NodeId>(
          prng.index(s.net.node_count()));
      for (int r = 0; r < spec.failure_rounds; ++r) {
        script.push_back(gray(victim, /*clear=*/false));
        script.push_back(gray(victim, /*clear=*/true));
      }
      script.push_back(gray(victim, /*clear=*/false));
      break;
    }
    case FailureProfile::kGrayLossyLink: {
      // Link pairs silently dropping tuples while staying up: the delivery
      // layer retransmits through them; planning never notices.
      auto pairs = engine::distinct_link_pairs(s.net);
      prng.shuffle(pairs);
      const std::size_t sick =
          std::min<std::size_t>(static_cast<std::size_t>(spec.failure_rounds),
                                pairs.size());
      for (std::size_t i = 0; i < sick; ++i) {
        ChaosEvent e = link_event(ChaosEventKind::kDegradeLink, pairs[i], 0.3);
        script.push_back(e);
      }
      for (std::size_t i = 0; i + 1 < sick; ++i) {
        script.push_back(link_event(ChaosEventKind::kClearLink, pairs[i]));
      }
      // The last pair stays sick for the restoration sweep to heal.
      break;
    }
  }
}

}  // namespace

double RateCurve::factor_at(double t) const {
  switch (shape) {
    case Shape::kConstant:
      return 1.0;
    case Shape::kDiurnal:
      return 1.0 + amplitude * std::sin(2.0 * kPi * t / period_s + phase);
    case Shape::kFlashCrowd:
      return (t >= burst_start_s && t < burst_start_s + burst_duration_s)
                 ? burst_factor
                 : 1.0;
  }
  return 1.0;
}

std::function<double(query::StreamId, double)> Scenario::rate_modulation()
    const {
  if (rate_curves.empty()) return nullptr;
  // Capture by value: the closure must outlive the Scenario (it is handed
  // to EngineConfig / ChaosConfig) and stay a pure function for digest
  // stability.
  auto curves = rate_curves;
  return [curves](query::StreamId s, double t) {
    if (static_cast<std::size_t>(s) >= curves.size()) return 1.0;
    return curves[static_cast<std::size_t>(s)].factor_at(t);
  };
}

const std::vector<std::string>& scenario_names() {
  static const std::vector<std::string> kNames = {
      "baseline-uniform",  "diurnal-rates",   "flash-crowd",
      "zipf-selectivity",  "correlated-selectivity",
      "geo-clustered",     "deep-chains",     "shared-sources",
      "union-fanin",       "cluster-outage",  "flapping-region",
      "loss-storm",
      // Gray-failure family (appended: catalogue seeds are index-derived).
      "gray-slow-node",    "gray-lossy-link", "gray-flapper",
  };
  return kNames;
}

ScenarioSpec scenario_spec(const std::string& name) {
  ScenarioSpec spec;
  spec.name = name;
  // Small 18-node default (2 transit, 4 stub domains of 4): every optimizer
  // — exhaustive included — stays fast enough for the full matrix.
  spec.topology.transit_count = 2;
  spec.topology.stub_domains_per_transit = 2;
  spec.topology.stub_domain_size = 4;
  spec.workload.num_streams = 8;
  spec.workload.min_joins = 2;
  spec.workload.max_joins = 4;

  const auto& names = scenario_names();
  const auto it = std::find(names.begin(), names.end(), name);
  IFLOW_CHECK_MSG(it != names.end(), "unknown scenario " << name);
  spec.seed = 0x5CE7A910ULL + static_cast<std::uint64_t>(it - names.begin());

  if (name == "diurnal-rates") {
    spec.rates = RateCurve::Shape::kDiurnal;
  } else if (name == "flash-crowd") {
    spec.rates = RateCurve::Shape::kFlashCrowd;
  } else if (name == "zipf-selectivity") {
    spec.selectivity = SelectivityModel::kZipf;
  } else if (name == "correlated-selectivity") {
    spec.selectivity = SelectivityModel::kCorrelated;
  } else if (name == "geo-clustered") {
    spec.placement = PlacementModel::kGeoClustered;
    spec.topology.stub_domains_per_transit = 3;  // 6 domains, 26 nodes
  } else if (name == "deep-chains") {
    // 8-way join chains: tractable for the exhaustive subset-DP because the
    // topology is small, yet deep enough to separate the heuristics.
    spec.structure = StructureModel::kDeepChains;
    spec.workload.num_streams = 9;
    spec.workload.min_joins = 7;
    spec.workload.max_joins = 7;
    spec.num_queries = 4;
  } else if (name == "shared-sources") {
    spec.structure = StructureModel::kSharedSources;
  } else if (name == "union-fanin") {
    spec.structure = StructureModel::kUnionFanIn;
  } else if (name == "cluster-outage") {
    spec.failures = FailureProfile::kClusterOutage;
  } else if (name == "flapping-region") {
    spec.failures = FailureProfile::kFlappingRegion;
  } else if (name == "loss-storm") {
    spec.failures = FailureProfile::kLossStorm;
  } else if (name == "gray-slow-node") {
    spec.failures = FailureProfile::kGraySlowNode;
  } else if (name == "gray-lossy-link") {
    spec.failures = FailureProfile::kGrayLossyLink;
  } else if (name == "gray-flapper") {
    spec.failures = FailureProfile::kGrayFlapper;
  }
  return spec;
}

Scenario build_scenario(const ScenarioSpec& spec) {
  Scenario s;
  s.spec = spec;

  // One Prng forked per concern: changing how (say) the failure script
  // draws cannot perturb the workload, so scenarios stay comparable across
  // knob tweaks.
  Prng root(spec.seed);
  Prng net_prng = root.fork(1);
  Prng wl_prng = root.fork(2);
  Prng sel_prng = root.fork(3);
  Prng place_prng = root.fork(4);
  Prng struct_prng = root.fork(5);
  Prng rate_prng = root.fork(6);
  Prng script_prng = root.fork(7);

  s.net = net::make_transit_stub(spec.topology, net_prng);
  s.workload = make_workload(s.net, spec.workload, spec.num_queries, wl_prng);

  apply_selectivity_model(spec, s.workload.catalog, sel_prng);
  apply_placement_model(spec, s, place_prng);
  switch (spec.structure) {
    case StructureModel::kRandomSpj:
    case StructureModel::kDeepChains:  // shape comes from workload params
      break;
    case StructureModel::kSharedSources:
      apply_shared_sources(spec, s, struct_prng);
      break;
    case StructureModel::kUnionFanIn:
      apply_union_fan_in(spec, s, struct_prng);
      break;
  }

  s.rate_curves =
      make_rate_curves(spec, s.workload.catalog.stream_count(), rate_prng);
  append_rate_samples(s, s.script);
  append_failure_script(spec, s, script_prng, s.script);
  return s;
}

std::vector<ChaosEvent> make_churn_script(const net::Network& net,
                                          const query::Catalog& catalog,
                                          std::size_t pool_size,
                                          std::uint64_t seed,
                                          int steady_events) {
  IFLOW_CHECK(pool_size > 0);
  Prng prng(seed);
  std::vector<ChaosEvent> script;

  // The builder's own applicability model. in-system assumes every register
  // is admitted: an unregister of a rejected registration is a benign skip
  // in the runner, never a malformed script.
  std::vector<char> in(pool_size, 0);
  net::NodeId down_node = net::kInvalidNode;
  std::pair<net::NodeId, net::NodeId> down_link{net::kInvalidNode,
                                                net::kInvalidNode};
  const std::vector<engine::LinkPair> link_pairs =
      engine::distinct_link_pairs(net);

  const auto reg = [&](std::size_t q) {
    ChaosEvent e;
    e.kind = ChaosEventKind::kRegister;
    e.query = q;
    in[q] = 1;
    script.push_back(e);
  };
  const auto unreg = [&](std::size_t q) {
    ChaosEvent e;
    e.kind = ChaosEventKind::kUnregister;
    e.query = q;
    in[q] = 0;
    script.push_back(e);
  };
  const auto members = [&](char want) {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < pool_size; ++i) {
      if (in[i] == want) out.push_back(i);
    }
    return out;
  };

  // Phase 1: ramp-up — the whole pool arrives in index order.
  for (std::size_t i = 0; i < pool_size; ++i) reg(i);

  // Phase 2: steady churn with interleaved faults and spikes.
  for (int i = 0; i < steady_events; ++i) {
    const double r = prng.uniform(0.0, 1.0);
    if (r < 0.08 && net.node_count() >= 4) {
      ChaosEvent e;
      if (down_node == net::kInvalidNode) {
        e.kind = ChaosEventKind::kFailNode;
        e.a = static_cast<net::NodeId>(prng.index(net.node_count()));
        down_node = e.a;
      } else {
        e.kind = ChaosEventKind::kRestoreNode;
        e.a = down_node;
        down_node = net::kInvalidNode;
      }
      script.push_back(e);
      continue;
    }
    if (r < 0.14 && !link_pairs.empty()) {
      ChaosEvent e;
      if (down_link.first == net::kInvalidNode) {
        const auto& p = link_pairs[prng.index(link_pairs.size())];
        e.kind = ChaosEventKind::kFailLink;
        e.a = p.first;
        e.b = p.second;
        down_link = p;
      } else {
        e.kind = ChaosEventKind::kRestoreLink;
        e.a = down_link.first;
        e.b = down_link.second;
        down_link = {net::kInvalidNode, net::kInvalidNode};
      }
      script.push_back(e);
      continue;
    }
    if (r < 0.24 && catalog.stream_count() > 0) {
      ChaosEvent e;
      e.kind = ChaosEventKind::kRateSpike;
      e.stream =
          static_cast<query::StreamId>(prng.index(catalog.stream_count()));
      e.rate = catalog.stream(e.stream).tuple_rate * prng.uniform(0.25, 4.0);
      script.push_back(e);
      continue;
    }
    const std::vector<std::size_t> present = members(1);
    const std::vector<std::size_t> absent = members(0);
    const bool leave =
        !present.empty() && (absent.empty() || prng.chance(0.5));
    if (leave) {
      unreg(present[prng.index(present.size())]);
    } else {
      reg(absent[prng.index(absent.size())]);
    }
  }

  // Phase 3: flash crowd — everything absent re-registers back to back,
  // the admission-pressure moment capacity configs are sized against.
  for (const std::size_t q : members(0)) reg(q);

  // Phase 4: drain half the pool; leftover faults heal first so the drain
  // exercises teardown on a healthy network.
  if (down_node != net::kInvalidNode) {
    ChaosEvent e;
    e.kind = ChaosEventKind::kRestoreNode;
    e.a = down_node;
    script.push_back(e);
  }
  if (down_link.first != net::kInvalidNode) {
    ChaosEvent e;
    e.kind = ChaosEventKind::kRestoreLink;
    e.a = down_link.first;
    e.b = down_link.second;
    script.push_back(e);
  }
  const std::vector<std::size_t> present = members(1);
  for (std::size_t i = 0; i < present.size() / 2; ++i) {
    unreg(present[i * 2]);
  }
  return script;
}

}  // namespace iflow::workload
