// control-churn: the control plane does all the work, the engine none.
//
// A pool of multi-tenant join queries goes through register/unregister
// churn against one Middleware whose admission capacity sits below the
// pool's uncapacitated peak, with settle() every few events. Node crashes,
// processing failures and link failures (and their restores) are mixed in
// at a low rate: each one rebuilds dense routing and re-clusters, and at a
// higher rate they would drown out planning. After the last event every
// fault is restored and the live deployments are validated.
#include <algorithm>
#include <map>
#include <memory>
#include <sstream>

#include "common/check.h"
#include "engine/middleware.h"
#include "net/gtitm.h"
#include "stats.h"
#include "verify/validator.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace iflow;

constexpr int kMaxCs = 32;
constexpr int kTenants = 3;
constexpr int kSettleEvery = 8;
constexpr double kCapacityFraction = 0.6;
// One fault per kFaultEvery events, restored half-way to the next: a fixed
// schedule keeps the share of fault handling in the loop the same for every
// seed. Kinds rotate across faults and instances.
constexpr int kFaultEvery = 500;

struct Size {
  int nodes;
  int pool;
  int streams;
  int events;
  int instances;
};

struct World {
  net::Network net;
  workload::Workload wl;
  double capacity = 0.0;
};

World make_world(const Size& size, std::uint64_t seed, int instance) {
  World w;
  Prng prng(seed * 1000003 + static_cast<std::uint64_t>(instance));
  Prng net_prng = prng.fork(1);
  w.net = net::make_transit_stub(net::scale_to(size.nodes), net_prng);
  workload::WorkloadParams wp;
  wp.num_streams = size.streams;
  wp.min_joins = 2;  // 3-5 sources
  wp.max_joins = 4;
  Prng wl_prng = prng.fork(2);
  w.wl = workload::make_workload(w.net, wp, size.pool, wl_prng);
  for (std::size_t i = 0; i < w.wl.queries.size(); ++i) {
    w.wl.queries[i].tenant = static_cast<std::uint32_t>(i % kTenants);
  }
  // Admission capacity: a fixed share of the busiest node's load when the
  // whole pool is deployed without limits.
  net::Network net = w.net;
  query::Catalog catalog = w.wl.catalog;
  engine::Middleware mw(net, catalog, kMaxCs, engine::Algorithm::kTopDown,
                        seed);
  mw.workspace().set_threads(1);
  for (const query::Query& q : w.wl.queries) mw.deploy(q);
  double peak = 0.0;
  for (const double l : mw.node_loads()) peak = std::max(peak, l);
  w.capacity = kCapacityFraction * peak;
  return w;
}

struct Fault {
  enum class Kind { kCrashNode, kFailNode, kFailLink } kind;
  net::NodeId a = net::kInvalidNode;
  net::NodeId b = net::kInvalidNode;
};

}  // namespace

Outcome control_churn(Run& run) {
  const Options& o = run.opts();
  const Size size =
      o.tiny ? Size{96, 12, 12, 600, 1} : Size{528, 48, 32, 1000, 16};

  Outcome out;
  std::map<int, World> worlds;  // per instance, generated once
  std::vector<double> fault_ms;
  std::vector<double> events_per_s;  // per episode
  double plan_cost = 0.0;
  std::vector<double> cost_ratios;  // per live query, first round
  while (run.next_episode(size.instances)) {
    const int instance = run.instance();
    if (worlds.count(instance) == 0) {
      worlds.emplace(instance, make_world(size, o.seed, instance));
    }
    const World& w = worlds.at(instance);
    net::Network net;
    query::Catalog catalog;
    std::unique_ptr<engine::Middleware> mw;
    std::vector<char> in_system(w.wl.queries.size(), 0);
    std::vector<net::NodeId> stub_nodes;
    std::vector<std::uint32_t> stub_links;
    {
      const auto phase = run.phase(Run::Phase::kSetup);
      net = w.net;
      catalog = w.wl.catalog;
      mw = run.call("mw.init", [&] {
        return std::make_unique<engine::Middleware>(
            net, catalog, kMaxCs, engine::Algorithm::kTopDown, o.seed);
      });
      mw->workspace().set_threads(1);
      engine::AdmissionConfig ac;
      ac.node_capacity = w.capacity;
      mw->set_admission_config(ac);
      for (std::size_t i = 0; i < w.wl.queries.size() / 2; ++i) {
        const opt::OptimizeResult r =
            run.call("mw.deploy", [&] { return mw->deploy(w.wl.queries[i]); });
        out.plan_ms.push_back(run.last_ms());
        in_system[i] = r.feasible ||
                       mw->last_admission().decision !=
                           engine::AdmissionDecision::kReject;
      }
      for (net::NodeId n = 0; n < net.node_count(); ++n) {
        if (net.kind(n) == net::NodeKind::kStub) stub_nodes.push_back(n);
      }
      for (std::uint32_t i = 0; i < net.link_count(); ++i) {
        const net::Link& l = net.links()[i];
        if (net.kind(l.a) == net::NodeKind::kStub &&
            net.kind(l.b) == net::NodeKind::kStub) {
          stub_links.push_back(i);
        }
      }
    }

    Prng prng(o.seed * 31 + static_cast<std::uint64_t>(instance));
    std::vector<Fault> open;
    int fault_count = instance;
    std::uint64_t rejected = 0, admitted = 0, degraded = 0, reuse_hits = 0;
    std::map<engine::Outcome, double> redeploys;
    const auto tally = [&](const std::vector<engine::Redeployment>& reds) {
      for (const engine::Redeployment& r : reds) redeploys[r.outcome] += 1.0;
    };
    const auto inject = [&] {
      Fault f;
      f.kind = static_cast<Fault::Kind>(fault_count++ % 3);
      if (f.kind == Fault::Kind::kFailLink) {
        const net::Link& l = net.links()[prng.pick(stub_links)];
        f.a = l.a;
        f.b = l.b;
      } else {
        f.a = prng.pick(stub_nodes);
      }
      std::vector<engine::Redeployment> reds;
      switch (f.kind) {
        case Fault::Kind::kCrashNode:
          reds = run.call("mw.crash_node", [&] { return mw->crash_node(f.a); });
          break;
        case Fault::Kind::kFailNode:
          reds = run.call("mw.fail_node", [&] { return mw->fail_node(f.a); });
          break;
        case Fault::Kind::kFailLink:
          reds = run.call("mw.fail_link",
                          [&] { return mw->fail_link(f.a, f.b); });
          break;
      }
      fault_ms.push_back(run.last_ms());
      tally(reds);
      open.push_back(f);
    };
    const auto restore_oldest = [&] {
      const Fault f = open.front();
      open.erase(open.begin());
      const std::vector<engine::Redeployment> reds =
          f.kind == Fault::Kind::kFailLink
              ? run.call("mw.restore_link",
                         [&] { return mw->restore_link(f.a, f.b); })
              : run.call("mw.restore_node",
                         [&] { return mw->restore_node(f.a); });
      fault_ms.push_back(run.last_ms());
      tally(reds);
    };
    const auto settle = [&] {
      tally(run.call("mw.settle", [&] { return mw->settle(); }));
      run.add("mw.settle_replanned",
              static_cast<double>(mw->last_settle_stats().replanned));
      run.add("mw.settle_moved",
              static_cast<double>(mw->last_settle_stats().moved));
    };
    {
      const auto phase = run.phase(Run::Phase::kMeasure);
      const auto t0 = Run::Clock::now();
      for (int ev = 0; ev < size.events; ++ev) {
        if (!open.empty() && (ev % kFaultEvery) == kFaultEvery / 2) {
          restore_oldest();
        } else if (ev % kFaultEvery == 0) {
          inject();
        } else {
          std::vector<std::size_t> in, outside;
          for (std::size_t i = 0; i < in_system.size(); ++i) {
            (in_system[i] != 0 ? in : outside).push_back(i);
          }
          if (!in.empty() && (outside.empty() || prng.chance(0.45))) {
            const std::size_t pick = prng.pick(in);
            run.call("mw.undeploy",
                     [&] { return mw->undeploy(w.wl.queries[pick].id); });
            in_system[pick] = 0;
          } else {
            const std::size_t pick = prng.pick(outside);
            const opt::OptimizeResult r = run.call(
                "mw.deploy", [&] { return mw->deploy(w.wl.queries[pick]); });
            out.plan_ms.push_back(run.last_ms());
            const engine::AdmissionDecision d = mw->last_admission().decision;
            if (d == engine::AdmissionDecision::kReject) {
              ++rejected;
            } else {
              in_system[pick] = 1;  // admitted, or parked suspended
              if (r.feasible) {
                ++admitted;
                if (d == engine::AdmissionDecision::kAdmitDegraded) ++degraded;
                for (const query::LeafUnit& u : r.deployment.units) {
                  if (u.derived) {
                    ++reuse_hits;
                    break;
                  }
                }
              }
            }
          }
        }
        if ((ev + 1) % kSettleEvery == 0) settle();
      }
      while (!open.empty()) restore_oldest();
      settle();
      const double loop_s =
          std::chrono::duration<double>(Run::Clock::now() - t0).count();
      events_per_s.push_back(size.events / loop_s);
    }
    {
      const auto phase = run.phase(Run::Phase::kCheck);
      out.attempted += static_cast<std::uint64_t>(size.events);
      for (const auto& s : mw->suspended()) {
        out.fail(s.q.name + " still suspended after every fault was restored");
      }
      opt::OptimizerEnv env = mw->planning_env();
      const std::vector<net::NodeId> excluded = mw->excluded_hosts();
      std::ostringstream tape;
      for (const engine::Middleware::ActiveView& v : mw->active_views()) {
        verify::ValidateOptions vopts;
        vopts.query = v.query;
        vopts.excluded_hosts = &excluded;
        const std::vector<verify::Violation> found =
            verify::validate(*v.deployment, env, vopts);
        if (!found.empty()) {
          out.fail(v.query->name + ": " + verify::describe(found));
        }
        const double y = ship_to_sink_cost(*v.query, catalog, mw->routing());
        if (run.first_round() && y > 0.0) {
          cost_ratios.push_back(
              query::deployment_cost(*v.deployment, mw->routing()) / y);
        }
        tape << v.query->id << ' ' << std::hexfloat << v.planned_cost
             << std::defaultfloat << '\n';
      }
      tape << admitted << ' ' << degraded << ' ' << rejected << '\n';
      out.record_outputs(instance, tape.str());
      if (run.first_round()) {
        plan_cost += mw->total_current_cost();
      }
      run.add("admission.admitted", static_cast<double>(admitted));
      run.add("admission.degraded", static_cast<double>(degraded));
      run.add("admission.rejected", static_cast<double>(rejected));
      run.add("advert.reuse_hits", static_cast<double>(reuse_hits));
      run.add("advert.registry_size",
              static_cast<double>(mw->registry().size()));
      run.add("mw.redeploy.migrated", redeploys[engine::Outcome::kMigrated]);
      run.add("mw.redeploy.suspended", redeploys[engine::Outcome::kSuspended]);
      run.add("mw.redeploy.resumed", redeploys[engine::Outcome::kResumed]);
      run.add("mw.redeploy.accepted", redeploys[engine::Outcome::kAccepted]);
      run.add("mw.resume_failures",
              static_cast<double>(mw->resume_failures_total()));
    }
  }

  out.work_per_s = median(events_per_s);
  out.plan_cost_ratio = mean(cost_ratios);
  out.extras = {
      {"churn_events_per_s", out.work_per_s, "1/s"},
      {"deploy_p50_ms", median(out.plan_ms), "ms"},
      {"fault_p50_ms", median(fault_ms), "ms"},
      {"plan_cost", plan_cost, "cost/s"},
  };
  for (const auto& [name, samples] :
       {std::pair{"deploy_", &out.plan_ms}, std::pair{"fault_", &fault_ms}}) {
    const Tail tail = supported_tail(*samples);
    if (tail.level > 50.0) {
      out.extras.push_back({name + tail.label() + "_ms", tail.value, "ms"});
    }
  }
  return out;
}

}  // namespace perfbench
