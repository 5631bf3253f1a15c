// scale-sparse: the scale path, read and written.
//
// A ~3k-node transit-stub world on the forced sparse routing tier (256
// cached rows), a hierarchy partitioned along the stub domains and a
// SparseOracle pricing Top-Down. The measured phase cold-plans every
// query, then replays stub-link fail/restore events; after each one it
// repairs routing (sync), the hierarchy and the oracle and replans every
// query. Lazy rows, LRU invalidation and the partitioned hierarchy are all
// on the path. At 10k nodes the hierarchy build alone takes seconds, too
// slow to repeat; 3k still shows the tier and the superlinear costs.
#include <map>
#include <memory>
#include <sstream>

#include "cluster/hierarchy.h"
#include "common/check.h"
#include "net/gtitm.h"
#include "opt/search/sparse_oracle.h"
#include "opt/search/workspace.h"
#include "opt/top_down.h"
#include "stats.h"
#include "verify/validator.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace iflow;

constexpr int kMaxCs = 32;
constexpr std::size_t kCachedRows = 256;
constexpr double kMiB = 1.0 / (1024.0 * 1024.0);

struct Size {
  int nodes;
  int queries;
  int streams;
  int instances;
};

std::vector<std::vector<net::NodeId>> domain_partitions(
    const net::TransitStubParams& p) {
  std::vector<std::vector<net::NodeId>> parts;
  std::vector<net::NodeId> transit;
  for (int t = 0; t < p.transit_count; ++t) {
    transit.push_back(static_cast<net::NodeId>(t));
  }
  parts.push_back(std::move(transit));
  for (int d = 0; d < net::stub_domain_count(p); ++d) {
    parts.push_back(net::stub_domain_members(p, d));
  }
  return parts;
}

}  // namespace

Outcome scale_sparse(Run& run) {
  const Options& o = run.opts();
  const Size size =
      o.tiny ? Size{200, 6, 12, 1} : Size{3000, 8, 64, 12};

  Outcome out;
  std::vector<double> repair_ms;
  double plans_total = 0.0, work_s_total = 0.0;
  double cost_total = 0.0;
  std::vector<double> cost_ratios;  // per live query, first round
  while (run.next_episode(size.instances)) {
    const int instance = run.instance();
    double plans = 0.0, work_s = 0.0;
    const net::TransitStubParams p = net::scale_to(size.nodes);
    std::unique_ptr<net::Network> net;
    net::RoutingTables rt;
    std::unique_ptr<cluster::Hierarchy> hierarchy;
    std::unique_ptr<opt::SparseOracle> oracle;
    workload::Workload wl;
    net::NodeId fault_a = net::kInvalidNode, fault_b = net::kInvalidNode;
    {
      const auto phase = run.phase(Run::Phase::kSetup);
      Prng prng(o.seed * 1000003 + static_cast<std::uint64_t>(instance));
      Prng net_prng = prng.fork(1);
      net = std::make_unique<net::Network>(
          net::make_transit_stub(p, net_prng));
      // The faulted stub link must keep the network connected when it
      // fails, so every query stays plannable.
      Prng fault_prng = prng.fork(4);
      std::vector<std::uint32_t> stub_links;
      for (std::uint32_t i = 0; i < net->link_count(); ++i) {
        const net::Link& l = net->links()[i];
        if (net->kind(l.a) == net::NodeKind::kStub &&
            net->kind(l.b) == net::NodeKind::kStub) {
          stub_links.push_back(i);
        }
      }
      fault_prng.shuffle(stub_links);
      for (const std::uint32_t i : stub_links) {
        const net::Link l = net->links()[i];
        net->fail_link(l.a, l.b);
        const bool connected = net->connected();
        net->restore_link(l.a, l.b);
        if (connected) {
          fault_a = l.a;
          fault_b = l.b;
          break;
        }
      }
      IFLOW_CHECK_MSG(fault_a != net::kInvalidNode,
                      "every stub link is a bridge");
      rt = run.call("net.build", [&] {
        net::RoutingOptions ropts;
        ropts.mode = net::RoutingMode::kSparse;
        ropts.max_cached_rows = kCachedRows;
        return net::RoutingTables::build(*net, ropts);
      });
      hierarchy = run.call("cluster.build", [&] {
        Prng hp = prng.fork(2);
        return std::make_unique<cluster::Hierarchy>(
            cluster::Hierarchy::build_partitioned(
                *net, rt, domain_partitions(p), kMaxCs, hp));
      });
      oracle = run.call("opt.oracle_build", [&] {
        return std::make_unique<opt::SparseOracle>(*net, rt, *hierarchy);
      });
      workload::WorkloadParams wp;
      wp.num_streams = size.streams;
      wp.min_joins = 3;  // 4-source queries, the paper's scalability shape
      wp.max_joins = 3;
      Prng wl_prng = prng.fork(3);
      wl = workload::make_workload(*net, wp, size.queries, wl_prng);
    }
    opt::PlanWorkspace ws(1);
    opt::OptimizerEnv env;
    env.catalog = &wl.catalog;
    env.network = net.get();
    env.routing = &rt;
    env.hierarchy = hierarchy.get();
    env.workspace = &ws;
    env.sparse = oracle.get();
    opt::TopDownOptimizer td(env);
    std::vector<opt::OptimizeResult> results(wl.queries.size());
    double plans_considered = 0.0;

    const auto plan_all = [&] {
      const auto phase = run.phase(Run::Phase::kMeasure);
      const auto t0 = Run::Clock::now();
      for (std::size_t i = 0; i < wl.queries.size(); ++i) {
        results[i] = run.call("opt.optimize",
                              [&] { return td.optimize(wl.queries[i]); });
        out.plan_ms.push_back(run.last_ms());
        plans_considered += results[i].plans_considered;
      }
      plans += static_cast<double>(wl.queries.size());
      work_s += std::chrono::duration<double>(Run::Clock::now() - t0).count();
    };
    const auto check_all = [&] {
      const auto phase = run.phase(Run::Phase::kCheck);
      for (std::size_t i = 0; i < wl.queries.size(); ++i) {
        ++out.attempted;
        const query::Query& q = wl.queries[i];
        if (!results[i].feasible) {
          out.fail(q.name + ": no feasible plan");
          continue;
        }
        verify::ValidateOptions vopts;
        vopts.query = &q;
        vopts.planned_cost = results[i].planned_cost;
        const std::vector<verify::Violation> found =
            verify::validate(results[i].deployment, env, vopts);
        if (!found.empty()) out.fail(q.name + ": " + verify::describe(found));
      }
    };
    const auto repair = [&](bool restore) {
      const auto phase = run.phase(Run::Phase::kMeasure);
      const auto t0 = Run::Clock::now();
      if (restore) {
        net->restore_link(fault_a, fault_b);
      } else {
        net->fail_link(fault_a, fault_b);
      }
      const net::RoutingSyncStats st =
          run.call("net.sync", [&] { return rt.sync(*net); });
      double ms = run.last_ms();
      run.call("cluster.refresh", [&] { hierarchy->refresh(rt); });
      ms += run.last_ms();
      run.call("opt.oracle_refresh", [&] { oracle->refresh(); });
      ms += run.last_ms();
      repair_ms.push_back(ms);
      work_s += std::chrono::duration<double>(Run::Clock::now() - t0).count();
      run.add("net.rows_dropped", static_cast<double>(st.rows_dropped));
      run.add("net.rows_retained", static_cast<double>(st.rows_retained));
      run.add("net.full_rebuilds", st.full_rebuild ? 1.0 : 0.0);
    };

    plan_all();
    check_all();
    for (const bool restore : {false, true}) {
      repair(restore);
      plan_all();
      check_all();
    }

    {
      const auto phase = run.phase(Run::Phase::kCheck);
      std::ostringstream tape;
      for (std::size_t i = 0; i < wl.queries.size(); ++i) {
        const double y = ship_to_sink_cost(wl.queries[i], wl.catalog, rt);
        if (run.first_round() && y > 0.0) {
          cost_total += results[i].actual_cost;
          cost_ratios.push_back(results[i].actual_cost / y);
        }
        tape << wl.queries[i].name << ' ' << std::hexfloat
             << results[i].actual_cost << std::defaultfloat << '\n';
      }
      out.record_outputs(instance, tape.str());
      plans_total += plans;
      work_s_total += work_s;
      run.add("opt.plans_considered", plans_considered);
      run.peak("net.cached_rows", static_cast<double>(rt.cached_rows()));
      run.peak("net.peak_mem_mb",
               static_cast<double>(rt.peak_memory_bytes()) * kMiB);
      run.peak("opt.oracle_mem_mb",
               static_cast<double>(oracle->memory_bytes()) * kMiB);
    }
  }
  // Over every episode: the plan times of the worlds differ, and the total
  // weighs each plan once.
  out.work_per_s = work_s_total > 0.0 ? plans_total / work_s_total : 0.0;
  out.plan_cost_ratio = mean(cost_ratios);
  out.extras.push_back({"plan_cost", cost_total, "cost/s"});
  const Tail plan = supported_tail(out.plan_ms);
  out.extras.push_back({"plan_p50_ms", median(out.plan_ms), "ms"});
  out.extras.push_back({"plan_" + plan.label() + "_ms", plan.value, "ms"});
  out.extras.push_back({"repair_p50_ms", median(repair_ms), "ms"});
  return out;
}

}  // namespace perfbench
