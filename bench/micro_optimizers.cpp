// Microbenchmarks (google-benchmark) for the building blocks: routing table
// construction, hierarchy clustering, join-tree enumeration, the planner DP,
// and full Top-Down / Bottom-Up optimizations on the paper's 128-node-class
// topology.
//
// Besides the google-benchmark console output, the binary writes
// BENCH_planner.json (machine-readable, consumed by the CI perf-smoke job):
// ns/op and plans/sec for every optimizer on a Fig-9-sized instance
// (128-node-class transit–stub, 4-source query, max_cs=32), plus a planner
// speedup section comparing the legacy std::function/nested-vector search
// (kept verbatim below as a reference) against the arena-backed search core,
// serial and parallel.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "cluster/hierarchy.h"
#include "net/gtitm.h"
#include "opt/bottom_up.h"
#include "opt/exhaustive.h"
#include "opt/in_network.h"
#include "opt/plan_then_deploy.h"
#include "opt/relaxation.h"
#include "opt/top_down.h"
#include "opt/view.h"
#include "query/join_tree.h"
#include "workload/generator.h"

namespace {

using namespace iflow;

struct Rig {
  net::Network net;
  net::RoutingTables rt;
  workload::Workload wl;

  Rig()
      : net([] {
          Prng prng(1);
          return net::make_transit_stub(net::TransitStubParams{}, prng);
        }()),
        rt(net::RoutingTables::build(net)),
        wl([this] {
          Prng prng(2);
          workload::WorkloadParams wp;
          wp.num_streams = 10;
          wp.min_joins = 3;
          wp.max_joins = 3;
          return workload::make_workload(net, wp, 4, prng);
        }()) {}
};

Rig& rig() {
  static Rig r;
  return r;
}

/// Fig-9-sized instance: 128-node-class transit–stub, 4-source queries.
struct Fig09Rig {
  net::Network net;
  net::RoutingTables rt;
  workload::Workload wl;

  Fig09Rig()
      : net([] {
          Prng prng(11);
          return net::make_transit_stub(net::scale_to(128), prng);
        }()),
        rt(net::RoutingTables::build(net)),
        wl([this] {
          Prng prng(12);
          workload::WorkloadParams wp;
          wp.num_streams = 12;
          wp.min_joins = 3;  // 4-source queries, as in the Fig 9 series
          wp.max_joins = 3;
          return workload::make_workload(net, wp, 4, prng);
        }()) {}
};

Fig09Rig& fig09() {
  static Fig09Rig r;
  return r;
}

opt::PlannerInput fig09_planner_input(const query::RateModel& rates) {
  Fig09Rig& r = fig09();
  const query::Query& q = r.wl.queries.front();
  opt::PlannerInput in;
  in.rates = &rates;
  in.units = opt::collect_units(rates, nullptr, nullptr);
  in.target = rates.full();
  in.delivery = q.sink;
  for (net::NodeId n = 0; n < r.net.node_count(); ++n) in.sites.push_back(n);
  in.dist = opt::DistanceOracle::routing(r.rt);
  return in;
}

void BM_RoutingBuild(benchmark::State& state) {
  Prng prng(3);
  const net::Network net = net::make_transit_stub(
      net::scale_to(static_cast<int>(state.range(0))), prng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::RoutingTables::build(net));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RoutingBuild)->Arg(64)->Arg(128)->Arg(256)->Complexity();

void BM_HierarchyBuild(benchmark::State& state) {
  Rig& r = rig();
  for (auto _ : state) {
    Prng prng(4);
    benchmark::DoNotOptimize(cluster::Hierarchy::build(
        r.net, r.rt, static_cast<int>(state.range(0)), prng));
  }
}
BENCHMARK(BM_HierarchyBuild)->Arg(4)->Arg(8)->Arg(32);

void BM_TreeEnumeration(benchmark::State& state) {
  std::vector<query::Mask> masks;
  for (int i = 0; i < state.range(0); ++i) masks.push_back(query::Mask{1} << i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(query::enumerate_join_trees(masks));
  }
}
BENCHMARK(BM_TreeEnumeration)->Arg(3)->Arg(4)->Arg(5)->Arg(6);

void BM_PlanOptimalFullNetwork(benchmark::State& state) {
  Rig& r = rig();
  const query::Query& q = r.wl.queries.front();
  query::RateModel rates(r.wl.catalog, q);
  opt::PlannerInput in;
  in.rates = &rates;
  in.units = opt::collect_units(rates, nullptr, nullptr);
  in.target = rates.full();
  in.delivery = q.sink;
  for (net::NodeId n = 0; n < r.net.node_count(); ++n) in.sites.push_back(n);
  in.dist = opt::DistanceOracle::routing(r.rt);
  opt::PlanWorkspace ws(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt::plan_optimal(in, ws));
  }
}
BENCHMARK(BM_PlanOptimalFullNetwork);

void BM_PlanOptimalFig09(benchmark::State& state) {
  query::RateModel rates(fig09().wl.catalog, fig09().wl.queries.front());
  const opt::PlannerInput in = fig09_planner_input(rates);
  opt::PlanWorkspace ws(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt::plan_optimal(in, ws));
  }
  state.counters["threads"] = static_cast<double>(ws.threads());
}
BENCHMARK(BM_PlanOptimalFig09)->Arg(1)->Arg(-1)->ArgName("threads");

void BM_TopDownOptimize(benchmark::State& state) {
  Rig& r = rig();
  Prng prng(5);
  const cluster::Hierarchy hierarchy = cluster::Hierarchy::build(
      r.net, r.rt, static_cast<int>(state.range(0)), prng);
  opt::OptimizerEnv env;
  env.catalog = &r.wl.catalog;
  env.network = &r.net;
  env.routing = &r.rt;
  env.hierarchy = &hierarchy;
  env.reuse = false;
  opt::TopDownOptimizer td(env);
  for (auto _ : state) {
    benchmark::DoNotOptimize(td.optimize(r.wl.queries.front()));
  }
}
BENCHMARK(BM_TopDownOptimize)->Arg(8)->Arg(32);

void BM_BottomUpOptimize(benchmark::State& state) {
  Rig& r = rig();
  Prng prng(6);
  const cluster::Hierarchy hierarchy = cluster::Hierarchy::build(
      r.net, r.rt, static_cast<int>(state.range(0)), prng);
  opt::OptimizerEnv env;
  env.catalog = &r.wl.catalog;
  env.network = &r.net;
  env.routing = &r.rt;
  env.hierarchy = &hierarchy;
  env.reuse = false;
  opt::BottomUpOptimizer bu(env);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bu.optimize(r.wl.queries.front()));
  }
}
BENCHMARK(BM_BottomUpOptimize)->Arg(8)->Arg(32);

void BM_ExhaustiveOptimize(benchmark::State& state) {
  Rig& r = rig();
  opt::OptimizerEnv env;
  env.catalog = &r.wl.catalog;
  env.network = &r.net;
  env.routing = &r.rt;
  env.reuse = false;
  opt::ExhaustiveOptimizer ex(env);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ex.optimize(r.wl.queries.front()));
  }
}
BENCHMARK(BM_ExhaustiveOptimize);

// --------------------------------------------------------------------------
// Legacy reference planner: the pre-search-core implementation, verbatim —
// std::function distance oracle called in the hot loops, nested-vector DP
// tables allocated per invocation. Kept ONLY here, as the baseline the
// BENCH_planner.json speedup figures are measured against.
namespace legacy {

using DistFn = std::function<double(net::NodeId, net::NodeId)>;
constexpr double kInf = std::numeric_limits<double>::infinity();

struct GChoice {
  int unit = -1;
  int op_site = -1;
};

double count_plans(const std::vector<query::LeafUnit>& units,
                   query::Mask target, std::size_t site_count) {
  const int k = std::popcount(target);
  std::vector<std::vector<double>> ways(target + 1);
  ways[0].assign(1, 1.0);
  for (query::Mask m = 1; m <= target; ++m) {
    if ((m & ~target) != 0) continue;
    ways[m].assign(static_cast<std::size_t>(k) + 1, 0.0);
    const query::Mask low = m & (~m + 1);
    for (std::size_t u = 0; u < units.size(); ++u) {
      const query::Mask um = units[u].mask;
      if ((um & low) == 0 || (um & ~m) != 0) continue;
      const auto& sub = ways[m ^ um];
      for (std::size_t c = 0; c + 1 < ways[m].size() && c < sub.size(); ++c) {
        ways[m][c + 1] += sub[c];
      }
    }
  }
  double total = 0.0;
  for (std::size_t c = 1; c < ways[target].size(); ++c) {
    if (ways[target][c] == 0.0) continue;
    double trees = 1.0;
    for (int f = 2 * static_cast<int>(c) - 3; f >= 3; f -= 2) trees *= f;
    total += ways[target][c] * trees *
             std::pow(static_cast<double>(site_count),
                      static_cast<double>(c) - 1.0);
  }
  return total;
}

/// Optimal cost only (reconstruction omitted: it is identical in both
/// implementations and negligible next to the DP).
double plan_optimal_cost(const opt::PlannerInput& in, const DistFn& dist) {
  const std::size_t S = in.sites.size();
  const query::Mask target = in.target;

  std::vector<std::vector<double>> g(target + 1);
  std::vector<std::vector<double>> best_op(target + 1);
  std::vector<std::vector<GChoice>> g_choice(target + 1);
  std::vector<std::vector<query::Mask>> split_choice(target + 1);

  for (query::Mask m = 1; m <= target; ++m) {
    if ((m & ~target) != 0) continue;
    g[m].assign(S, kInf);
    g_choice[m].assign(S, GChoice{});
    const bool joinable = std::popcount(m) >= 2;
    const double rate_m = in.rates->bytes_rate(m);

    if (joinable) {
      best_op[m].assign(S, kInf);
      split_choice[m].assign(S, 0);
      const query::Mask rest = m ^ (m & (~m + 1));
      for (query::Mask b = rest; b != 0; b = (b - 1) & rest) {
        const query::Mask a = m ^ b;
        for (std::size_t p = 0; p < S; ++p) {
          const double c = g[a][p] + g[b][p];
          if (c < best_op[m][p]) {
            best_op[m][p] = c;
            split_choice[m][p] = a;
          }
        }
      }
    }

    for (std::size_t u = 0; u < in.units.size(); ++u) {
      if (in.units[u].mask != m) continue;
      for (std::size_t p = 0; p < S; ++p) {
        const double c =
            in.units[u].bytes_rate * dist(in.units[u].location, in.sites[p]);
        if (c < g[m][p]) {
          g[m][p] = c;
          g_choice[m][p] = GChoice{static_cast<int>(u), -1};
        }
      }
    }
    if (joinable) {
      for (std::size_t p = 0; p < S; ++p) {
        double best = g[m][p];
        GChoice choice = g_choice[m][p];
        for (std::size_t q = 0; q < S; ++q) {
          if (best_op[m][q] == kInf) continue;
          const double c =
              best_op[m][q] + rate_m * dist(in.sites[q], in.sites[p]);
          if (c < best) {
            best = c;
            choice = GChoice{-1, static_cast<int>(q)};
          }
        }
        g[m][p] = best;
        g_choice[m][p] = choice;
      }
    }
  }

  benchmark::DoNotOptimize(count_plans(in.units, target, S));
  double best_total = kInf;
  const double deliver_rate = in.delivery_bytes_rate >= 0.0
                                  ? in.delivery_bytes_rate
                                  : in.rates->bytes_rate(target);
  for (std::size_t u = 0; u < in.units.size(); ++u) {
    if (in.units[u].mask != target) continue;
    const double c = (in.delivery == net::kInvalidNode)
                         ? 0.0
                         : in.units[u].bytes_rate *
                               dist(in.units[u].location, in.delivery);
    best_total = std::min(best_total, c);
  }
  if (!best_op.empty() && !best_op[target].empty()) {
    for (std::size_t q = 0; q < S; ++q) {
      if (best_op[target][q] == kInf) continue;
      const double edge = (in.delivery == net::kInvalidNode)
                              ? 0.0
                              : deliver_rate * dist(in.sites[q], in.delivery);
      best_total = std::min(best_total, best_op[target][q] + edge);
    }
  }
  return best_total;
}

}  // namespace legacy

void BM_PlanOptimalFig09Legacy(benchmark::State& state) {
  Fig09Rig& r = fig09();
  query::RateModel rates(r.wl.catalog, r.wl.queries.front());
  const opt::PlannerInput in = fig09_planner_input(rates);
  const legacy::DistFn dist = [&r](net::NodeId a, net::NodeId b) {
    return r.rt.cost(a, b);
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(legacy::plan_optimal_cost(in, dist));
  }
}
BENCHMARK(BM_PlanOptimalFig09Legacy);

// --------------------------------------------------------------------------
// BENCH_planner.json: machine-readable Fig-9-size planner/optimizer numbers.

/// Nanoseconds per call of f: the median of five timed samples, each
/// running f often enough to last at least `min_seconds`, so that one
/// sample slowed by the machine does not move the figure.
template <typename F>
double measure_ns_per_op(const F& f, double min_seconds = 0.1) {
  using clock = std::chrono::steady_clock;
  f();  // warm-up (also sizes arenas / starts pools)
  const auto sample = [&](long iters) {
    const auto t0 = clock::now();
    for (long i = 0; i < iters; ++i) f();
    return std::chrono::duration<double>(clock::now() - t0).count();
  };
  long iters = 1;
  for (double secs = sample(iters); secs < min_seconds; secs = sample(iters)) {
    const double target = std::max(secs, 1e-6);
    iters = std::max(iters * 2,
                     static_cast<long>(static_cast<double>(iters) *
                                       min_seconds / target * 1.2));
  }
  std::array<double, 5> ns{};
  for (double& x : ns) x = sample(iters) * 1e9 / static_cast<double>(iters);
  std::nth_element(ns.begin(), ns.begin() + 2, ns.end());
  return ns[2];
}

void write_planner_json(const std::string& path) {
  Fig09Rig& r = fig09();
  const query::Query& q = r.wl.queries.front();
  query::RateModel rates(r.wl.catalog, q);
  Prng hp(13);
  const cluster::Hierarchy hierarchy =
      cluster::Hierarchy::build(r.net, r.rt, 32, hp);

  opt::PlanWorkspace serial_ws(1);
  opt::PlanWorkspace parallel_ws(-1);

  opt::OptimizerEnv env;
  env.catalog = &r.wl.catalog;
  env.network = &r.net;
  env.routing = &r.rt;
  env.hierarchy = &hierarchy;
  env.reuse = false;
  env.workspace = &serial_ws;

  std::ofstream out(path);
  out << "{\n";
  out << "  \"instance\": {\"nodes\": " << r.net.node_count()
      << ", \"sources\": " << q.k() << ", \"max_cs\": 32},\n";

  // Per-optimizer ns/op and plans/sec (single-threaded workspace, so the
  // numbers track the algorithms, not the machine's core count).
  opt::ExhaustiveOptimizer ex(env);
  opt::TopDownOptimizer td(env);
  opt::BottomUpOptimizer bu(env);
  opt::PlanThenDeployOptimizer ptd(env);
  opt::RelaxationOptimizer relax(env, /*seed=*/7);
  opt::InNetworkOptimizer innet(env, /*seed=*/13);
  const std::vector<opt::Optimizer*> algs = {&ex, &td, &bu, &ptd, &relax,
                                             &innet};
  out << "  \"optimizers\": [\n";
  for (std::size_t i = 0; i < algs.size(); ++i) {
    opt::Optimizer* alg = algs[i];
    const opt::OptimizeResult res = alg->optimize(q);
    const double ns = measure_ns_per_op([&] {
      benchmark::DoNotOptimize(alg->optimize(q));
    });
    out << "    {\"name\": \"" << alg->name() << "\", \"ns_per_op\": " << ns
        << ", \"plans_per_sec\": " << res.plans_considered * 1e9 / ns
        << ", \"actual_cost\": " << res.actual_cost << "}"
        << (i + 1 < algs.size() ? "," : "") << "\n";
  }
  out << "  ],\n";

  // Planner speedups: legacy (std::function + nested vectors) vs the
  // search core, serial and parallel, on the same input.
  const opt::PlannerInput in = fig09_planner_input(rates);
  const legacy::DistFn legacy_dist = [&r](net::NodeId a, net::NodeId b) {
    return r.rt.cost(a, b);
  };
  const double legacy_ns = measure_ns_per_op([&] {
    benchmark::DoNotOptimize(legacy::plan_optimal_cost(in, legacy_dist));
  });
  const double serial_ns = measure_ns_per_op([&] {
    benchmark::DoNotOptimize(opt::plan_optimal(in, serial_ws));
  });
  const double parallel_ns = measure_ns_per_op([&] {
    benchmark::DoNotOptimize(opt::plan_optimal(in, parallel_ws));
  });
  out << "  \"planner\": {\n";
  out << "    \"legacy_ns_per_op\": " << legacy_ns << ",\n";
  out << "    \"serial_ns_per_op\": " << serial_ns << ",\n";
  out << "    \"parallel_ns_per_op\": " << parallel_ns << ",\n";
  out << "    \"parallel_threads\": " << parallel_ws.threads() << ",\n";
  out << "    \"serial_speedup_vs_legacy\": " << legacy_ns / serial_ns << ",\n";
  out << "    \"parallel_speedup_vs_serial\": " << serial_ns / parallel_ns
      << "\n";
  out << "  }\n";
  out << "}\n";
  std::cout << "wrote " << path << ": serial speedup vs legacy "
            << legacy_ns / serial_ns << "x, parallel speedup vs serial "
            << serial_ns / parallel_ns << "x (" << parallel_ws.threads()
            << " threads)\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_planner_json("BENCH_planner.json");
  return 0;
}
