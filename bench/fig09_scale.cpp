// Scale sweep — hierarchy-native sparse planning at 1k/10k/100k nodes.
//
// For each network size the bench builds a GT-ITM transit-stub topology,
// a sparse (lazy, LRU-bounded) routing tier, a partitioned hierarchy whose
// leaf clusters are the stub domains, and a tiered SparseOracle, then plans
// a fixed workload through the Top-Down optimizer. Reported per cell:
//   * hierarchy build and total plan time;
//   * peak oracle memory (routing rows + leaf sketches + the hierarchy with
//     its coordinator matrix) against the dense all-pairs equivalent
//     (target: < 5% at 10k nodes);
//   * plan-quality ratio vs dense exact planning (1k cell only, where the
//     dense baseline is still buildable);
//   * incremental repair time after a single link failure vs recomputing
//     the same working set from scratch (target: >= 10x at 10k nodes), and
//     the kernel pops of the repair's sync against the rows that re-settled
//     the faulted stub domain;
//   * the hierarchy's refresh after that failure, which recomputes only
//     the coordinator-matrix entries the link can change, vs one full
//     recompute of the matrix (its time and kernel pops), and the rows the
//     refresh touched;
//   * the refresh after a failure on a leaf coordinator's cost path, which
//     changes that coordinator's row and column;
//   * the routing table's kernel pops by caller (rows, sync, matrix) over
//     the whole cell;
//   * an FNV-1a digest over the hexfloat plan costs — rerun with a
//     different --threads value and diff the digest lines to check the
//     parallel site sweep is bitwise-identical to the serial one.
//
// Results are also written as JSON (default BENCH_scale.json). The 100k
// cell runs only with --full; the default 1k/10k sweep keeps CI-friendly
// runtimes.
//
// Usage: fig09_scale [--seed S] [--threads N] [--quick] [--full]
//        [--json PATH]
// --quick runs the 1k cell only (the CI smoke shape); --full adds 100k.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/hierarchy.h"
#include "common/prng.h"
#include "common/table.h"
#include "net/gtitm.h"
#include "net/routing.h"
#include "opt/search/sparse_oracle.h"
#include "opt/search/workspace.h"
#include "opt/top_down.h"
#include "workload/generator.h"

namespace iflow {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

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

struct Cell {
  std::size_t nodes = 0;
  double hierarchy_ms = 0.0;
  double plan_ms = 0.0;
  std::size_t peak_oracle_bytes = 0;
  std::size_t dense_equiv_bytes = 0;
  double quality_ratio = 0.0;  // 0 = dense baseline not run
  double inc_repair_ms = 0.0;
  double full_rebuild_ms = 0.0;
  std::uint64_t repair_sync_pops = 0;
  std::size_t repair_rows_patched = 0;
  std::size_t repair_region_nodes = 0;
  double refresh_ms = 0.0;
  double full_matrix_ms = 0.0;
  std::uint64_t full_matrix_pops = 0;
  std::size_t matrix_rows = 0;
  std::size_t refresh_rows = 0;
  double gateway_refresh_ms = 0.0;
  std::size_t gateway_refresh_rows = 0;
  net::RoutingWork work;
  std::uint64_t digest = 0;
};

/// Plans the workload through one env; returns total actual cost and
/// appends one hexfloat digest line per query.
double plan_workload(const opt::OptimizerEnv& env,
                     const workload::Workload& wl, std::ostringstream* tape) {
  opt::TopDownOptimizer td(env);
  double total = 0.0;
  for (const query::Query& q : wl.queries) {
    const opt::OptimizeResult r = td.optimize(q);
    IFLOW_CHECK_MSG(r.feasible, "bench query infeasible: " << q.name);
    total += r.actual_cost;
    if (tape != nullptr) {
      *tape << q.name << ' ' << std::hexfloat << r.actual_cost
            << std::defaultfloat << '\n';
    }
  }
  return total;
}

Cell run_cell(int target_nodes, std::uint64_t seed, int threads,
              bool dense_baseline) {
  Cell cell;
  const net::TransitStubParams p = net::scale_to(target_nodes);
  Prng net_prng(seed + static_cast<std::uint64_t>(target_nodes));
  net::Network net = net::make_transit_stub(p, net_prng);
  cell.nodes = net.node_count();
  cell.dense_equiv_bytes =
      net::RoutingTables::dense_equivalent_bytes(net.node_count());

  net::RoutingOptions ropts;
  ropts.mode = net::RoutingMode::kSparse;
  ropts.max_cached_rows = 256;
  net::RoutingTables rt = net::RoutingTables::build(net, ropts);

  const auto t_h = Clock::now();
  Prng hp(seed + 7);
  cluster::Hierarchy hierarchy = cluster::Hierarchy::build_partitioned(
      net, rt, domain_partitions(p), 32, hp);
  cell.hierarchy_ms = ms_since(t_h);

  const opt::SparseOracle oracle(net, rt, hierarchy, {});

  workload::WorkloadParams wp;
  wp.num_streams = 24;
  wp.min_joins = 3;
  wp.max_joins = 3;  // 4-source queries, the paper's scalability shape
  Prng wl_prng(seed + 11);
  const workload::Workload wl = workload::make_workload(net, wp, 6, wl_prng);

  opt::PlanWorkspace ws(threads);
  opt::OptimizerEnv env;
  env.catalog = &wl.catalog;
  env.network = &net;
  env.routing = &rt;
  env.hierarchy = &hierarchy;
  env.workspace = &ws;
  env.sparse = &oracle;

  std::ostringstream tape;
  const auto t_plan = Clock::now();
  const double sparse_cost = plan_workload(env, wl, &tape);
  cell.plan_ms = ms_since(t_plan);
  cell.digest = fnv1a(tape.str());
  cell.peak_oracle_bytes = rt.peak_memory_bytes() + oracle.memory_bytes() +
                           hierarchy.memory_bytes();

  if (dense_baseline) {
    // Exact all-pairs tier + the same hierarchy, no oracle: the planner
    // prices level-1 refinement on exact routing rows.
    const net::RoutingTables dense_rt = net::RoutingTables::build(net);
    cluster::Hierarchy dense_h = hierarchy;
    dense_h.refresh(dense_rt);
    opt::OptimizerEnv dense_env = env;
    dense_env.routing = &dense_rt;
    dense_env.hierarchy = &dense_h;
    dense_env.sparse = nullptr;
    const double dense_cost = plan_workload(dense_env, wl, nullptr);
    cell.quality_ratio = sparse_cost / dense_cost;
  }

  // Incremental repair vs from-scratch recompute of the same working set:
  // warm a set of rows, fail one stub-internal link, and time sync() plus
  // re-reading the set against rebuilding the tier and reading the set.
  const std::size_t warm =
      std::min<std::size_t>(128, net.node_count());
  for (net::NodeId a = 0; a < warm; ++a) rt.cost(a, 0);
  std::uint32_t victim = net::kInvalidLink;
  for (std::uint32_t i = static_cast<std::uint32_t>(net.link_count()); i-- > 0;) {
    const net::Link& l = net.links()[i];
    if (net.kind(l.a) == net::NodeKind::kStub &&
        net.kind(l.b) == net::NodeKind::kStub) {
      victim = i;
      break;
    }
  }
  IFLOW_CHECK(victim != net::kInvalidLink);
  const net::NodeId va = net.links()[victim].a;
  const net::NodeId vb = net.links()[victim].b;

  // The link lies inside one stub domain, a single-homed region of the
  // sparse tier: the sync re-settles it in the rows that hold it.
  cell.repair_region_nodes = static_cast<std::size_t>(p.stub_domain_size);
  net.fail_link(va, vb);
  const std::uint64_t sync_pops = rt.work().sync_pops;
  const auto t_inc = Clock::now();
  cell.repair_rows_patched = rt.sync(net).rows_patched;
  for (net::NodeId a = 0; a < warm; ++a) rt.cost(a, 0);
  cell.inc_repair_ms = ms_since(t_inc);
  cell.repair_sync_pops = rt.work().sync_pops - sync_pops;

  const auto t_full = Clock::now();
  net::RoutingTables fresh = net::RoutingTables::build(net, ropts);
  for (net::NodeId a = 0; a < warm; ++a) fresh.cost(a, 0);
  cell.full_rebuild_ms = ms_since(t_full);

  // The hierarchy's side of the same failure: its refresh against one full
  // recompute of the coordinator matrix. The oracle is not used after this.
  const auto t_refresh = Clock::now();
  cell.refresh_rows = hierarchy.refresh(rt);
  cell.refresh_ms = ms_since(t_refresh);
  std::vector<net::NodeId> coords;
  for (const cluster::Cluster& cl : hierarchy.level(1)) {
    coords.push_back(cl.coordinator);
  }
  std::vector<double> matrix(coords.size() * coords.size());
  cell.matrix_rows = coords.size();
  const std::uint64_t matrix_pops = rt.work().matrix_pops;
  const auto t_matrix = Clock::now();
  rt.cost_matrix(coords.data(), coords.size(), matrix.data());
  cell.full_matrix_ms = ms_since(t_matrix);
  cell.full_matrix_pops = rt.work().matrix_pops - matrix_pops;

  // A failure on a leaf coordinator's cost path: the first stub link on a
  // stub coordinator's path to the first coordinator whose failure keeps
  // the network connected. The restore above and the probes are synced and
  // refreshed untimed, so the timed refresh replays one event.
  net.restore_link(va, vb);
  rt.sync(net);
  net::NodeId ga = net::kInvalidNode, gb = net::kInvalidNode;
  for (std::size_t k = 1; k < coords.size() && ga == net::kInvalidNode; ++k) {
    if (net.kind(coords[k]) != net::NodeKind::kStub) continue;
    const std::vector<net::NodeId> path = rt.cost_path(coords[k], coords[0]);
    for (std::size_t h = 0; h + 1 < path.size(); ++h) {
      if (net.kind(path[h + 1]) != net::NodeKind::kStub) break;
      net.fail_link(path[h], path[h + 1]);
      const bool connected = net.connected();
      net.restore_link(path[h], path[h + 1]);
      rt.sync(net);
      if (connected) {
        ga = path[h];
        gb = path[h + 1];
        break;
      }
    }
  }
  IFLOW_CHECK_MSG(ga != net::kInvalidNode,
                  "no coordinator path holds a non-bridge stub link");
  hierarchy.refresh(rt);
  net.fail_link(ga, gb);
  rt.sync(net);
  const auto t_gateway = Clock::now();
  cell.gateway_refresh_rows = hierarchy.refresh(rt);
  cell.gateway_refresh_ms = ms_since(t_gateway);
  cell.work = rt.work();
  return cell;
}

void write_json(const std::string& path, const std::vector<Cell>& cells,
                std::uint64_t seed, int threads) {
  std::ofstream out(path);
  IFLOW_CHECK_MSG(out.good(), "cannot write " << path);
  out << "{\n  \"bench\": \"fig09_scale\",\n  \"seed\": " << seed
      << ",\n  \"threads\": " << threads << ",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    out << "    {\"nodes\": " << c.nodes
        << ", \"hierarchy_ms\": " << c.hierarchy_ms
        << ", \"plan_ms\": " << c.plan_ms
        << ", \"peak_oracle_bytes\": " << c.peak_oracle_bytes
        << ", \"dense_equiv_bytes\": " << c.dense_equiv_bytes
        << ", \"memory_ratio\": "
        << static_cast<double>(c.peak_oracle_bytes) /
               static_cast<double>(c.dense_equiv_bytes)
        << ", \"quality_ratio\": " << c.quality_ratio
        << ", \"incremental_repair_ms\": " << c.inc_repair_ms
        << ", \"full_rebuild_ms\": " << c.full_rebuild_ms
        << ", \"repair_speedup\": " << c.full_rebuild_ms / c.inc_repair_ms
        << ", \"repair_sync_pops\": " << c.repair_sync_pops
        << ", \"repair_rows_patched\": " << c.repair_rows_patched
        << ", \"repair_region_nodes\": " << c.repair_region_nodes
        << ", \"refresh_ms\": " << c.refresh_ms
        << ", \"full_matrix_ms\": " << c.full_matrix_ms
        << ", \"full_matrix_pops\": " << c.full_matrix_pops
        << ", \"matrix_rows\": " << c.matrix_rows
        << ", \"refresh_rows\": " << c.refresh_rows
        << ", \"gateway_refresh_ms\": " << c.gateway_refresh_ms
        << ", \"gateway_refresh_rows\": " << c.gateway_refresh_rows
        << ", \"row_pops\": " << c.work.row_pops
        << ", \"sync_pops\": " << c.work.sync_pops
        << ", \"matrix_pops\": " << c.work.matrix_pops
        << ", \"digest\": \"" << std::hex << c.digest << std::dec << "\"}"
        << (i + 1 < cells.size() ? "," : "") << '\n';
  }
  out << "  ]\n}\n";
}

}  // namespace
}  // namespace iflow

int main(int argc, char** argv) {
  using namespace iflow;
  std::uint64_t seed = 20070326;
  int threads = 1;
  bool full = false;
  bool quick = false;
  std::string json_path = "BENCH_scale.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      IFLOW_CHECK_MSG(i + 1 < argc, arg << " needs a value");
      return argv[++i];
    };
    if (arg == "--seed") {
      seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--threads") {
      threads = static_cast<int>(std::strtoul(value(), nullptr, 10));
    } else if (arg == "--full") {
      full = true;
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--json") {
      json_path = value();
    } else {
      std::cerr << "usage: fig09_scale [--seed S] [--threads N] [--quick] "
                   "[--full] [--json PATH]\n";
      return 2;
    }
  }

  std::vector<int> sizes = quick ? std::vector<int>{1000}
                                 : std::vector<int>{1000, 10000};
  if (full) sizes.push_back(100000);

  std::cout << "Scale sweep: sparse-oracle planning (seed " << seed
            << ", threads " << threads << ")\n\n";
  TextTable t({"nodes", "hier ms", "plan ms", "oracle MB", "dense MB",
               "mem %", "quality", "inc ms", "full ms", "speedup",
               "refresh ms", "matrix ms", "rows", "gw ms", "gw rows",
               "digest-fnv"});
  std::vector<Cell> cells;
  for (const int size : sizes) {
    const Cell c = run_cell(size, seed, threads, /*dense_baseline=*/size <= 1000);
    const double mb = 1.0 / (1024.0 * 1024.0);
    std::ostringstream dg;
    dg << std::hex << c.digest;
    t.row()
        .cell(static_cast<std::uint64_t>(c.nodes))
        .cell(c.hierarchy_ms, 1)
        .cell(c.plan_ms, 1)
        .cell(static_cast<double>(c.peak_oracle_bytes) * mb, 2)
        .cell(static_cast<double>(c.dense_equiv_bytes) * mb, 2)
        .cell(100.0 * static_cast<double>(c.peak_oracle_bytes) /
                  static_cast<double>(c.dense_equiv_bytes),
              2)
        .cell(c.quality_ratio, 4)
        .cell(c.inc_repair_ms, 2)
        .cell(c.full_rebuild_ms, 2)
        .cell(c.full_rebuild_ms / c.inc_repair_ms, 1)
        .cell(c.refresh_ms, 2)
        .cell(c.full_matrix_ms, 2)
        .cell(static_cast<std::uint64_t>(c.refresh_rows))
        .cell(c.gateway_refresh_ms, 2)
        .cell(static_cast<std::uint64_t>(c.gateway_refresh_rows))
        .cell(dg.str());
    cells.push_back(c);
    std::cout << "digest-fnv " << c.nodes << ' ' << dg.str() << '\n';
  }
  std::cout << '\n';
  t.print(std::cout);
  write_json(json_path, cells, seed, threads);
  std::cout << "\nwrote " << json_path
            << " (quality 0 = dense baseline skipped at that size; targets: "
               "mem % < 5 at 10k, speedup >= 10 at 10k)\n";
  return 0;
}
