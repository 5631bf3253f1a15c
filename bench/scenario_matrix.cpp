// Scenario × optimizer conformance matrix.
//
// Runs every optimizer against every named scenario of the catalogue
// (src/workload/scenario.h) through the chaos harness: injector churn for
// plain scenarios, the scenario's fixed failure script otherwise, always
// followed by the post-churn lossy/loss-free delivery contract. Per-cell
// results — deployed cost, convergence, mean availability, goodput, modeled
// plan latency, validator violations — land in BENCH_scenarios.json
// (machine-readable; the CI scenario-matrix job uploads it).
//
// The process exits non-zero when any cell violates a hard contract
// (validator violations, unresumed queries, failed convergence, failed
// delivery equality), so the matrix doubles as a conformance suite.
//
// Flags:
//   --subset      CI budget: a 4-scenario representative slice
//   --threads N   planner threads (digests are thread-count invariant)
//   --digest      print each cell's digest hash line (for thread diffing)
//   --out PATH    JSON output path (default BENCH_scenarios.json)
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "engine/chaos.h"
#include "workload/scenario.h"

namespace {

using namespace iflow;

constexpr int kMaxCs = 8;

struct Cell {
  std::string scenario;
  std::string optimizer;
  bool scripted = false;
  std::size_t violations = 0;
  bool all_resumed = false;
  bool converged = false;
  bool delivery_ok = false;
  double final_cost = 0.0;
  double fresh_cost = 0.0;
  double deploy_time_ms = 0.0;
  double availability = 0.0;
  double goodput_tps = 0.0;
  std::uint64_t delivered = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t duplicates = 0;
  std::string digest;

  bool ok() const {
    return violations == 0 && all_resumed && converged && delivery_ok;
  }
};

/// FNV-1a over the digest: a compact stand-in for the full transcript when
/// diffing thread counts.
std::uint64_t digest_hash(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

Cell run_cell(const workload::Scenario& sc, engine::Algorithm alg,
              int threads) {
  engine::ChaosConfig cfg;
  cfg.events = 24;
  cfg.threads = threads;
  cfg.delivery_check = true;
  cfg.rate_modulation = sc.rate_modulation();

  const engine::ChaosReport report =
      engine::run_churn(sc.net, sc.workload.catalog, sc.workload.queries,
                        kMaxCs, alg, sc.spec.seed, cfg, sc.script);

  Cell c;
  c.scenario = sc.spec.name;
  c.optimizer = engine::to_string(alg);
  c.scripted = !sc.script.empty();
  c.violations = report.violations;
  c.all_resumed = report.all_resumed;
  c.converged = report.converged;
  c.delivery_ok = report.delivery_checked && report.delivery_ok;
  c.final_cost = report.final_cost;
  c.fresh_cost = report.fresh_cost;
  c.deploy_time_ms = report.deploy_time_ms;
  c.availability = report.mean_availability;
  c.goodput_tps = report.goodput_tps;
  c.delivered = report.delivered_total;
  c.retransmits = report.retransmits_total;
  c.duplicates = report.duplicates_total;
  c.digest = report.digest;
  if (!c.ok() && !report.violation_detail.empty()) {
    std::cerr << "  first violation: " << report.violation_detail << "\n";
  }
  return c;
}

void write_json(const std::string& path, const std::vector<Cell>& cells,
                int threads) {
  std::ofstream out(path);
  out << "{\n  \"max_cs\": " << kMaxCs << ", \"threads\": " << threads
      << ",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    out << "    {\"scenario\": \"" << c.scenario << "\", \"optimizer\": \""
        << c.optimizer << "\", \"scripted\": " << (c.scripted ? 1 : 0)
        << ", \"violations\": " << c.violations
        << ", \"all_resumed\": " << (c.all_resumed ? 1 : 0)
        << ", \"converged\": " << (c.converged ? 1 : 0)
        << ", \"delivery_ok\": " << (c.delivery_ok ? 1 : 0)
        << ", \"final_cost\": " << c.final_cost
        << ", \"fresh_cost\": " << c.fresh_cost
        << ", \"plan_latency_ms\": " << c.deploy_time_ms
        << ", \"availability\": " << c.availability
        << ", \"goodput_tps\": " << c.goodput_tps
        << ", \"delivered\": " << c.delivered
        << ", \"retransmits\": " << c.retransmits
        << ", \"duplicates\": " << c.duplicates << ", \"digest_fnv\": \""
        << std::hex << digest_hash(c.digest) << std::dec << "\"}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool subset = false;
  bool print_digest = false;
  int threads = 1;
  std::string out_path = "BENCH_scenarios.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--subset") == 0) {
      subset = true;
    } else if (std::strcmp(argv[i], "--digest") == 0) {
      print_digest = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: scenario_matrix [--subset] [--digest] "
                   "[--threads N] [--out PATH]\n";
      return 2;
    }
  }

  // The CI slice covers every scenario *family*: churn, rates, placement,
  // scripted failures, loss.
  const std::vector<std::string> names =
      subset ? std::vector<std::string>{"baseline-uniform", "diurnal-rates",
                                        "geo-clustered", "cluster-outage",
                                        "loss-storm"}
             : workload::scenario_names();
  const std::vector<engine::Algorithm> algorithms = {
      engine::Algorithm::kExhaustive,     engine::Algorithm::kTopDown,
      engine::Algorithm::kBottomUp,       engine::Algorithm::kPlanThenDeploy,
      engine::Algorithm::kRelaxation,     engine::Algorithm::kInNetwork,
  };

  std::vector<Cell> cells;
  int failures = 0;
  for (const std::string& name : names) {
    const workload::Scenario sc =
        workload::build_scenario(workload::scenario_spec(name));
    std::cout << name << " (queries " << sc.workload.queries.size()
              << ", nodes " << sc.net.node_count() << ", script "
              << sc.script.size() << " events):\n";
    for (const engine::Algorithm alg : algorithms) {
      cells.push_back(run_cell(sc, alg, threads));
      const Cell& c = cells.back();
      std::cout << "  " << c.optimizer << ": cost " << c.final_cost
                << " (fresh " << c.fresh_cost << "), avail " << c.availability
                << ", goodput " << c.goodput_tps << " t/s, plan "
                << c.deploy_time_ms << " ms, "
                << (c.ok() ? "ok" : "CONTRACT FAILED") << "\n";
      if (print_digest) {
        std::cout << "    digest-fnv " << std::hex << digest_hash(c.digest)
                  << std::dec << "\n";
      }
      if (!c.ok()) ++failures;
    }
  }

  write_json(out_path, cells, threads);
  std::cout << "wrote " << out_path << " (" << cells.size() << " cells, "
            << failures << " contract failures)\n";
  return failures == 0 ? 0 : 1;
}
