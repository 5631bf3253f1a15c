// Reliable-delivery microbenchmark: goodput and retransmission overhead as
// a function of per-link loss rate.
//
// For each Fig-9-class network size the harness deploys a fixed workload
// through the middleware (so reuse chains and derived units are realistic),
// then runs the simulation over copies of the network with a
// uniform per-link loss rate swept from 0 to 5%. Every sweep point reports
// aggregate delivered tuples, goodput, lost-after-retries, and the byte
// overhead retransmissions add on top of first transmissions. Results land
// in BENCH_reliability.json (machine-readable, uploaded by the CI
// perf-smoke job alongside BENCH_planner.json and BENCH_adapt.json).
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/check.h"
#include "engine/middleware.h"
#include "engine/simulation.h"
#include "net/gtitm.h"
#include "workload/generator.h"

namespace {

using namespace iflow;

constexpr int kQueries = 8;
constexpr int kStreams = 12;
constexpr int kMaxCs = 32;
constexpr double kDurationS = 20.0;

struct LossRow {
  double loss = 0.0;
  std::uint64_t delivered = 0;
  std::uint64_t lost = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t duplicates = 0;
  double goodput_tps = 0.0;
  double data_bytes = 0.0;
  double retransmit_bytes = 0.0;
  double overhead = 0.0;  // retransmit_bytes / data_bytes
};

struct SizeRow {
  std::size_t nodes = 0;
  std::vector<LossRow> rows;
};

SizeRow measure(int size, const std::vector<double>& loss_rates) {
  Prng net_prng(11 + static_cast<std::uint64_t>(size));
  net::Network base = net::make_transit_stub(net::scale_to(size), net_prng);

  workload::WorkloadParams wp;
  wp.num_streams = kStreams;
  // Goodput needs results actually reaching sinks: the Fig-9 4-source/
  // 1%-selectivity shape joins to ~zero output in a 20 s window, so this
  // harness uses 2–3-source queries over chattier streams instead. The
  // network sizes stay the Fig-9 series.
  wp.min_joins = 1;
  wp.max_joins = 2;
  wp.selectivity_min = 0.1;
  wp.selectivity_max = 0.3;
  wp.tuple_rate_min = 10.0;
  wp.tuple_rate_max = 30.0;
  Prng wl_prng(12);
  workload::Workload wl = workload::make_workload(base, wp, kQueries, wl_prng);

  engine::Middleware mw(base, wl.catalog, kMaxCs,
                        engine::Algorithm::kTopDown, /*seed=*/13);
  mw.workspace().set_threads(1);
  for (const query::Query& q : wl.queries) mw.deploy(q);
  const std::vector<engine::Middleware::ActiveView> views = mw.active_views();

  engine::EngineConfig ec;
  ec.duration_s = kDurationS;
  // GT-ITM transit-stub links carry up to 60 ms propagation delay and acks
  // ride the full return path, so multi-hop round trips run to hundreds of
  // ms — far past the default 50 ms timeout, which would retransmit every
  // tuple spuriously. Size the timeout to the topology instead.
  ec.reliability.ack_timeout_s = 1.0;
  ec.reliability.max_backoff_s = 4.0;

  // Loss is a quality-only mutation: it leaves routing metrics alone, so
  // one build serves every loss level and sync() only advances its version.
  net::RoutingTables rt = net::RoutingTables::build(base);
  SizeRow row;
  row.nodes = base.node_count();
  for (double loss : loss_rates) {
    net::Network net = base;
    for (const net::Link& l : base.links()) net.set_link_loss(l.a, l.b, loss);
    IFLOW_CHECK(!rt.sync(net).full_rebuild);
    engine::Simulation sim(net, rt, mw.catalog(), ec, /*seed=*/19);
    IFLOW_CHECK_MSG(mw.deploy_actives(sim), "reuse chain failed to deploy");
    sim.run();

    LossRow r;
    r.loss = loss;
    for (const engine::Middleware::ActiveView& v : views) {
      const engine::DeliveryStats ds = sim.delivery_stats(v.query->id);
      r.delivered += ds.delivered;
      r.lost += ds.lost;
      r.retransmits += ds.retransmits;
      r.duplicates += ds.duplicates;
      r.goodput_tps += ds.goodput_tps;
      r.data_bytes += ds.data_bytes;
      r.retransmit_bytes += ds.retransmit_bytes;
    }
    r.overhead = r.data_bytes > 0.0 ? r.retransmit_bytes / r.data_bytes : 0.0;
    row.rows.push_back(r);
  }
  return row;
}

void write_json(const std::string& path, const std::vector<SizeRow>& sizes) {
  std::ofstream out(path);
  out << "{\n";
  out << "  \"workload\": {\"queries\": " << kQueries
      << ", \"streams\": " << kStreams << ", \"sources_per_query\": \"2-3\""
      << ", \"max_cs\": " << kMaxCs << ", \"duration_s\": " << kDurationS
      << "},\n";
  out << "  \"sizes\": [\n";
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const SizeRow& s = sizes[i];
    out << "    {\"nodes\": " << s.nodes << ", \"sweep\": [\n";
    for (std::size_t j = 0; j < s.rows.size(); ++j) {
      const LossRow& r = s.rows[j];
      out << "      {\"loss\": " << r.loss << ", \"delivered\": " << r.delivered
          << ", \"lost\": " << r.lost << ", \"retransmits\": " << r.retransmits
          << ", \"duplicates\": " << r.duplicates
          << ", \"goodput_tps\": " << r.goodput_tps
          << ", \"data_bytes\": " << r.data_bytes
          << ", \"retransmit_bytes\": " << r.retransmit_bytes
          << ", \"overhead\": " << r.overhead << "}"
          << (j + 1 < s.rows.size() ? "," : "") << "\n";
    }
    out << "    ]}" << (i + 1 < sizes.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
}

}  // namespace

int main() {
  const std::vector<int> sizes = {128, 256, 512};
  const std::vector<double> loss_rates = {0.0, 0.01, 0.02, 0.05};
  std::vector<SizeRow> rows;
  for (int size : sizes) {
    rows.push_back(measure(size, loss_rates));
    const SizeRow& s = rows.back();
    std::cout << s.nodes << " nodes:\n";
    for (const LossRow& r : s.rows) {
      std::cout << "  loss " << r.loss << ": delivered " << r.delivered
                << " (goodput " << r.goodput_tps << " t/s), lost " << r.lost
                << ", retransmits " << r.retransmits << ", overhead "
                << r.overhead << "\n";
    }
  }
  write_json("BENCH_reliability.json", rows);
  std::cout << "wrote BENCH_reliability.json\n";
  return 0;
}
