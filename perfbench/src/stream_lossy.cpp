// stream-lossy: the engine does nearly all the work, planning almost none.
//
// A fig09-class transit-stub world with Top-Down-deployed join queries runs
// on the reliable data plane at 2% per-link loss with coordinated
// checkpoints, and the same deployment runs loss-free as the reference.
// Both runs emit the same source tuples (the engine's determinism
// contract), so the reference's delivered counts are what the lossy run
// should have delivered.
#include <map>
#include <memory>
#include <sstream>

#include "common/check.h"
#include "engine/middleware.h"
#include "engine/simulation.h"
#include "net/gtitm.h"
#include "stats.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace iflow;

constexpr double kLoss = 0.02;
constexpr int kMaxCs = 32;

struct Size {
  int nodes;
  int queries;
  int streams;
  double duration_s;
  int instances;
};

// Dependency-ordered deploy: derived leaf units bind to operators of
// already-deployed queries, so sweep until every view is placed.
void deploy_all(engine::Simulation& sim, const engine::Middleware& mw,
                const std::vector<engine::Middleware::ActiveView>& views) {
  std::vector<bool> done(views.size(), false);
  std::size_t remaining = views.size();
  bool progress = true;
  while (remaining > 0 && progress) {
    progress = false;
    for (std::size_t i = 0; i < views.size(); ++i) {
      if (done[i]) continue;
      try {
        sim.deploy(*views[i].deployment,
                   query::RateModel(mw.catalog(), *views[i].query));
        done[i] = true;
        --remaining;
        progress = true;
      } catch (const CheckError&) {
        // Provider not deployed yet; retry next sweep.
      }
    }
  }
  IFLOW_CHECK_MSG(remaining == 0, "reuse chain failed to deploy");
}

engine::EngineConfig engine_config(double duration_s) {
  engine::EngineConfig ec;
  ec.duration_s = duration_s;
  ec.reliability.enabled = true;
  // Transit-stub round trips run to hundreds of ms; size the retransmit
  // timeout to the topology so only real losses are retransmitted.
  ec.reliability.ack_timeout_s = 1.0;
  ec.reliability.max_backoff_s = 4.0;
  ec.checkpoint.enabled = true;
  ec.checkpoint.interval_s = 5.0;
  return ec;
}

/// Layer counters of the lossy run, summed over queries and channels.
void count_engine(Run& run, const engine::Simulation& sim,
                  const std::vector<engine::Middleware::ActiveView>& views) {
  constexpr double kMiB = 1.0 / (1024.0 * 1024.0);
  run.add("engine.tuples_emitted", static_cast<double>(sim.tuples_emitted()));
  for (const engine::OperatorStats& op : sim.operator_stats()) {
    if (op.kind == "join") run.add("engine.op_in.join", op.tuples_in);
    if (op.kind == "sink") run.add("engine.op_in.sink", op.tuples_in);
  }
  for (const engine::ChannelTelemetry& ch : sim.channel_telemetry()) {
    run.add("engine.sent", static_cast<double>(ch.sent));
    run.add("engine.retransmits", static_cast<double>(ch.retransmits));
    run.add("engine.acks", static_cast<double>(ch.rtt_samples));
    run.add("engine.lost", static_cast<double>(ch.lost));
  }
  double seen_hw = 0.0;
  for (const auto& v : views) {
    const engine::DeliveryStats ds = sim.delivery_stats(v.query->id);
    run.add("engine.duplicates", static_cast<double>(ds.duplicates));
    run.add("engine.shed", static_cast<double>(ds.shed));
    run.add("engine.data_mb", ds.data_bytes * kMiB);
    run.add("engine.retransmit_mb", ds.retransmit_bytes * kMiB);
    seen_hw = std::max(seen_hw, static_cast<double>(ds.seen_high_water));
  }
  run.peak("engine.seen_high_water", seen_hw);
  const engine::SnapshotStats ss = sim.snapshot_stats();
  run.add("engine.epochs", static_cast<double>(ss.epochs_committed));
  run.add("engine.snapshot_mb", ss.bytes_total * kMiB);
  run.add("engine.replayed", static_cast<double>(ss.replayed_tuples));
  run.peak("engine.retained_high_water",
           static_cast<double>(ss.retained_high_water));
}

}  // namespace

Outcome stream_lossy(Run& run) {
  const Options& o = run.opts();
  const Size size =
      o.tiny ? Size{64, 4, 8, 10.0, 1} : Size{264, 16, 24, 15.0, 24};
  const engine::EngineConfig ec = engine_config(size.duration_s);

  Outcome out;
  double lossy_tuples = 0.0, lossy_s = 0.0, clean_tuples = 0.0, clean_s = 0.0;
  std::vector<double> sent_per_s;  // per episode, lossy run
  std::vector<double> cost_ratios;  // per live query, first round
  double ref_delivered = 0.0, lossy_delivered = 0.0;
  double plan_cost = 0.0;
  while (run.next_episode(size.instances)) {
    const int instance = run.instance();
    net::Network base;
    workload::Workload wl;
    std::unique_ptr<engine::Middleware> mw;
    net::Network lossy_net;
    net::RoutingTables lossy_rt;
    std::unique_ptr<engine::Simulation> lossy, clean;
    std::vector<engine::Middleware::ActiveView> views;
    {
      const auto phase = run.phase(Run::Phase::kSetup);
      Prng prng(o.seed * 1000003 + static_cast<std::uint64_t>(instance));
      Prng net_prng = prng.fork(1);
      base = net::make_transit_stub(net::scale_to(size.nodes), net_prng);
      workload::WorkloadParams wp;
      wp.num_streams = size.streams;
      wp.min_joins = 1;  // 2-3 sources: chatty enough to deliver results
      wp.max_joins = 2;
      wp.selectivity_min = 0.1;
      wp.selectivity_max = 0.3;
      wp.tuple_rate_min = 20.0;
      wp.tuple_rate_max = 60.0;
      Prng wl_prng = prng.fork(2);
      wl = workload::make_workload(base, wp, size.queries, wl_prng);

      mw = run.call("mw.init", [&] {
        return std::make_unique<engine::Middleware>(
            base, wl.catalog, kMaxCs, engine::Algorithm::kTopDown, o.seed);
      });
      mw->workspace().set_threads(1);
      for (const query::Query& q : wl.queries) {
        const opt::OptimizeResult r =
            run.call("mw.deploy", [&] { return mw->deploy(q); });
        out.plan_ms.push_back(run.last_ms());
        if (!r.feasible) out.fail("query " + q.name + " not deployed");
      }
      views = mw->active_views();

      lossy_net = base;
      for (const net::Link& l : base.links()) {
        lossy_net.set_link_loss(l.a, l.b, kLoss);
      }
      lossy_rt = run.call("net.build",
                          [&] { return net::RoutingTables::build(lossy_net); });
      const std::uint64_t engine_seed = prng.fork(3).engine()();
      lossy = run.call("engine.deploy", [&] {
        auto sim = std::make_unique<engine::Simulation>(
            lossy_net, lossy_rt, mw->catalog(), ec, engine_seed);
        deploy_all(*sim, *mw, views);
        return sim;
      });
      clean = run.call("engine.deploy", [&] {
        auto sim = std::make_unique<engine::Simulation>(
            base, mw->routing(), mw->catalog(), ec, engine_seed);
        deploy_all(*sim, *mw, views);
        return sim;
      });
    }
    double lossy_run_s = 0.0;
    {
      const auto phase = run.phase(Run::Phase::kMeasure);
      run.call("engine.run.lossy", [&] { lossy->run(); });
      lossy_run_s = run.last_ms() * 1e-3;
      lossy_s += lossy_run_s;
      run.call("engine.run.clean", [&] { clean->run(); });
      clean_s += run.last_ms() * 1e-3;
    }
    {
      const auto phase = run.phase(Run::Phase::kCheck);
      lossy_tuples += static_cast<double>(lossy->tuples_emitted());
      double sent = 0.0;
      for (const engine::ChannelTelemetry& ch : lossy->channel_telemetry()) {
        sent += static_cast<double>(ch.sent);
      }
      sent_per_s.push_back(sent / lossy_run_s);
      clean_tuples += static_cast<double>(clean->tuples_emitted());
      std::ostringstream tape;
      double ref_ep = 0.0, lossy_ep = 0.0;
      for (const auto& v : views) {
        const engine::DeliveryStats ref = clean->delivery_stats(v.query->id);
        const engine::DeliveryStats got = lossy->delivery_stats(v.query->id);
        out.attempted += 2;
        if (ref.lost != 0) {
          out.fail(v.query->name + ": reference lost " +
                   std::to_string(ref.lost) + " results after retries");
        }
        if (ref.delivered == 0) {
          out.fail(v.query->name + ": reference delivered nothing");
        }
        const double y =
            ship_to_sink_cost(*v.query, mw->catalog(), mw->routing());
        if (run.first_round() && y > 0.0) {
          cost_ratios.push_back(
              query::deployment_cost(*v.deployment, mw->routing()) / y);
        }
        ref_ep += static_cast<double>(ref.delivered);
        lossy_ep += static_cast<double>(got.delivered);
        tape << v.query->id << ' ' << ref.delivered << ' ' << got.delivered
             << ' ' << std::hexfloat << v.planned_cost << std::defaultfloat
             << '\n';
      }
      out.record_outputs(instance, tape.str());
      if (run.first_round()) {
        ref_delivered += ref_ep;
        lossy_delivered += lossy_ep;
        plan_cost += mw->total_current_cost();
        if (ref_delivered > 0.0) {
          run.set("engine.completeness", lossy_delivered / ref_delivered);
        }
      }
      count_engine(run, *lossy, views);
      run.add("advert.registry_size",
              static_cast<double>(mw->registry().size()));
    }
  }
  out.plan_cost_ratio = mean(cost_ratios);
  const double completeness =
      ref_delivered > 0.0 ? lossy_delivered / ref_delivered : 0.0;
  out.work_per_s = median(sent_per_s);
  out.extras = {
      {"engine_tps_lossy", lossy_s > 0.0 ? lossy_tuples / lossy_s : 0.0, "1/s"},
      {"engine_tps_clean", clean_s > 0.0 ? clean_tuples / clean_s : 0.0, "1/s"},
      {"result_completeness", completeness, "ratio"},
      {"plan_cost", plan_cost, "cost/s"},
  };
  return out;
}

}  // namespace perfbench
