// Checkpoint/recovery microbenchmark: snapshot overhead and recovery
// latency as a function of the checkpoint interval.
//
// The harness builds the dual-relay star world (three sources, a 3-way
// join on the cheap primary relay, a dedicated sink) and sweeps the
// checkpoint interval through engine::run_recovery. Each sweep point
// reports the committed-epoch count, total and peak snapshot bytes, mean
// and peak barrier-alignment latency, the rollback recovery latency, the
// retained-buffer high-water mark and the three sub-run delivery counts
// (fault-free twin, checkpointed faulted run, volatile no-snapshot run).
// Results land in BENCH_recovery.json (machine-readable, uploaded by the
// CI perf-smoke job alongside BENCH_health.json and friends).
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/check.h"
#include "engine/chaos.h"
#include "workload/generator.h"

namespace {

using namespace iflow;

constexpr std::uint64_t kSeed = 20070806;
constexpr int kMaxCs = 8;
constexpr double kRate = 30.0;
constexpr double kSelectivity = 0.05;

struct IntervalRow {
  double interval_s = 0.0;
  std::int64_t epochs_committed = 0;
  double snapshot_bytes_total = 0.0;
  double snapshot_bytes_max = 0.0;
  double barrier_latency_mean_s = 0.0;
  double barrier_latency_max_s = 0.0;
  double recovery_latency_s = 0.0;
  std::size_t retained_high_water = 0;
  std::size_t seen_high_water = 0;
  std::uint64_t twin_delivered = 0;
  std::uint64_t faulted_delivered = 0;
  std::uint64_t volatile_delivered = 0;
  std::uint64_t faulted_lost = 0;
  bool counts_match = false;
  bool contract_ok = false;
};

void write_json(const std::string& path, const std::vector<IntervalRow>& rows,
                const engine::RecoveryConfig& cfg) {
  std::ofstream out(path);
  out << "{\n";
  out << "  \"world\": {\"shape\": \"dual-relay-star\", \"sources\": 3"
      << ", \"rate_tps\": " << kRate << ", \"selectivity\": " << kSelectivity
      << ", \"max_cs\": " << kMaxCs
      << ", \"duration_s\": " << engine::kRecoveryDurationS
      << ", \"drain_s\": " << engine::kRecoveryDrainS << ", \"crash_at_s\": "
      << cfg.crash_at_s << ", \"crash_len_s\": " << cfg.crash_len_s
      << ", \"replicas\": " << engine::kSnapshotReplicas << "},\n";
  out << "  \"sweep\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const IntervalRow& r = rows[i];
    out << "    {\"interval_s\": " << r.interval_s
        << ", \"epochs_committed\": " << r.epochs_committed
        << ", \"snapshot_bytes_total\": " << r.snapshot_bytes_total
        << ", \"snapshot_bytes_max\": " << r.snapshot_bytes_max
        << ", \"barrier_latency_mean_s\": " << r.barrier_latency_mean_s
        << ", \"barrier_latency_max_s\": " << r.barrier_latency_max_s
        << ", \"recovery_latency_s\": " << r.recovery_latency_s
        << ", \"retained_high_water\": " << r.retained_high_water
        << ", \"seen_high_water\": " << r.seen_high_water
        << ", \"twin_delivered\": " << r.twin_delivered
        << ", \"faulted_delivered\": " << r.faulted_delivered
        << ", \"volatile_delivered\": " << r.volatile_delivered
        << ", \"faulted_lost\": " << r.faulted_lost
        << ", \"counts_match\": " << (r.counts_match ? "true" : "false")
        << ", \"contract_ok\": " << (r.contract_ok ? "true" : "false") << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
}

}  // namespace

int main() {
  const workload::RelayStar w =
      workload::make_relay_star(kRate, kSelectivity);
  const std::vector<double> intervals = {2.0, 4.0, 8.0, 16.0};
  engine::RecoveryConfig cfg;  // default crash/migration schedule
  std::vector<IntervalRow> rows;
  for (const double iv : intervals) {
    engine::RecoveryConfig c = cfg;
    c.checkpoint_interval_s = iv;
    const engine::RecoveryReport rep =
        engine::run_recovery(w.net, w.catalog, {w.query}, kMaxCs,
                             engine::Algorithm::kTopDown, kSeed, c);
    IntervalRow r;
    r.interval_s = iv;
    r.epochs_committed = rep.epochs_committed;
    r.snapshot_bytes_total = rep.snapshot_bytes_total;
    r.snapshot_bytes_max = rep.snapshot_bytes_max;
    r.barrier_latency_mean_s = rep.barrier_latency_mean_s;
    r.barrier_latency_max_s = rep.barrier_latency_max_s;
    r.recovery_latency_s = rep.recovery_latency_s;
    r.retained_high_water = rep.retained_high_water;
    r.seen_high_water = rep.seen_high_water;
    r.twin_delivered = rep.twin_delivered;
    r.faulted_delivered = rep.faulted_delivered;
    r.volatile_delivered = rep.volatile_delivered;
    r.faulted_lost = rep.faulted_lost;
    r.counts_match = rep.counts_match;
    r.contract_ok = rep.contract_ok;
    rows.push_back(r);
    std::cout << "interval " << iv << "s: epochs " << r.epochs_committed
              << ", snapshot bytes total/max " << r.snapshot_bytes_total << "/"
              << r.snapshot_bytes_max << ", barrier latency mean/max "
              << r.barrier_latency_mean_s << "/" << r.barrier_latency_max_s
              << "s, recovery latency " << r.recovery_latency_s
              << "s, twin/faulted/volatile " << r.twin_delivered << "/"
              << r.faulted_delivered << "/" << r.volatile_delivered
              << (r.contract_ok ? " [contract ok]" : "") << "\n";
  }
  write_json("BENCH_recovery.json", rows, cfg);
  std::cout << "wrote BENCH_recovery.json\n";
  return 0;
}
