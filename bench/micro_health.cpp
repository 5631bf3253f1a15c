// Gray-failure detection microbenchmark: detection latency, goodput
// recovery and false-positive rate as a function of gray-failure intensity.
//
// The harness builds a dual-relay star world (every endpoint reaches a
// cheap primary relay and a slightly dearer backup, so the join lands on
// the primary and quarantine can take every data path off it), then sweeps
// the degradation intensity through engine::run_gray. Each sweep point
// reports the three sub-run goodputs (detector on, detector off, healthy
// twin), the first detection epoch, the recovery ratio and the
// healthy-twin quarantine count. Results land in BENCH_health.json
// (machine-readable, uploaded by the CI perf-smoke job alongside
// BENCH_reliability.json and friends).
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/check.h"
#include "engine/health.h"
#include "workload/generator.h"

namespace {

using namespace iflow;

constexpr std::uint64_t kSeed = 20070806;
constexpr int kMaxCs = 8;
constexpr double kRate = 30.0;
constexpr double kSelectivity = 0.05;

struct IntensityRow {
  double loss = 0.0;
  double slowdown = 0.0;
  int detection_epoch = -1;
  double goodput_on = 0.0;
  double goodput_off = 0.0;
  double goodput_healthy = 0.0;
  double recovery_ratio = 0.0;
  std::size_t false_positives = 0;
  std::size_t quarantined = 0;
  std::size_t violations = 0;
  bool contract_ok = false;
};

void write_json(const std::string& path, const std::vector<IntensityRow>& rows,
                const engine::GrayConfig& cfg) {
  std::ofstream out(path);
  out << "{\n";
  out << "  \"world\": {\"shape\": \"dual-relay-star\", \"sources\": 3"
      << ", \"rate_tps\": " << kRate << ", \"selectivity\": " << kSelectivity
      << ", \"max_cs\": " << kMaxCs << ", \"epochs\": " << cfg.epochs
      << ", \"epoch_s\": " << cfg.epoch_s << "},\n";
  out << "  \"sweep\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const IntensityRow& r = rows[i];
    out << "    {\"loss\": " << r.loss << ", \"slowdown\": " << r.slowdown
        << ", \"detection_epoch\": " << r.detection_epoch
        << ", \"goodput_on\": " << r.goodput_on
        << ", \"goodput_off\": " << r.goodput_off
        << ", \"goodput_healthy\": " << r.goodput_healthy
        << ", \"recovery_ratio\": " << r.recovery_ratio
        << ", \"false_positives\": " << r.false_positives
        << ", \"quarantined\": " << r.quarantined
        << ", \"violations\": " << r.violations
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
  const std::vector<double> intensities = {0.2, 0.4, 0.6, 0.8};
  engine::GrayConfig cfg;  // default epochs and epoch_s
  std::vector<IntensityRow> rows;
  for (const double loss : intensities) {
    engine::GrayConfig c = cfg;
    c.degradation.loss = loss;
    c.degradation.slowdown = 3.0;
    const engine::GrayReport rep =
        engine::run_gray(w.net, w.catalog, {w.query}, kMaxCs,
                         engine::Algorithm::kTopDown, kSeed, c);
    IntensityRow r;
    r.loss = loss;
    r.slowdown = c.degradation.slowdown;
    r.detection_epoch = rep.detection_epoch;
    r.goodput_on = rep.goodput_on;
    r.goodput_off = rep.goodput_off;
    r.goodput_healthy = rep.goodput_healthy;
    r.recovery_ratio = rep.recovery_ratio;
    r.false_positives = rep.false_positives;
    r.quarantined = rep.quarantined;
    r.violations = rep.violations;
    r.contract_ok = rep.contract_ok;
    rows.push_back(r);
    std::cout << "loss " << loss << ": detection_epoch " << r.detection_epoch
              << ", goodput on/off/healthy " << r.goodput_on << "/"
              << r.goodput_off << "/" << r.goodput_healthy << ", recovery "
              << r.recovery_ratio << ", false_positives " << r.false_positives
              << (r.contract_ok ? " [contract ok]" : "") << "\n";
  }
  write_json("BENCH_health.json", rows, cfg);
  std::cout << "wrote BENCH_health.json\n";
  return 0;
}
