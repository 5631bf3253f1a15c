#include "bench.h"

#include <cstdio>
#include <cstring>

#include "heap.h"
#include "stats.h"

namespace perfbench {

namespace {

/// Per-layer times: the median self time of one call, over the traced
/// episodes' spans of that name.
struct LayerTime {
  const char* metric;
  const char* span;
};

const LayerTime kLayerTimes[] = {
    {"net.build_ms", "net.build"},
    {"net.sync_ms", "net.sync"},
    {"cluster.build_ms", "cluster.build"},
    {"cluster.refresh_ms", "cluster.refresh"},
    {"opt.optimize_ms", "opt.optimize"},
    {"opt.oracle_build_ms", "opt.oracle_build"},
    {"opt.oracle_refresh_ms", "opt.oracle_refresh"},
    {"mw.init_ms", "mw.init"},
    {"mw.deploy_ms", "mw.deploy"},
    {"mw.undeploy_ms", "mw.undeploy"},
    {"mw.settle_ms", "mw.settle"},
    {"mw.fault_ms.crash_node", "mw.crash_node"},
    {"mw.fault_ms.fail_node", "mw.fail_node"},
    {"mw.fault_ms.fail_link", "mw.fail_link"},
    {"mw.fault_ms.restore_node", "mw.restore_node"},
    {"mw.fault_ms.restore_link", "mw.restore_link"},
    {"engine.deploy_ms", "engine.deploy"},
    {"engine.run_ms.lossy", "engine.run.lossy"},
    {"engine.run_ms.clean", "engine.run.clean"},
};

const char* phase_name(Run::Phase p) {
  switch (p) {
    case Run::Phase::kSetup:
      return "setup";
    case Run::Phase::kMeasure:
      return "measure";
    case Run::Phase::kCheck:
      return "check";
  }
  return "?";
}

}  // namespace

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},      {"peak_heap_mb", "MB"}, {"work_per_s", "1/s"},
      {"plan_p50_ms", "ms"}, {"plan_cost_ratio", "ratio"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"net.build_ms", "ms"},
      {"net.sync_ms", "ms"},
      {"net.rows_dropped", "count"},
      {"net.rows_retained", "count"},
      {"net.full_rebuilds", "count"},
      {"net.cached_rows", "count"},
      {"net.peak_mem_mb", "MB"},
      {"cluster.build_ms", "ms"},
      {"cluster.refresh_ms", "ms"},
      {"opt.optimize_ms", "ms"},
      {"opt.plans_considered", "count"},
      {"opt.oracle_build_ms", "ms"},
      {"opt.oracle_refresh_ms", "ms"},
      {"opt.oracle_mem_mb", "MB"},
      {"advert.registry_size", "count"},
      {"advert.reuse_hits", "count"},
      {"admission.admitted", "count"},
      {"admission.degraded", "count"},
      {"admission.rejected", "count"},
      {"mw.init_ms", "ms"},
      {"mw.deploy_ms", "ms"},
      {"mw.undeploy_ms", "ms"},
      {"mw.settle_ms", "ms"},
      {"mw.fault_ms.crash_node", "ms"},
      {"mw.fault_ms.fail_node", "ms"},
      {"mw.fault_ms.fail_link", "ms"},
      {"mw.fault_ms.restore_node", "ms"},
      {"mw.fault_ms.restore_link", "ms"},
      {"mw.settle_replanned", "count"},
      {"mw.settle_moved", "count"},
      {"mw.redeploy.migrated", "count"},
      {"mw.redeploy.suspended", "count"},
      {"mw.redeploy.resumed", "count"},
      {"mw.redeploy.accepted", "count"},
      {"mw.resume_failures", "count"},
      {"engine.deploy_ms", "ms"},
      {"engine.run_ms.lossy", "ms"},
      {"engine.run_ms.clean", "ms"},
      {"engine.tuples_emitted", "count"},
      {"engine.op_in.join", "count"},
      {"engine.op_in.sink", "count"},
      {"engine.sent", "count"},
      {"engine.retransmits", "count"},
      {"engine.acks", "count"},
      {"engine.duplicates", "count"},
      {"engine.lost", "count"},
      {"engine.shed", "count"},
      {"engine.epochs", "count"},
      {"engine.snapshot_mb", "MB"},
      {"engine.replayed", "count"},
      {"engine.retained_high_water", "count"},
      {"engine.seen_high_water", "count"},
      {"engine.data_mb", "MB"},
      {"engine.retransmit_mb", "MB"},
      {"engine.completeness", "ratio"},
      {"trace.coverage", "ratio"},
      {"trace.overhead_ms", "ms"},
      {"trace.spans", "count"},
  };
  return specs;
}

void Outcome::record_outputs(int instance, const std::string& tape) {
  const std::uint64_t h = fnv1a(tape);
  const auto [it, fresh] = instance_digests.emplace(instance, h);
  if (!fresh && it->second != h) {
    fail("outputs of instance " + std::to_string(instance) +
         " differ from the first round's");
  }
}

std::uint64_t Outcome::digest() const {
  std::string tape;
  for (const auto& [instance, h] : instance_digests) {
    tape += std::to_string(h) + '\n';
  }
  return fnv1a(tape);
}

void Run::end_episode() {
  if (episode_ == 0) return;
  const std::size_t peak = heap_peak_bytes();
  heap_mb_.push_back(
      static_cast<double>(peak > heap_base_ ? peak - heap_base_ : 0) /
      (1024.0 * 1024.0));
}

bool Run::next_episode(int instances) {
  end_episode();
  if (instance_ + 1 < instances && round_ >= 0) {
    ++instance_;
  } else {
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start_).count();
    const bool need_pair = opts_.trace && round_ < 1;
    if (round_ >= 0 && elapsed >= opts_.seconds && !need_pair) {
      tracer_.set_enabled(false);
      return false;
    }
    ++round_;
    instance_ = 0;
    const bool traced = opts_.trace && round_ % 2 == 1;
    tracer_.set_enabled(traced);
    measure_s_.push_back(0.0);
    traced_.push_back(traced ? 1 : 0);
  }
  tracer_.set_run(episode_);
  setup_s_.push_back(0.0);
  ++episode_;
  return true;
}

Run::PhaseScope::PhaseScope(Run& run, Phase phase)
    : run_(run),
      phase_(phase),
      start_(Clock::now()),
      span_(run.tracer_.open(phase_name(phase))) {
  if (phase == Phase::kSetup) {
    run.heap_base_ = heap_live_bytes();
    reset_heap_peak();
  }
}

Run::PhaseScope::~PhaseScope() {
  run_.tracer_.close(span_);
  const double s =
      std::chrono::duration<double>(Clock::now() - start_).count();
  if (phase_ == Phase::kSetup) run_.setup_s_.back() += s;
  if (phase_ == Phase::kMeasure) run_.measure_s_.back() += s;
}

std::vector<Metric> Run::metrics(const Outcome& out) const {
  if (opts_.trace) return layer_metrics();
  const std::map<std::string, double> values = {
      {"setup_s", median(setup_s_)},
      // The mean, not the median: a peak does not depend on timing, so
      // there are no outliers to shed, and the mean averages every world.
      {"peak_heap_mb", mean(heap_mb_)},
      {"work_per_s", out.work_per_s},
      {"plan_p50_ms", percentile(out.plan_ms, 0.5)},
      {"plan_cost_ratio", out.plan_cost_ratio},
  };
  std::vector<Metric> m;
  for (const MetricSpec& s : end_to_end_metrics()) {
    m.push_back({s.name, values.at(s.name), s.unit});
  }
  return m;
}

std::vector<Metric> Run::layer_metrics() const {
  std::map<std::string, double> values = counters_;
  const std::vector<Span>& spans = tracer_.spans();
  const std::vector<std::int64_t> self = self_times_ns(spans);
  for (const LayerTime& lt : kLayerTimes) {
    std::vector<double> ms;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (std::strcmp(spans[i].name, lt.span) == 0) {
        ms.push_back(static_cast<double>(self[i]) * 1e-6);
      }
    }
    values[lt.metric] = median(ms);
  }

  // Share of the traced measured phases that layer calls cover.
  double measured_ns = 0.0, covered_ns = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::strcmp(spans[i].name, "measure") != 0) continue;
    const double dur = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    measured_ns += dur;
    covered_ns += dur - static_cast<double>(self[i]);
  }
  values["trace.coverage"] = measured_ns > 0.0 ? covered_ns / measured_ns : 0.0;

  std::vector<double> traced_s, plain_s;
  for (std::size_t r = 0; r < measure_s_.size(); ++r) {
    (traced_[r] != 0 ? traced_s : plain_s).push_back(measure_s_[r]);
  }
  values["trace.overhead_ms"] = (median(traced_s) - median(plain_s)) * 1e3;
  values["trace.spans"] = static_cast<double>(spans.size());

  std::vector<Metric> m;
  for (const MetricSpec& s : per_layer_metrics()) {
    const auto it = values.find(s.name);
    m.push_back({s.name, it == values.end() ? 0.0 : it->second, s.unit});
  }
  return m;
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const std::vector<Metric>& m) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < m.size(); ++i) {
    char value[32];
    std::snprintf(value, sizeof value, "%.17g", m[i].value);
    json += (i > 0 ? ", \"" : "\"") + m[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m[i].unit + "\"}";
  }
  return json + "}}";
}

}  // namespace perfbench
