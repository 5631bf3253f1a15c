// The benchmark run: episode loop, phase clocks, layer-call timing and the
// metric catalog shared by the three workloads.
//
// A run repeats *rounds* until the requested seconds of wall time have
// passed; the round in progress is finished. A round is one episode per
// instance, where an instance is one input drawn from (seed, instance
// index); several instances per round keep the figures of a run from
// hanging on one random draw. An episode is set-up (inputs generated, the
// system built), a measured phase (the closed loop: one caller, each call
// waits for the previous one) and a check phase (outputs validated; not
// part of the measured time). Every round does the same work, so the
// per-layer counters of the first round repeat exactly and later rounds
// are repeated measurements. In a traced run the odd rounds are traced and
// the even ones are not; the difference between the two is the tracing
// overhead.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "trace.h"

namespace perfbench {

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke-test sizes: small worlds, one short episode.
  bool tiny = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics every workload reports on an untraced run.
const std::vector<MetricSpec>& end_to_end_metrics();

/// Per-layer metrics every workload reports on a traced run (0 where the
/// workload does not exercise the layer).
const std::vector<MetricSpec>& per_layer_metrics();

/// What a workload hands back besides the timings the Run keeps itself.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  // first few failed checks, for stderr
  /// FNV-1a of each instance's deterministic outputs (see record_outputs).
  std::map<int, std::uint64_t> instance_digests;
  double work_per_s = 0.0;
  std::vector<double> plan_ms;  // every planning call, for the percentiles
  /// Mean over the live queries of actual plan cost divided by
  /// ship_to_sink_cost(): plan quality, steadier across seeds than a total.
  double plan_cost_ratio = 0.0;
  /// Workload-specific figures printed by name for people, never gated.
  std::vector<Metric> extras;

  void fail(const std::string& why) {
    ++failed;
    if (problems.size() < 5) problems.push_back(why);
  }

  /// Hashes one episode's deterministic outputs (a text tape of delivered
  /// counts, hexfloat costs). Every round must hash an instance the same.
  void record_outputs(int instance, const std::string& tape);

  /// One digest over every instance's outputs, for comparing commits.
  std::uint64_t digest() const;
};

class Run {
 public:
  using Clock = Tracer::Clock;
  enum class Phase { kSetup, kMeasure, kCheck };

  explicit Run(const Options& opts) : opts_(opts), start_(Clock::now()) {}

  const Options& opts() const { return opts_; }
  Tracer& tracer() { return tracer_; }

  /// Starts the next episode of a round of `instances` episodes; false
  /// once a round ended and opts().seconds of wall time have passed since
  /// the run started (a traced run also needs one traced and one untraced
  /// round).
  bool next_episode(int instances);
  int episodes() const { return episode_; }
  /// Index of the current episode's input within the round.
  int instance() const { return instance_; }
  /// True during the first round, whose counters are reported.
  bool first_round() const { return round_ == 0; }

  /// Times one phase of the current episode; phases may repeat.
  class PhaseScope {
   public:
    PhaseScope(Run& run, Phase phase);
    ~PhaseScope();
    PhaseScope(const PhaseScope&) = delete;
    PhaseScope& operator=(const PhaseScope&) = delete;

   private:
    Run& run_;
    Phase phase_;
    Clock::time_point start_;
    int span_;
  };
  PhaseScope phase(Phase p) { return PhaseScope(*this, p); }

  /// Runs f() as one call into a layer: times it (last_ms()) and, when
  /// tracing, records it as a span named `span` (a string literal).
  template <typename F>
  decltype(auto) call(const char* span, F&& f) {
    const Clock::time_point t0 = Clock::now();
    if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
      std::forward<F>(f)();
      stop(span, t0);
    } else {
      auto result = std::forward<F>(f)();
      stop(span, t0);
      return result;
    }
  }
  double last_ms() const { return last_ms_; }

  /// Layer counters, totals (add) or high-water marks (peak) over the
  /// first round; reported on traced runs. Later rounds are ignored.
  void set(const std::string& name, double v) {
    if (first_round()) counters_[name] = v;
  }
  void add(const std::string& name, double v) {
    if (first_round()) counters_[name] += v;
  }
  void peak(const std::string& name, double v) {
    if (first_round()) counters_[name] = std::max(counters_[name], v);
  }

  /// The end-to-end metrics (untraced run) or the per-layer metrics
  /// (traced run) in catalog order.
  std::vector<Metric> metrics(const Outcome& out) const;

 private:
  void stop(const char* span, Clock::time_point t0) {
    const Clock::time_point t1 = Clock::now();
    last_ms_ = std::chrono::duration<double, std::milli>(t1 - t0).count();
    tracer_.record(span, t0, t1);
  }
  std::vector<Metric> layer_metrics() const;
  void end_episode();

  Options opts_;
  Clock::time_point start_;
  Tracer tracer_;
  int episode_ = 0;
  int instance_ = -1;
  int round_ = -1;
  double last_ms_ = 0.0;
  std::vector<double> setup_s_;    // per episode
  std::vector<double> heap_mb_;    // per finished episode
  std::size_t heap_base_ = 0;      // live heap bytes when set-up began
  std::vector<double> measure_s_;  // per round
  std::vector<char> traced_;       // per round
  std::map<std::string, double> counters_;
};

/// The result line: {"correct", "attempted", "failed", "metrics"} with
/// every metric as {"value", "unit"}, values printed with all digits.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const std::vector<Metric>& m);

}  // namespace perfbench
