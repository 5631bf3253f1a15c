// Tests of the benchmark's own code: the percentile rule, self-time
// computation, the result line, the per-episode heap peak, and a tiny-size
// smoke of every workload.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "bench.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(SupportedTailTest, PicksHighestPercentileWithTenSamplesBeyond) {
  const std::vector<std::pair<std::size_t, double>> cases = {
      {5, 0.0},     {19, 0.0},   {20, 50.0},   {39, 50.0},  {40, 75.0},
      {99, 75.0},   {100, 90.0}, {199, 90.0},  {200, 95.0}, {999, 95.0},
      {1000, 99.0}, {9999, 99.0}, {10000, 99.9},
  };
  for (const auto& [n, level] : cases) {
    EXPECT_EQ(supported_tail(one_to(n)).level, level) << "n = " << n;
  }
}

TEST(SupportedTailTest, ValueIsTheInterpolatedPercentile) {
  const Tail t = supported_tail(one_to(100));
  EXPECT_EQ(t.n, 100u);
  EXPECT_DOUBLE_EQ(t.value, 90.1);
  EXPECT_EQ(t.label(), "p90");
  EXPECT_EQ(supported_tail(one_to(10000)).label(), "p99.9");
  // Too few samples for any tail: the median stands in.
  EXPECT_DOUBLE_EQ(supported_tail(one_to(5)).value, 3.0);
}

TEST(PercentileTest, InterpolatesAndHandlesEmpty) {
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 6.0}), 3.0);
}

TEST(SelfTimeTest, SubtractsTheUnionOfChildIntervals) {
  std::vector<Span> spans(5);
  spans[0] = {"parent", 0, 100, -1, 0};
  spans[1] = {"a", 10, 30, 0, 0};
  spans[2] = {"b", 20, 50, 0, 0};   // overlaps a: [10, 50) counts once
  spans[3] = {"c", 60, 70, 0, 0};
  spans[4] = {"d", 90, 120, 0, 0};  // clipped to the parent's end
  const std::vector<std::int64_t> self = self_times_ns(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10 - 10);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[4], 30);
}

TEST(SelfTimeTest, NestedSpansOnlyChargeDirectChildren) {
  std::vector<Span> spans(3);
  spans[0] = {"root", 0, 100, -1, 0};
  spans[1] = {"child", 0, 80, 0, 0};
  spans[2] = {"grandchild", 0, 80, 1, 0};
  const std::vector<std::int64_t> self = self_times_ns(spans);
  EXPECT_EQ(self[0], 20);
  EXPECT_EQ(self[1], 0);
  EXPECT_EQ(self[2], 80);
}

TEST(TracerTest, RecordsParentsAndRunIdsOnlyWhileEnabled) {
  Tracer t;
  const auto now = Tracer::Clock::now();
  t.record("ignored", now, now);
  EXPECT_EQ(t.open("ignored"), -1);
  t.set_enabled(true);
  t.set_run(3);
  const int outer = t.open("outer");
  t.record("leaf", now, Tracer::Clock::now());
  t.close(outer);
  t.record("top", now, now);
  ASSERT_EQ(t.spans().size(), 3u);
  EXPECT_EQ(t.spans()[1].parent, outer);
  EXPECT_EQ(t.spans()[1].run, 3);
  EXPECT_EQ(t.spans()[2].parent, -1);
  EXPECT_GE(t.spans()[0].end_ns, t.spans()[0].start_ns);
}

TEST(ResultLineTest, CarriesEveryMetricWithItsUnit) {
  const std::string line = result_json(
      true, 7, 0, {{"setup_s", 0.5, "s"}, {"work_per_s", 12.25, "1/s"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, "
            "\"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, "
            "\"work_per_s\": {\"value\": 12.25, \"unit\": \"1/s\"}}}");
}

TEST(OutcomeTest, AnInstanceHashingDifferentlyInALaterRoundFails) {
  Outcome out;
  out.record_outputs(0, "q1 12\n");
  out.record_outputs(1, "q2 7\n");
  const std::uint64_t digest = out.digest();
  out.record_outputs(0, "q1 12\n");
  EXPECT_EQ(out.failed, 0u);
  EXPECT_EQ(out.digest(), digest);
  out.record_outputs(1, "q2 8\n");
  EXPECT_EQ(out.failed, 1u);
}

/// Runs one tiny episode (two when traced) of a workload.
Outcome smoke(const std::string& workload, bool trace,
              std::vector<Metric>* metrics) {
  Options opts;
  opts.seed = 5;
  opts.seconds = 0.0;
  opts.trace = trace;
  opts.tiny = true;
  Run run(opts);
  Outcome out;
  EXPECT_TRUE(run_workload(workload, run, &out));
  *metrics = run.metrics(out);
  return out;
}

void expect_catalog(const std::vector<Metric>& got,
                    const std::vector<MetricSpec>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].name, want[i].name);
    EXPECT_EQ(got[i].unit, want[i].unit);
    EXPECT_TRUE(std::isfinite(got[i].value)) << got[i].name;
  }
}

double value_of(const std::vector<Metric>& m, const std::string& name) {
  for (const Metric& x : m) {
    if (x.name == name) return x.value;
  }
  ADD_FAILURE() << "missing metric " << name;
  return 0.0;
}

TEST(HeapPeakTest, AnEpisodeReportsTheHeapItHeldDuringSetUp) {
  Options opts;
  opts.seconds = 0.0;
  // The fixture has a Run() of its own.
  perfbench::Run run(opts);
  while (run.next_episode(2)) {
    const auto phase = run.phase(perfbench::Run::Phase::kSetup);
    // 8 MiB in round one's first episode, 4 MiB in its second.
    std::vector<char> block((run.instance() == 0 ? 8 : 4) << 20, 1);
    EXPECT_EQ(block.back(), 1);
  }
  const double mb = value_of(run.metrics(Outcome{}), "peak_heap_mb");
  EXPECT_GE(mb, 6.0);
  EXPECT_LT(mb, 6.5);
}

class WorkloadSmokeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadSmokeTest, UntracedRunReportsEveryEndToEndMetricAndPasses) {
  std::vector<Metric> m;
  const Outcome out = smoke(GetParam(), false, &m);
  EXPECT_GT(out.attempted, 0u);
  EXPECT_EQ(out.failed, 0u) << (out.problems.empty() ? "" : out.problems[0]);
  EXPECT_NE(out.digest(), 0u);
  expect_catalog(m, end_to_end_metrics());
  for (const Metric& x : m) EXPECT_GT(x.value, 0.0) << x.name;
}

TEST_P(WorkloadSmokeTest, TracedRunReportsEveryLayerMetric) {
  std::vector<Metric> m;
  const Outcome out = smoke(GetParam(), true, &m);
  EXPECT_EQ(out.failed, 0u);
  expect_catalog(m, per_layer_metrics());
  EXPECT_GE(value_of(m, "trace.coverage"), 0.95);
  EXPECT_GT(value_of(m, "trace.spans"), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadSmokeTest,
                         ::testing::Values("stream-lossy", "control-churn",
                                           "scale-sparse"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(WorkloadLayersTest, EachWorkloadDrivesTheLayersItIsNamedFor) {
  const std::vector<std::pair<std::string, std::vector<std::string>>> layers =
      {
          {"stream-lossy",
           {"engine.run_ms.lossy", "engine.run_ms.clean", "engine.sent",
            "engine.tuples_emitted", "engine.completeness", "mw.deploy_ms"}},
          {"control-churn",
           {"mw.deploy_ms", "mw.undeploy_ms", "mw.settle_ms",
            "admission.admitted", "advert.registry_size", "mw.init_ms"}},
          {"scale-sparse",
           {"net.build_ms", "net.sync_ms", "cluster.build_ms",
            "cluster.refresh_ms", "opt.optimize_ms", "opt.plans_considered",
            "opt.oracle_refresh_ms", "net.cached_rows"}},
      };
  for (const auto& [workload, names] : layers) {
    std::vector<Metric> m;
    smoke(workload, true, &m);
    for (const std::string& name : names) {
      EXPECT_GT(value_of(m, name), 0.0) << workload << ": " << name;
    }
  }
}

}  // namespace
}  // namespace perfbench
