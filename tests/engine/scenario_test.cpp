// Conformance suite for the scenario generator (DESIGN.md §12).
//
// Every named scenario of the catalogue must (a) build deterministically,
// (b) satisfy its declared structure (deep chains really are 8-way, geo
// clustering really concentrates sources, shared-source families really
// share the hot pair), (c) replay through the chaos harness with zero
// validator violations, full resumption, convergence and an intact
// delivery contract, and (d) keep its digest bitwise-identical across
// planner thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "engine/chaos.h"
#include "net/gtitm.h"
#include "workload/scenario.h"

namespace iflow::engine {
namespace {

using workload::RateCurve;
using workload::Scenario;
using workload::ScenarioSpec;
using workload::build_scenario;
using workload::scenario_names;
using workload::scenario_spec;

constexpr int kMaxCs = 8;

ChaosReport run_scenario(const Scenario& s, Algorithm alg, int threads = 1) {
  ChaosConfig cfg;
  cfg.events = 24;
  cfg.threads = threads;
  cfg.delivery_check = true;
  cfg.rate_modulation = s.rate_modulation();
  return run_churn(s.net, s.workload.catalog, s.workload.queries, kMaxCs, alg,
                   s.spec.seed, cfg, s.script);
}

TEST(ScenarioTest, CatalogueHasAtLeastEightScenarios) {
  EXPECT_GE(scenario_names().size(), 8u);
  for (const std::string& name : scenario_names()) {
    const ScenarioSpec spec = scenario_spec(name);
    EXPECT_EQ(spec.name, name);
    const Scenario s = build_scenario(spec);
    EXPECT_GT(s.net.node_count(), 0u);
    EXPECT_FALSE(s.workload.queries.empty()) << name;
  }
}

TEST(ScenarioTest, UnknownNameThrows) {
  EXPECT_THROW(scenario_spec("no-such-scenario"), CheckError);
}

TEST(ScenarioTest, BuildIsDeterministic) {
  for (const char* name :
       {"baseline-uniform", "geo-clustered", "cluster-outage"}) {
    const Scenario a = build_scenario(scenario_spec(name));
    const Scenario b = build_scenario(scenario_spec(name));
    ASSERT_EQ(a.workload.catalog.stream_count(),
              b.workload.catalog.stream_count());
    for (std::size_t s = 0; s < a.workload.catalog.stream_count(); ++s) {
      const auto sid = static_cast<query::StreamId>(s);
      EXPECT_EQ(a.workload.catalog.stream(sid).source,
                b.workload.catalog.stream(sid).source);
      EXPECT_EQ(a.workload.catalog.stream(sid).tuple_rate,
                b.workload.catalog.stream(sid).tuple_rate);
    }
    ASSERT_EQ(a.workload.queries.size(), b.workload.queries.size());
    for (std::size_t q = 0; q < a.workload.queries.size(); ++q) {
      EXPECT_EQ(a.workload.queries[q].sources, b.workload.queries[q].sources);
      EXPECT_EQ(a.workload.queries[q].sink, b.workload.queries[q].sink);
    }
    ASSERT_EQ(a.script.size(), b.script.size());
    for (std::size_t e = 0; e < a.script.size(); ++e) {
      EXPECT_EQ(a.script[e].kind, b.script[e].kind);
      EXPECT_EQ(a.script[e].a, b.script[e].a);
      EXPECT_EQ(a.script[e].b, b.script[e].b);
      EXPECT_EQ(a.script[e].rate, b.script[e].rate);
    }
  }
}

TEST(ScenarioTest, RateCurveShapes) {
  RateCurve constant;
  EXPECT_EQ(constant.factor_at(0.0), 1.0);
  EXPECT_EQ(constant.factor_at(100.0), 1.0);

  RateCurve diurnal;
  diurnal.shape = RateCurve::Shape::kDiurnal;
  diurnal.period_s = 40.0;
  diurnal.amplitude = 0.5;
  double lo = 10.0, hi = -10.0;
  for (double t = 0.0; t < 40.0; t += 0.5) {
    const double f = diurnal.factor_at(t);
    lo = std::min(lo, f);
    hi = std::max(hi, f);
  }
  EXPECT_NEAR(lo, 0.5, 0.01);
  EXPECT_NEAR(hi, 1.5, 0.01);
  // Periodic: one full cycle returns to the start.
  EXPECT_NEAR(diurnal.factor_at(3.0), diurnal.factor_at(43.0), 1e-12);

  RateCurve burst;
  burst.shape = RateCurve::Shape::kFlashCrowd;
  burst.burst_start_s = 5.0;
  burst.burst_duration_s = 10.0;
  burst.burst_factor = 4.0;
  EXPECT_EQ(burst.factor_at(4.9), 1.0);
  EXPECT_EQ(burst.factor_at(5.0), 4.0);
  EXPECT_EQ(burst.factor_at(14.9), 4.0);
  EXPECT_EQ(burst.factor_at(15.0), 1.0);
}

TEST(ScenarioTest, RateModulationIsPureAndCoversAllStreams) {
  const Scenario s = build_scenario(scenario_spec("diurnal-rates"));
  ASSERT_EQ(s.rate_curves.size(), s.workload.catalog.stream_count());
  const auto f = s.rate_modulation();
  ASSERT_TRUE(static_cast<bool>(f));
  for (std::size_t sid = 0; sid < s.rate_curves.size(); ++sid) {
    const auto id = static_cast<query::StreamId>(sid);
    EXPECT_EQ(f(id, 7.25), f(id, 7.25));  // pure: same input, same output
    EXPECT_GT(f(id, 7.25), 0.0);
  }
  // Constant scenarios have no modulation at all.
  EXPECT_FALSE(static_cast<bool>(
      build_scenario(scenario_spec("baseline-uniform")).rate_modulation()));
}

TEST(ScenarioTest, DeepChainsAreEightWay) {
  const Scenario s = build_scenario(scenario_spec("deep-chains"));
  for (const query::Query& q : s.workload.queries) {
    EXPECT_EQ(q.k(), 8) << q.name;
  }
}

TEST(ScenarioTest, GeoClusteringConcentratesSourcesAwayFromSinks) {
  const ScenarioSpec spec = scenario_spec("geo-clustered");
  const Scenario s = build_scenario(spec);
  // Map each node to its stub domain (or -1 for transit).
  std::vector<int> domain_of(s.net.node_count(), -1);
  for (int d = 0; d < net::stub_domain_count(spec.topology); ++d) {
    for (net::NodeId n : net::stub_domain_members(spec.topology, d)) {
      domain_of[n] = d;
    }
  }
  std::set<int> source_domains, sink_domains;
  for (std::size_t sid = 0; sid < s.workload.catalog.stream_count(); ++sid) {
    source_domains.insert(
        domain_of[s.workload.catalog.stream(static_cast<query::StreamId>(sid))
                      .source]);
  }
  for (const query::Query& q : s.workload.queries) {
    sink_domains.insert(domain_of[q.sink]);
  }
  EXPECT_LE(static_cast<int>(source_domains.size()), spec.clusters);
  for (const int d : sink_domains) {
    EXPECT_EQ(source_domains.count(d), 0u) << "sink landed in a source domain";
  }
}

TEST(ScenarioTest, SharedSourcesShareAHotPairAndASink) {
  const Scenario s = build_scenario(scenario_spec("shared-sources"));
  ASSERT_GE(s.workload.queries.size(), 2u);
  // The hot pair is whatever the first query starts with that every other
  // query also contains.
  std::vector<query::StreamId> common = s.workload.queries[0].sources;
  for (const query::Query& q : s.workload.queries) {
    std::vector<query::StreamId> next;
    std::set_intersection(common.begin(), common.end(), q.sources.begin(),
                          q.sources.end(), std::back_inserter(next));
    common = std::move(next);
  }
  EXPECT_GE(common.size(), 2u) << "no shared hot pair";
  std::set<net::NodeId> sinks;
  for (std::size_t i = 0; i < s.workload.queries.size() / 2; ++i) {
    sinks.insert(s.workload.queries[i].sink);
  }
  EXPECT_EQ(sinks.size(), 1u) << "family does not share a sink";
}

TEST(ScenarioTest, UnionFanInSharesSinksAcrossBranches) {
  const Scenario s = build_scenario(scenario_spec("union-fanin"));
  // SQL-compiled branch families: at least one sink receives >= 2 queries.
  std::set<net::NodeId> sinks;
  std::size_t max_fan_in = 0;
  for (const query::Query& q : s.workload.queries) sinks.insert(q.sink);
  for (const net::NodeId sink : sinks) {
    std::size_t fan = 0;
    for (const query::Query& q : s.workload.queries) {
      if (q.sink == sink) ++fan;
    }
    max_fan_in = std::max(max_fan_in, fan);
  }
  EXPECT_GE(max_fan_in, 2u);
  // Query ids stay dense and unique (the middleware keys on them).
  std::set<query::QueryId> ids;
  for (const query::Query& q : s.workload.queries) ids.insert(q.id);
  EXPECT_EQ(ids.size(), s.workload.queries.size());
}

TEST(ScenarioTest, FailureScriptsOnlyInScriptedScenarios) {
  EXPECT_TRUE(build_scenario(scenario_spec("baseline-uniform")).script.empty());
  EXPECT_FALSE(build_scenario(scenario_spec("cluster-outage")).script.empty());
  EXPECT_FALSE(build_scenario(scenario_spec("flapping-region")).script.empty());
  EXPECT_FALSE(build_scenario(scenario_spec("loss-storm")).script.empty());
  // Rate-curve scenarios carry planner-visible rate samples.
  EXPECT_FALSE(build_scenario(scenario_spec("diurnal-rates")).script.empty());
}

TEST(ScenarioTest, EveryScenarioHoldsTheChaosAndDeliveryContracts) {
  for (const std::string& name : scenario_names()) {
    const Scenario s = build_scenario(scenario_spec(name));
    const ChaosReport r = run_scenario(s, Algorithm::kTopDown);
    EXPECT_EQ(r.violations, 0u) << name << ": " << r.violation_detail;
    EXPECT_TRUE(r.all_resumed) << name;
    EXPECT_TRUE(r.converged) << name << " final " << r.final_cost << " fresh "
                             << r.fresh_cost;
    EXPECT_TRUE(r.delivery_checked) << name;
    EXPECT_TRUE(r.delivery_ok) << name;
    EXPECT_GT(r.deploy_time_ms, 0.0) << name;
  }
}

TEST(ScenarioTest, DigestsAreStableAcrossPlannerThreadCounts) {
  // The PR-2 determinism contract extended to scenarios: scripted replay at
  // 1 and 4 planner threads must produce bitwise-identical transcripts.
  for (const char* name :
       {"baseline-uniform", "diurnal-rates", "cluster-outage", "loss-storm"}) {
    const Scenario s = build_scenario(scenario_spec(name));
    const ChaosReport one = run_scenario(s, Algorithm::kTopDown, 1);
    const ChaosReport four = run_scenario(s, Algorithm::kTopDown, 4);
    EXPECT_EQ(one.digest, four.digest) << name;
  }
}

}  // namespace
}  // namespace iflow::engine
