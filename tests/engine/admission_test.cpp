// Admission control and resource-ledger tests (DESIGN.md §14): per-tenant
// quotas, node-capacity pricing, degraded admission, weighted max-min
// fairness, and the incremental ledger's consistency.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "engine/middleware.h"
#include "net/gtitm.h"
#include "workload/generator.h"

namespace iflow::engine {
namespace {

struct World {
  net::Network net;
  workload::Workload wl;

  explicit World(std::uint64_t seed, int queries = 4) {
    Prng prng(seed);
    net::TransitStubParams p;
    p.transit_count = 2;
    p.stub_domains_per_transit = 2;
    p.stub_domain_size = 4;
    net = net::make_transit_stub(p, prng);
    workload::WorkloadParams wp;
    wp.num_streams = 6;
    wp.min_joins = 2;
    wp.max_joins = 3;
    Prng wprng(seed + 1);
    wl = workload::make_workload(net, wp, queries, wprng);
  }
};

TEST(FairShareTest, WaterFillingDonatesSurplus) {
  std::map<std::uint32_t, double> demands{{1, 100.0}, {2, 10.0}};
  std::map<std::uint32_t, TenantQuota> quotas;
  // Equal weights over a budget of 60: tenant 2 is satisfied at 10, the
  // surplus flows to tenant 1.
  EXPECT_NEAR(fair_share(demands, quotas, 60.0, 2), 10.0, 1e-9);
  EXPECT_NEAR(fair_share(demands, quotas, 60.0, 1), 50.0, 1e-9);
}

TEST(FairShareTest, WeightsScaleEntitlements) {
  std::map<std::uint32_t, double> demands{{1, 100.0}, {2, 100.0}};
  std::map<std::uint32_t, TenantQuota> quotas;
  quotas[1].weight = 3.0;
  quotas[2].weight = 1.0;
  EXPECT_NEAR(fair_share(demands, quotas, 80.0, 1), 60.0, 1e-9);
  EXPECT_NEAR(fair_share(demands, quotas, 80.0, 2), 20.0, 1e-9);
}

TEST(AdmissionTest, QueryCountQuotaRejectsBeforePlanning) {
  World w(31);
  Middleware mw(w.net, w.wl.catalog, 4, Algorithm::kTopDown, 7);
  TenantQuota quota;
  quota.max_queries = 1;
  mw.set_tenant_quota(0, quota);

  ASSERT_TRUE(mw.deploy(w.wl.queries[0]).feasible);
  const opt::OptimizeResult second = mw.deploy(w.wl.queries[1]);
  EXPECT_FALSE(second.feasible);
  EXPECT_EQ(mw.last_admission().decision, AdmissionDecision::kReject);
  EXPECT_FALSE(mw.last_admission().reason.empty());
  // Rejected, not parked: no slot held, no suspended entry.
  EXPECT_EQ(mw.active_queries(), 1u);
  EXPECT_EQ(mw.suspended_queries(), 0u);
  EXPECT_EQ(mw.ledger().tenant_queries(0), 1u);

  // Releasing the slot lets the tenant back in.
  ASSERT_TRUE(mw.undeploy(w.wl.queries[0].id));
  EXPECT_TRUE(mw.deploy(w.wl.queries[1]).feasible);
}

TEST(AdmissionTest, ByteQuotaRejectsWithPricedReason) {
  World w(32);
  Middleware mw(w.net, w.wl.catalog, 4, Algorithm::kTopDown, 7);
  ASSERT_TRUE(mw.deploy(w.wl.queries[0]).feasible);
  TenantQuota quota;
  quota.max_input_bytes_per_s = mw.ledger().tenant_bytes(0) * 1.01;
  mw.set_tenant_quota(0, quota);

  const opt::OptimizeResult res = mw.deploy(w.wl.queries[1]);
  EXPECT_FALSE(res.feasible);
  EXPECT_EQ(mw.last_admission().decision, AdmissionDecision::kReject);
  EXPECT_NE(mw.last_admission().reason.find("quota"), std::string::npos);
}

TEST(AdmissionTest, NodeCapacityIsNeverExceededByAdmittedPlans) {
  World w(33, /*queries=*/6);
  Middleware mw(w.net, w.wl.catalog, 4, Algorithm::kTopDown, 7);
  // Size the budget so the workload only partially fits: deploy everything
  // uncapacitated first to learn the peak, then replay with ~60% of it.
  for (const query::Query& q : w.wl.queries) {
    ASSERT_TRUE(mw.deploy(q).feasible);
  }
  double peak = 0.0;
  for (const double l : mw.node_loads()) peak = std::max(peak, l);
  ASSERT_GT(peak, 0.0);

  Middleware capped(w.net, w.wl.catalog, 4, Algorithm::kTopDown, 7);
  AdmissionConfig cfg;
  cfg.node_capacity = peak * 0.6;
  capped.set_admission_config(cfg);
  std::size_t admitted = 0, rejected = 0;
  for (const query::Query& q : w.wl.queries) {
    if (capped.deploy(q).feasible) {
      ++admitted;
    } else {
      ASSERT_EQ(capped.last_admission().decision, AdmissionDecision::kReject);
      EXPECT_FALSE(capped.last_admission().reason.empty());
      ++rejected;
    }
    for (const double l : capped.node_loads()) {
      EXPECT_LE(l, cfg.node_capacity + 1e-6);
    }
  }
  EXPECT_GT(admitted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(AdmissionTest, PriceMarksSaturatedNodesForTheDegradedRetry) {
  // Controller-level check of the degraded-admission mechanics: a plan
  // colliding with a saturated node is rejected WITH the saturated set (the
  // host-exclusion list for the replan), and an alternative plan avoiding
  // it is admitted as kAdmitDegraded.
  ResourceLedger ledger;
  ledger.reset(/*node_count=*/4);
  DeploymentFootprint existing;
  existing.node_bytes = {{1, 90.0}};
  existing.total_input_bytes = 90.0;
  ledger.apply(existing, 0, +1);
  ledger.count_query(0, +1);

  AdmissionController ctrl;
  AdmissionConfig cfg;
  cfg.node_capacity = 100.0;
  ctrl.set_config(cfg);

  DeploymentFootprint colliding;
  colliding.node_bytes = {{1, 20.0}};
  colliding.total_input_bytes = 20.0;
  const AdmissionVerdict rejected =
      ctrl.price(colliding, 0, ledger, /*degraded=*/false);
  EXPECT_EQ(rejected.decision, AdmissionDecision::kReject);
  ASSERT_EQ(rejected.saturated_nodes.size(), 1u);
  EXPECT_EQ(rejected.saturated_nodes[0], 1u);
  EXPECT_NEAR(rejected.worst_node_overload, 10.0, 1e-9);
  EXPECT_FALSE(rejected.reason.empty());

  DeploymentFootprint rerouted;
  rerouted.node_bytes = {{2, 20.0}};
  rerouted.total_input_bytes = 20.0;
  const AdmissionVerdict degraded =
      ctrl.price(rerouted, 0, ledger, /*degraded=*/true);
  EXPECT_EQ(degraded.decision, AdmissionDecision::kAdmitDegraded);
}

TEST(AdmissionTest, PriceRejectsOnlyTheTenantOverItsWeightedShare) {
  // Fair shares bind only when the cluster as a whole is contended (ledger
  // total plus the plan above node_capacity x node count). Admission alone
  // never gets there while per-node capacity holds; rate spikes can, as in
  // this ledger: 420 B/s against a 400 B/s budget, node 2 spiked past
  // capacity. The same 20 B/s plan fits node 3's headroom for either
  // tenant. Weighted 1:2, tenant 2 is entitled to 2/3 of the budget, which
  // covers the 260 B/s it would hold; tenant 1 would hold 200 B/s but gets
  // only the 160 B/s tenant 2 leaves. Equal weights would leave tenant 2
  // only 220 B/s.
  ResourceLedger ledger;
  ledger.reset(/*node_count=*/4);
  DeploymentFootprint light;
  light.node_bytes = {{0, 90.0}, {1, 90.0}};
  light.total_input_bytes = 180.0;
  ledger.apply(light, 1, +1);
  DeploymentFootprint heavy;
  heavy.node_bytes = {{2, 170.0}, {3, 70.0}};
  heavy.total_input_bytes = 240.0;
  ledger.apply(heavy, 2, +1);

  AdmissionController ctrl;
  AdmissionConfig cfg;
  cfg.node_capacity = 100.0;
  ctrl.set_config(cfg);
  TenantQuota weight1;
  weight1.weight = 1.0;
  ctrl.set_quota(1, weight1);
  TenantQuota weight2;
  weight2.weight = 2.0;
  ctrl.set_quota(2, weight2);
  ASSERT_GT(ledger.total_bytes(), cfg.node_capacity * 4.0);

  DeploymentFootprint plan;
  plan.node_bytes = {{3, 20.0}};
  plan.total_input_bytes = 20.0;
  const AdmissionVerdict over =
      ctrl.price(plan, 1, ledger, /*degraded=*/false);
  EXPECT_EQ(over.decision, AdmissionDecision::kReject);
  EXPECT_TRUE(over.saturated_nodes.empty());
  EXPECT_EQ(over.reason.rfind("fairness:", 0), 0u) << over.reason;
  const AdmissionVerdict under =
      ctrl.price(plan, 2, ledger, /*degraded=*/false);
  EXPECT_EQ(under.decision, AdmissionDecision::kAdmit) << under.reason;
}

TEST(AdmissionTest, FairnessRejectsTheTenantOverItsShare) {
  World w(35, /*queries=*/6);
  std::vector<query::Query> queries = w.wl.queries;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    queries[i].tenant = (i < 4) ? 1u : 2u;  // tenant 1 is the heavy one
  }
  Middleware probe(w.net, w.wl.catalog, 4, Algorithm::kTopDown, 7);
  for (const query::Query& q : queries) {
    ASSERT_TRUE(probe.deploy(q).feasible);
  }
  double peak = 0.0;
  for (const double l : probe.node_loads()) peak = std::max(peak, l);

  Middleware mw(w.net, w.wl.catalog, 4, Algorithm::kTopDown, 7);
  AdmissionConfig cfg;
  cfg.node_capacity = peak * 0.5;
  mw.set_admission_config(cfg);
  mw.set_tenant_quota(1, TenantQuota{});
  mw.set_tenant_quota(2, TenantQuota{});
  std::size_t heavy_rejections = 0;
  const query::Query* rejected = nullptr;  // a tenant-1 query turned away
  for (const query::Query& q : queries) {
    if (!mw.deploy(q).feasible && q.tenant == 1) {
      ++heavy_rejections;
      if (mw.last_admission().decision == AdmissionDecision::kReject) {
        rejected = &q;
      }
    }
  }
  // Under contention the heavy tenant cannot take the whole cluster.
  EXPECT_GT(heavy_rejections, 0u);
  ASSERT_NE(rejected, nullptr);

  // Admission keeps every node within its capacity, so those rejections
  // are node-capacity ones: fairness binds only once the ledger passes the
  // cluster budget (capacity × node count). Rate changes are not gated,
  // so raising a source that only admitted tenant-1 queries read gets the
  // ledger there without growing tenant 2's share.
  std::vector<query::StreamId> heavy_sources, light_sources;
  for (const Middleware::ActiveView& v : mw.active_views()) {
    std::vector<query::StreamId>& to =
        v.query->tenant == 1 ? heavy_sources : light_sources;
    to.insert(to.end(), v.query->sources.begin(), v.query->sources.end());
  }
  const auto hot = std::find_if(
      heavy_sources.begin(), heavy_sources.end(), [&](query::StreamId s) {
        return std::find(light_sources.begin(), light_sources.end(), s) ==
               light_sources.end();
      });
  ASSERT_NE(hot, heavy_sources.end());
  const double budget =
      cfg.node_capacity * static_cast<double>(w.net.node_count());
  for (int i = 0; i < 64 && mw.ledger().total_bytes() <= budget; ++i) {
    mw.set_stream_rate(*hot, 2.0 * mw.catalog().stream(*hot).tuple_rate);
  }
  ASSERT_GT(mw.ledger().total_bytes(), budget);

  // Past the budget, the heavy tenant's next registration is priced
  // against its fair share and turned away for it.
  EXPECT_FALSE(mw.deploy(*rejected).feasible);
  EXPECT_EQ(mw.last_admission().decision, AdmissionDecision::kReject);
  EXPECT_TRUE(mw.last_admission().reason.starts_with("fairness:"))
      << mw.last_admission().reason;
}

TEST(AdmissionTest, LedgerTracksTenantsAndSurvivesChurn) {
  World w(36);
  std::vector<query::Query> queries = w.wl.queries;
  queries[0].tenant = 1;
  queries[1].tenant = 1;
  queries[2].tenant = 2;
  Middleware mw(w.net, w.wl.catalog, 4, Algorithm::kTopDown, 7);
  for (const query::Query& q : queries) {
    ASSERT_TRUE(mw.deploy(q).feasible);
  }
  EXPECT_EQ(mw.ledger().tenant_queries(1), 2u);
  EXPECT_EQ(mw.ledger().tenant_queries(2), 1u);
  EXPECT_GT(mw.ledger().tenant_bytes(1), 0.0);
  EXPECT_NEAR(mw.ledger().tenant_bytes(1) + mw.ledger().tenant_bytes(2) +
                  mw.ledger().tenant_bytes(0),
              mw.ledger().total_bytes(),
              1e-9 * (1.0 + mw.ledger().total_bytes()));

  ASSERT_TRUE(mw.undeploy(queries[0].id));
  EXPECT_EQ(mw.ledger().tenant_queries(1), 1u);
  // node_loads() Debug-checks the incremental ledger against a
  // from-scratch recompute; surviving churn means they agree.
  double total = 0.0;
  for (const double l : mw.node_loads()) total += l;
  EXPECT_GT(total, 0.0);
}

TEST(AdmissionTest, RateChangeKeepsLedgerConsistent) {
  World w(37);
  Middleware mw(w.net, w.wl.catalog, 4, Algorithm::kTopDown, 7,
                /*drift_threshold=*/1.1);
  for (const query::Query& q : w.wl.queries) {
    ASSERT_TRUE(mw.deploy(q).feasible);
  }
  const double before = mw.ledger().total_bytes();
  const query::StreamId s = w.wl.queries[0].sources[0];
  mw.set_stream_rate(s, w.wl.catalog.stream(s).tuple_rate * 3.0);
  EXPECT_GT(mw.ledger().total_bytes(), before);
  mw.adapt();
  // Debug cross-check inside node_loads() validates the re-priced ledger.
  double total = 0.0;
  for (const double l : mw.node_loads()) total += l;
  EXPECT_GT(total, 0.0);
}

}  // namespace
}  // namespace iflow::engine
