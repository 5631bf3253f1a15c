#include "engine/middleware.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <tuple>

#include "opt/in_network.h"
#include "opt/plan_then_deploy.h"
#include "opt/relaxation.h"
#include "query/rates.h"

namespace iflow::engine {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// Global stream set of a mask under a query's rate model, sorted — the
// identity the engine keys producers by.
std::vector<query::StreamId> global_streams(const query::RateModel& rates,
                                            query::Mask m) {
  std::vector<query::StreamId> out;
  for (int i = 0; i < rates.k(); ++i) {
    if (m >> i & 1) out.push_back(rates.stream(i));
  }
  std::sort(out.begin(), out.end());
  return out;
}
}

const char* to_string(Algorithm a) {
  switch (a) {
    case Algorithm::kTopDown: return "top-down";
    case Algorithm::kBottomUp: return "bottom-up";
    case Algorithm::kExhaustive: return "exhaustive";
    case Algorithm::kPlanThenDeploy: return "plan-then-deploy";
    case Algorithm::kRelaxation: return "relaxation";
    case Algorithm::kInNetwork: return "in-network";
  }
  return "?";
}

const char* to_string(Outcome o) {
  switch (o) {
    case Outcome::kMigrated: return "migrated";
    case Outcome::kAccepted: return "accepted";
    case Outcome::kSuspended: return "suspended";
    case Outcome::kResumed: return "resumed";
    case Outcome::kRejected: return "rejected";
  }
  return "?";
}

Middleware::Middleware(net::Network& net, query::Catalog& catalog,
                       int max_cs, Algorithm algorithm, std::uint64_t seed,
                       double drift_threshold)
    : net_(&net), catalog_(&catalog), max_cs_(max_cs), algorithm_(algorithm),
      seed_(seed), drift_threshold_(drift_threshold),
      backoff_prng_(Prng(seed).fork(0xBACC0FFULL)) {
  IFLOW_CHECK(drift_threshold > 1.0);
  rebuild_views();
  ledger_.reset(net_->node_count(), net_->link_count());
}

void Middleware::rebuild_routing() {
  // In-place incremental repair: the RoutingTables object is stable for the
  // middleware's lifetime, so hierarchies and oracles never hold a dangling
  // snapshot; sync() replays the network's mutation log (quality-only
  // batches are free, fault batches invalidate only what they touched).
  if (routing_ == nullptr) {
    routing_ = std::make_unique<net::RoutingTables>(
        net::RoutingTables::build(*net_));
    return;
  }
  routing_->sync(*net_);
}

void Middleware::rebuild_views() {
  rebuild_routing();
  // The clustering is a pure function of (middleware seed, network
  // version): a fresh Prng per rebuild, not a draw from an advancing
  // stream, so two middlewares with the same seed looking at the same
  // network state produce the same hierarchy regardless of how many
  // rebuilds each one has been through. reoptimize()'s joint pass relies
  // on this to reproduce what a from-scratch deployment would plan.
  Prng fork = Prng(seed_).fork(net_->version());
  hierarchy_ = std::make_unique<cluster::Hierarchy>(
      cluster::Hierarchy::build(*net_, *routing_, max_cs_, fork));
  // A rebuild re-admits every node; prune the ones that are currently down
  // so the hierarchy keeps reflecting the live membership.
  for (net::NodeId n = 0; n < net_->node_count(); ++n) {
    if (host_down(n) && hierarchy_->contains(n)) {
      hierarchy_->remove_node(n, *routing_);
    }
  }
}

bool Middleware::host_down(net::NodeId n) const {
  return !net_->node_alive(n) ||
         std::find(failed_nodes_.begin(), failed_nodes_.end(), n) !=
             failed_nodes_.end();
}

bool Middleware::deployment_on_excluded(const query::Deployment& d) const {
  const auto excluded = [this](net::NodeId n) {
    return host_down(n) ||
           std::find(overloaded_nodes_.begin(), overloaded_nodes_.end(), n) !=
               overloaded_nodes_.end() ||
           std::find(quarantined_nodes_.begin(), quarantined_nodes_.end(),
                     n) != quarantined_nodes_.end();
  };
  for (const query::DeployedOp& op : d.ops) {
    if (excluded(op.node)) return true;
  }
  for (const query::LeafUnit& u : d.units) {
    if (u.derived && excluded(u.location)) return true;
  }
  return false;
}

bool Middleware::endpoints_healthy(const query::Query& q) const {
  if (host_down(q.sink)) return false;
  for (query::StreamId s : q.sources) {
    if (host_down(catalog_->stream(s).source)) return false;
  }
  return true;
}

bool Middleware::deployment_intact(const Active& a) const {
  const query::Deployment& d = a.deployment;
  for (const query::LeafUnit& u : d.units) {
    if (host_down(u.location)) return false;
  }
  for (const query::DeployedOp& op : d.ops) {
    if (host_down(op.node)) return false;
  }
  if (host_down(d.sink)) return false;
  // Every data edge must still be routable (a partition can sever edges
  // between perfectly healthy hosts).
  const auto loc_of = [&d](int child) {
    return query::child_is_unit(child)
               ? d.units[static_cast<std::size_t>(
                             query::child_unit_index(child))]
                     .location
               : d.ops[static_cast<std::size_t>(child)].node;
  };
  for (const query::DeployedOp& op : d.ops) {
    for (int child : {op.left, op.right}) {
      const net::NodeId from = loc_of(child);
      if (from != op.node && !routing_->reachable(from, op.node)) return false;
    }
  }
  const net::NodeId root = d.root_node();
  if (root != d.sink && !routing_->reachable(root, d.sink)) return false;
  return derived_units_bound(a);
}

bool Middleware::exports_at(const Active& b, net::NodeId loc,
                            const std::vector<query::StreamId>& want) const {
  query::RateModel rb(*catalog_, b.q);
  for (const query::DeployedOp& op : b.deployment.ops) {
    if (op.node == loc && global_streams(rb, op.mask) == want) return true;
  }
  // A non-aggregated sink re-exports the full result stream set.
  if (!b.deployment.aggregate.enabled() && b.deployment.sink == loc) {
    query::Mask full = 0;
    for (const query::LeafUnit& bu : b.deployment.units) full |= bu.mask;
    if (global_streams(rb, full) == want) return true;
  }
  return false;
}

bool Middleware::derived_units_bound(const Active& a) const {
  bool any_derived = false;
  for (const query::LeafUnit& u : a.deployment.units) any_derived |= u.derived;
  if (!any_derived) return true;
  query::RateModel own(*catalog_, a.q);
  for (const query::LeafUnit& u : a.deployment.units) {
    if (!u.derived) continue;
    const auto want = global_streams(own, u.mask);
    bool found = false;
    for (const Active& b : active_) {
      if (b.q.id == a.q.id) continue;
      if (exports_at(b, u.location, want)) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

std::vector<bool> Middleware::transitive_dependents(const Active& root) const {
  std::vector<bool> dep(active_.size(), false);
  for (std::size_t i = 0; i < active_.size(); ++i) {
    dep[i] = active_[i].q.id == root.q.id;
  }
  // Fixpoint: an active depends on root when any of its derived units could
  // bind to an export of an already-dependent active. Conservative — a unit
  // with several matching providers counts as depending on all of them.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < active_.size(); ++i) {
      if (dep[i]) continue;
      const Active& b = active_[i];
      query::RateModel rb(*catalog_, b.q);
      bool draws = false;
      for (const query::LeafUnit& u : b.deployment.units) {
        if (!u.derived) continue;
        const auto want = global_streams(rb, u.mask);
        for (std::size_t j = 0; j < active_.size(); ++j) {
          if (dep[j] && exports_at(active_[j], u.location, want)) {
            draws = true;
            break;
          }
        }
        if (draws) break;
      }
      if (draws) {
        dep[i] = true;
        changed = true;
      }
    }
  }
  return dep;
}

opt::OptimizerEnv Middleware::env() {
  opt::OptimizerEnv e;
  e.catalog = catalog_;
  e.network = net_;
  e.routing = routing_.get();
  e.hierarchy = hierarchy_.get();
  e.registry = &registry_;
  e.reuse = true;
  bool any_excluded = !failed_nodes_.empty() || !overloaded_nodes_.empty() ||
                      !quarantined_nodes_.empty();
  for (net::NodeId n = 0; n < net_->node_count() && !any_excluded; ++n) {
    any_excluded = !net_->node_alive(n);
  }
  if (any_excluded) {
    const auto excluded = [this](net::NodeId n) {
      return host_down(n) ||
             std::find(overloaded_nodes_.begin(), overloaded_nodes_.end(),
                       n) != overloaded_nodes_.end() ||
             std::find(quarantined_nodes_.begin(), quarantined_nodes_.end(),
                       n) != quarantined_nodes_.end();
    };
    for (net::NodeId n = 0; n < net_->node_count(); ++n) {
      if (!excluded(n)) e.processing_nodes.push_back(n);
    }
  }
  e.excluded_sites = admission_excluded_;  // sorted by the degraded path
  if (!health_penalty_.empty()) e.node_penalty = &health_penalty_;
  e.workspace = &workspace_;
  return e;
}

void Middleware::ledger_add(Active& a) {
  query::RateModel rates(*catalog_, a.q);
  a.footprint = footprint(a.deployment, rates, *routing_, *net_);
  ledger_.apply(a.footprint, a.q.tenant, +1);
}

void Middleware::ledger_remove(Active& a) {
  ledger_.apply(a.footprint, a.q.tenant, -1);
  a.footprint = DeploymentFootprint{};
}

void Middleware::record_migration(query::QueryId q,
                                  const query::Deployment& before,
                                  const query::Deployment& after, bool warm) {
  StateMigration m;
  m.query = q;
  m.warm = warm;
  // Per-op moves only where the join shape survived: an op keeps its state
  // identity when the same mask sits at the same arena index. A replan that
  // restructured the tree contributes no moves (no state-compatible
  // predecessor exists) but is still recorded so harnesses see the event.
  const std::size_t n = std::min(before.ops.size(), after.ops.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (before.ops[i].mask != after.ops[i].mask) continue;
    if (before.ops[i].node == after.ops[i].node) continue;
    StateMigration::OpMove mv;
    mv.op = static_cast<int>(i);
    mv.from = before.ops[i].node;
    mv.to = after.ops[i].node;
    m.moves.push_back(mv);
  }
  state_migrations_.push_back(std::move(m));
}

void Middleware::on_migrated(Active& a, const query::Deployment& before) {
  registry_.remove_origin(a.q.id);
  query::RateModel rates(*catalog_, a.q);
  advert::advertise_deployment(registry_, a.deployment, rates);
  ledger_add(a);
  record_migration(a.q.id, before, a.deployment, /*warm=*/true);
}

void Middleware::mark_dirty(query::QueryId id) {
  const auto it = std::lower_bound(dirty_.begin(), dirty_.end(), id);
  if (it == dirty_.end() || *it != id) dirty_.insert(it, id);
}

void Middleware::mark_dirty_overlap(const query::Query& q) {
  // A changed provider can only alter another query's options through the
  // operator outputs it actually advertises, and a consumer can only adopt
  // a unit whose stream set is a subset of its own sources. Testing the
  // registry's real entries (rather than raw source overlap) keeps the
  // dirty region tight, which is what holds settle's replanned fraction
  // far under reoptimize()'s. Call this only after the provider's
  // advertisements are current.
  std::vector<const advert::DerivedStream*> units;
  for (const advert::DerivedStream& d : registry_.entries()) {
    if (d.origin == q.id && d.streams.size() >= 2) units.push_back(&d);
  }
  if (units.empty()) return;
  for (const Active& a : active_) {
    if (a.q.id == q.id) continue;
    std::vector<query::StreamId> sorted = a.q.sources;
    std::sort(sorted.begin(), sorted.end());
    bool adoptable = false;
    for (const advert::DerivedStream* d : units) {
      bool subset = true;
      for (query::StreamId s : d->streams) {
        if (!std::binary_search(sorted.begin(), sorted.end(), s)) {
          subset = false;
          break;
        }
      }
      if (subset) {
        adoptable = true;
        break;
      }
    }
    if (adoptable) mark_dirty(a.q.id);
  }
}

void Middleware::debug_check_warm_state() const {
#ifndef NDEBUG
  // Warm registry == full rebuild: same (origin, location, streams)
  // multiset. Rates may lag on entries whose origin was untouched by an
  // event (harmless — they refresh on the next migration), so only the
  // identity triple is compared.
  advert::Registry rebuilt;
  for (const Active& a : active_) {
    query::RateModel rates(*catalog_, a.q);
    advert::advertise_deployment(rebuilt, a.deployment, rates);
  }
  const auto key_of = [](const advert::DerivedStream& ds) {
    return std::make_tuple(ds.origin, ds.location, ds.streams);
  };
  std::vector<std::tuple<query::QueryId, net::NodeId,
                         std::vector<query::StreamId>>>
      warm, fresh;
  for (const advert::DerivedStream& ds : registry_.entries()) {
    warm.push_back(key_of(ds));
  }
  for (const advert::DerivedStream& ds : rebuilt.entries()) {
    fresh.push_back(key_of(ds));
  }
  std::sort(warm.begin(), warm.end());
  std::sort(fresh.begin(), fresh.end());
  IFLOW_CHECK_MSG(warm == fresh,
                  "warm registry diverged from rebuild: " << warm.size()
                  << " vs " << fresh.size() << " entries");
  // Incremental node loads == from-scratch recompute.
  const std::vector<double>& inc = ledger_.node_load();
  const std::vector<double> scratch = node_loads_recomputed();
  IFLOW_CHECK(inc.size() == scratch.size());
  for (std::size_t n = 0; n < inc.size(); ++n) {
    const double tol = 1e-6 * (1.0 + std::abs(scratch[n]));
    IFLOW_CHECK_MSG(std::abs(inc[n] - scratch[n]) <= tol,
                    "incremental load drifted on node " << n << ": "
                    << inc[n] << " vs " << scratch[n]);
  }
#endif
}

opt::OptimizeResult Middleware::replan(const Active& a) {
  // Plan against a registry of everyone else's operators: this query's own
  // stale advertisements must not be reused, and neither may those of
  // queries that (transitively) derive from this query's results. Reusing a
  // dependent's re-export would plan a cycle in which each side claims the
  // other produces the data and nothing is grounded in a real source.
  const std::vector<bool> dep = transitive_dependents(a);
  advert::Registry fresh;
  for (std::size_t i = 0; i < active_.size(); ++i) {
    if (dep[i]) continue;
    const Active& other = active_[i];
    query::RateModel rates(*catalog_, other.q);
    advert::advertise_deployment(fresh, other.deployment, rates);
  }
  // Advertisements stranded on down hosts are not reusable.
  fresh.remove_located([this](net::NodeId n) { return host_down(n); });
  advert::Registry saved = std::move(registry_);
  registry_ = std::move(fresh);
  auto optimizer = make_optimizer();
  opt::OptimizeResult res = optimizer->optimize(a.q);
  registry_ = std::move(saved);
  return res;
}

std::unique_ptr<opt::Optimizer> Middleware::make_optimizer() {
  switch (algorithm_) {
    case Algorithm::kTopDown:
      return std::make_unique<opt::TopDownOptimizer>(env());
    case Algorithm::kBottomUp:
      return std::make_unique<opt::BottomUpOptimizer>(env());
    case Algorithm::kExhaustive:
      return std::make_unique<opt::ExhaustiveOptimizer>(env());
    case Algorithm::kPlanThenDeploy:
      return std::make_unique<opt::PlanThenDeployOptimizer>(env());
    case Algorithm::kRelaxation:
      // Paper §3.3 settings: 4 relaxation and 4 embedding iterations. The
      // seed is the middleware's, so replans stay deterministic per seed.
      return std::make_unique<opt::RelaxationOptimizer>(
          env(), seed_, /*relax_iterations=*/4, /*embed_iterations=*/4);
    case Algorithm::kInNetwork:
      return std::make_unique<opt::InNetworkOptimizer>(env(), seed_,
                                                       /*zones=*/5);
  }
  IFLOW_CHECK_MSG(false, "unknown algorithm");
}

opt::OptimizeResult Middleware::deploy(const query::Query& q) {
  last_admission_ = AdmissionVerdict{};
  opt::OptimizeResult res;
  // Per-tenant query-count quota gates before any planning work.
  last_admission_ = admission_.precheck(q.tenant, ledger_);
  if (last_admission_.decision == AdmissionDecision::kReject) {
    res.feasible = false;
    return res;
  }
  if (!endpoints_healthy(q)) {
    suspended_.push_back(SuspendedQuery{q, 0.0, 0});
    ledger_.count_query(q.tenant, +1);
    res.feasible = false;
    return res;
  }
  {
    auto optimizer = make_optimizer();
    res = optimizer->optimize(q);
  }
  if (!res.feasible || !std::isfinite(res.actual_cost)) {
    suspended_.push_back(SuspendedQuery{q, 0.0, 0});
    ledger_.count_query(q.tenant, +1);
    res.feasible = false;
    return res;
  }
  const AdmissionConfig& cfg = admission_.config();
  const bool priced = cfg.node_capacity > 0.0 ||
                      cfg.link_utilization_cap > 0.0 ||
                      !admission_.quotas().empty();
  if (priced) {
    query::RateModel rates(*catalog_, q);
    DeploymentFootprint fp = footprint(res.deployment, rates, *routing_,
                                       *net_);
    last_admission_ = admission_.price(fp, q.tenant, ledger_, *net_,
                                       /*degraded=*/false);
    if (last_admission_.decision == AdmissionDecision::kReject &&
        !last_admission_.saturated_nodes.empty()) {
      // Capacity rejection: one degraded attempt planning AROUND the
      // saturated hosts into the remaining headroom.
      admission_excluded_ = last_admission_.saturated_nodes;
      opt::OptimizeResult degraded;
      {
        auto optimizer = make_optimizer();
        degraded = optimizer->optimize(q);
      }
      admission_excluded_.clear();
      if (degraded.feasible && std::isfinite(degraded.actual_cost)) {
        fp = footprint(degraded.deployment, rates, *routing_, *net_);
        const AdmissionVerdict second =
            admission_.price(fp, q.tenant, ledger_, *net_, /*degraded=*/true);
        if (second.decision != AdmissionDecision::kReject) {
          last_admission_ = second;
          res = std::move(degraded);
        }
      }
    }
    if (last_admission_.decision == AdmissionDecision::kReject) {
      // Rejected — not parked: a rejection is a priced policy answer, not
      // a transient fault, and retrying it via the resume queue would
      // amount to quota evasion.
      res.feasible = false;
      return res;
    }
  }
  query::RateModel rates(*catalog_, q);
  advert::advertise_deployment(registry_, res.deployment, rates);
  active_.push_back(Active{q, res.deployment, res.actual_cost, {}});
  ledger_add(active_.back());
  ledger_.count_query(q.tenant, +1);
  // A new provider changes the reuse landscape for its stream neighborhood.
  mark_dirty_overlap(q);
  return res;
}

bool Middleware::undeploy(query::QueryId id,
                          std::vector<Redeployment>* repairs) {
  for (std::size_t i = 0; i < suspended_.size(); ++i) {
    if (suspended_[i].q.id != id) continue;
    ledger_.count_query(suspended_[i].q.tenant, -1);
    suspended_.erase(suspended_.begin() + static_cast<std::ptrdiff_t>(i));
    return true;
  }
  for (std::size_t i = 0; i < active_.size(); ++i) {
    if (active_[i].q.id != id) continue;
    // Consumers transitively drawing on this provider's operators must be
    // repaired after the teardown — reconcile() migrates or suspends them,
    // never leaves them ungrounded. Snapshot the set first: it also seeds
    // the dirty region. A departure removes reuse options but never
    // creates them, so non-dependents stay clean.
    const std::vector<bool> dep = transitive_dependents(active_[i]);
    for (std::size_t j = 0; j < active_.size(); ++j) {
      if (dep[j] && j != i) mark_dirty(active_[j].q.id);
    }
    ledger_remove(active_[i]);
    ledger_.count_query(active_[i].q.tenant, -1);
    registry_.remove_origin(id);
    active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(i));
    const std::vector<Redeployment> out = reconcile(false);
    if (repairs != nullptr) {
      repairs->insert(repairs->end(), out.begin(), out.end());
    }
    debug_check_warm_state();
    return true;
  }
  return false;  // unknown or already undeployed: clean error
}

void Middleware::set_link_cost(net::NodeId a, net::NodeId b,
                               double cost_per_byte) {
  net_->set_link_cost(a, b, cost_per_byte);
  rebuild_views();
}

void Middleware::set_link_loss(net::NodeId a, net::NodeId b, double loss) {
  net_->set_link_loss(a, b, loss);
  // Loss does not change costs or reachability: sync() recognises the
  // quality-only batch and just advances the tables' version stamp. The
  // routing object — and therefore the hierarchy's snapshot pointer — is
  // untouched, so no hierarchy refresh is needed either.
  rebuild_routing();
}

void Middleware::set_link_jitter(net::NodeId a, net::NodeId b,
                                 double jitter_ms) {
  net_->set_link_jitter(a, b, jitter_ms);
  rebuild_routing();
}

void Middleware::degrade_link(net::NodeId a, net::NodeId b,
                              const net::Degradation& d) {
  net_->degrade_link(a, b, d);
  // Quality-only, like loss/jitter: sync() just advances the version stamp.
  rebuild_routing();
}

void Middleware::degrade_node(net::NodeId n, const net::Degradation& d) {
  net_->degrade_node(n, d);
  rebuild_routing();
}

void Middleware::set_health_penalty(std::vector<double> penalty) {
  if (!penalty.empty()) {
    IFLOW_CHECK_MSG(penalty.size() == net_->node_count(),
                    "penalty vector must cover every node");
    for (double p : penalty) {
      IFLOW_CHECK_MSG(p >= 1.0, "health penalty must be >= 1");
    }
  }
  health_penalty_ = std::move(penalty);
}

void Middleware::set_stream_rate(query::StreamId stream, double tuple_rate) {
  // Retract affected actives at the OLD rates (their recorded footprints
  // are exact), move the catalog, then re-price and re-advertise at the
  // new rates — the ledger and the warm registry track live volumes the
  // way the old full recomputes did.
  std::vector<std::size_t> affected;
  for (std::size_t i = 0; i < active_.size(); ++i) {
    const std::vector<query::StreamId>& src = active_[i].q.sources;
    if (std::find(src.begin(), src.end(), stream) != src.end()) {
      affected.push_back(i);
    }
  }
  for (std::size_t i : affected) ledger_remove(active_[i]);
  catalog_->set_tuple_rate(stream, tuple_rate);
  for (std::size_t i : affected) {
    Active& a = active_[i];
    ledger_add(a);
    registry_.remove_origin(a.q.id);
    query::RateModel rates(*catalog_, a.q);
    advert::advertise_deployment(registry_, a.deployment, rates);
    mark_dirty(a.q.id);
  }
}

void Middleware::refresh_registry() {
  registry_.clear();
  for (const Active& a : active_) {
    query::RateModel rates(*catalog_, a.q);
    advert::advertise_deployment(registry_, a.deployment, rates);
  }
}

void Middleware::resume_pass(std::vector<Redeployment>& out) {
  for (std::size_t i = 0; i < suspended_.size();) {
    SuspendedQuery& s = suspended_[i];
    if (s.attempts >= max_resume_attempts_ || !endpoints_healthy(s.q)) {
      ++i;
      continue;
    }
    if (s.skip > 0) {
      // Exponential backoff: sit out this pass instead of burning a
      // failed replan on a world that has not changed (restores clear
      // the counter, so recovery still resumes immediately).
      --s.skip;
      ++i;
      continue;
    }
    auto optimizer = make_optimizer();
    const opt::OptimizeResult res = optimizer->optimize(s.q);
    // A resumed plan on an excluded host (the restricted search's
    // unrestricted fallback) counts as a failed attempt: staying parked
    // beats resuming onto a host the planner must avoid.
    if (!res.feasible || !std::isfinite(res.actual_cost) ||
        deployment_on_excluded(res.deployment)) {
      ++s.attempts;
      ++resume_failures_total_;
      // After the k-th failure, skip the next 2^k - 1 eligible passes plus
      // a seeded jitter of up to 2^min(k, 8) more, so queries suspended by
      // the same episode retry across different settle rounds instead of
      // stampeding the planner together. Deterministic (the jitter stream
      // is seeded), and the attempt budget is untouched.
      s.skip = (1 << std::min(s.attempts, 16)) - 1 +
               static_cast<int>(
                   backoff_prng_.index(1u << std::min(s.attempts, 8)));
      ++i;
      continue;
    }
    Redeployment r;
    r.query = s.q.id;
    r.planned_cost = s.last_planned_cost;
    r.drifted_cost = kInf;  // the query was down, delivering nothing
    r.adapted_cost = res.actual_cost;
    r.outcome = Outcome::kResumed;
    out.push_back(r);
    active_.push_back(
        Active{std::move(s.q), res.deployment, res.actual_cost, {}});
    query::RateModel rates(*catalog_, active_.back().q);
    advert::advertise_deployment(registry_, active_.back().deployment, rates);
    ledger_add(active_.back());
    mark_dirty_overlap(active_.back().q);
    // Resume-from-suspension: a cold start by construction — whatever state
    // the old placement had died with the suspension.
    record_migration(active_.back().q.id, query::Deployment{},
                     active_.back().deployment, /*warm=*/false);
    suspended_.erase(suspended_.begin() + static_cast<std::ptrdiff_t>(i));
  }
}

std::vector<Redeployment> Middleware::reconcile(bool try_resume) {
  std::vector<Redeployment> out;
  // Fixpoint sweep: migrating (or suspending) one active can strand the
  // derived units of another that reuses its operators, so keep sweeping
  // until a pass changes nothing. Each pass migrates or suspends at least
  // one query, so active_.size() + 1 rounds always suffice.
  for (std::size_t round = 0; round <= active_.size() + 1; ++round) {
    bool changed = false;
    for (std::size_t i = 0; i < active_.size();) {
      Active& a = active_[i];
      const bool healthy = endpoints_healthy(a.q);
      if (healthy && deployment_intact(a)) {
        ++i;
        continue;
      }
      changed = true;
      Redeployment r;
      r.query = a.q.id;
      r.planned_cost = a.planned_cost;
      // The deployment is broken — a dead host, a severed edge or a
      // stranded reuse binding — so it is delivering nothing, whatever its
      // nominal cost would be.
      r.drifted_cost = kInf;
      opt::OptimizeResult res;
      if (healthy) res = replan(a);
      if (healthy && res.feasible && std::isfinite(res.actual_cost) &&
          !deployment_on_excluded(res.deployment)) {
        r.adapted_cost = res.actual_cost;
        r.outcome = Outcome::kMigrated;
        ledger_remove(a);
        const query::Deployment before = std::move(a.deployment);
        a.deployment = res.deployment;
        a.planned_cost = res.actual_cost;
        // Swap this query's advertisements in place; everyone else's stay
        // warm (no full registry rebuild per event). The query itself was
        // just replanned to its optimum, so only the neighborhood that can
        // see its new advertisements needs a settle visit.
        on_migrated(a, before);
        mark_dirty_overlap(a.q);
        ++i;
      } else {
        r.adapted_cost = kInf;
        r.outcome = Outcome::kSuspended;
        ledger_remove(a);
        registry_.remove_origin(a.q.id);
        suspended_.push_back(
            SuspendedQuery{std::move(a.q), a.planned_cost, 0});
        active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(i));
      }
      out.push_back(r);
    }
    if (!changed) break;
  }
  if (try_resume) resume_pass(out);
  debug_check_warm_state();
  return out;
}

std::vector<Redeployment> Middleware::fail_node(net::NodeId n) {
  IFLOW_CHECK(n < net_->node_count());
  IFLOW_CHECK_MSG(net_->node_alive(n),
                  "node " << n << " is crashed, not processing-failed");
  IFLOW_CHECK_MSG(std::find(failed_nodes_.begin(), failed_nodes_.end(), n) ==
                      failed_nodes_.end(),
                  "node " << n << " already failed");
  failed_nodes_.push_back(n);
  if (hierarchy_->contains(n)) hierarchy_->remove_node(n, *routing_);
  return reconcile(false);
}

std::vector<Redeployment> Middleware::crash_node(net::NodeId n) {
  IFLOW_CHECK(n < net_->node_count());
  IFLOW_CHECK_MSG(std::find(failed_nodes_.begin(), failed_nodes_.end(), n) ==
                      failed_nodes_.end(),
                  "node " << n << " is processing-failed; restore it first");
  net_->crash_node(n);  // checks it was alive
  rebuild_routing();
  if (hierarchy_->contains(n)) {
    hierarchy_->remove_node(n, *routing_);
  } else {
    hierarchy_->refresh(*routing_);
  }
  return reconcile(false);
}

std::vector<Redeployment> Middleware::restore_node(net::NodeId n) {
  IFLOW_CHECK(n < net_->node_count());
  const auto it = std::find(failed_nodes_.begin(), failed_nodes_.end(), n);
  const bool was_failed = it != failed_nodes_.end();
  const bool was_crashed = !net_->node_alive(n);
  IFLOW_CHECK_MSG(was_failed || was_crashed,
                  "node " << n << " is neither failed nor crashed");
  if (was_failed) failed_nodes_.erase(it);
  if (was_crashed) {
    net_->restore_node(n);
    rebuild_routing();
    hierarchy_->refresh(*routing_);
  }
  if (!hierarchy_->contains(n)) {
    Prng fork = Prng(seed_).fork(net_->version());
    hierarchy_->add_node(n, *routing_, fork);
  }
  // Recovery resets the retry budget: everything suspended gets a fresh
  // chance now that the world improved (backoff clears with it).
  for (SuspendedQuery& s : suspended_) {
    s.attempts = 0;
    s.skip = 0;
  }
  return reconcile(true);
}

std::vector<Redeployment> Middleware::fail_link(net::NodeId a, net::NodeId b) {
  net_->fail_link(a, b);
  rebuild_routing();
  hierarchy_->refresh(*routing_);
  return reconcile(false);
}

std::vector<Redeployment> Middleware::restore_link(net::NodeId a,
                                                   net::NodeId b) {
  net_->restore_link(a, b);
  rebuild_routing();
  hierarchy_->refresh(*routing_);
  for (SuspendedQuery& s : suspended_) {
    s.attempts = 0;
    s.skip = 0;
  }
  return reconcile(true);
}

void Middleware::set_max_resume_attempts(int attempts) {
  IFLOW_CHECK(attempts >= 1);
  max_resume_attempts_ = attempts;
}

std::vector<net::NodeId> Middleware::excluded_hosts() const {
  std::vector<net::NodeId> out;
  for (net::NodeId n = 0; n < net_->node_count(); ++n) {
    if (host_down(n) ||
        std::find(overloaded_nodes_.begin(), overloaded_nodes_.end(), n) !=
            overloaded_nodes_.end() ||
        std::find(quarantined_nodes_.begin(), quarantined_nodes_.end(), n) !=
            quarantined_nodes_.end()) {
      out.push_back(n);
    }
  }
  return out;
}

std::vector<Redeployment> Middleware::quarantine_node(net::NodeId n) {
  IFLOW_CHECK(n < net_->node_count());
  std::vector<Redeployment> out;
  if (std::find(quarantined_nodes_.begin(), quarantined_nodes_.end(), n) !=
      quarantined_nodes_.end()) {
    return out;  // already quarantined
  }
  quarantined_nodes_.push_back(n);
  // Hosting-only exclusion, like a load-shed node: the element keeps
  // forwarding, sourcing and sinking — it is sick, not dead. Migrate every
  // active hosting operators there; a query that cannot vacate (replan
  // infeasible, or the restricted fallback placed back on the sick node) is
  // suspended rather than left draining tuples into the degradation — it
  // retries when release_quarantine resets the attempt budget.
  for (std::size_t i = 0; i < active_.size();) {
    Active& a = active_[i];
    bool hosted = false;
    for (const query::DeployedOp& op : a.deployment.ops) {
      hosted |= (op.node == n);
    }
    // Derived units bound at the node are subscriptions to an operator
    // executing there; they must vacate with it.
    for (const query::LeafUnit& u : a.deployment.units) {
      hosted |= (u.derived && u.location == n);
    }
    if (!hosted) {
      ++i;
      continue;
    }
    const opt::OptimizeResult res = replan(a);
    Redeployment r;
    r.query = a.q.id;
    r.planned_cost = a.planned_cost;
    query::RateModel rates(*catalog_, a.q);
    r.drifted_cost = query::deployment_cost(a.deployment, rates, *routing_);
    // deployment_on_excluded subsumes the vacated node (n is quarantined
    // already) and catches the fallback landing on *another* excluded host.
    if (res.feasible && std::isfinite(res.actual_cost) &&
        !deployment_on_excluded(res.deployment)) {
      r.adapted_cost = res.actual_cost;
      r.outcome = Outcome::kMigrated;
      ledger_remove(a);
      const query::Deployment before = std::move(a.deployment);
      a.deployment = res.deployment;
      a.planned_cost = res.actual_cost;
      on_migrated(a, before);
      mark_dirty_overlap(a.q);
      out.push_back(r);
      ++i;
    } else {
      r.adapted_cost = kInf;
      r.outcome = Outcome::kSuspended;
      out.push_back(r);
      ledger_remove(a);
      registry_.remove_origin(a.q.id);
      suspended_.push_back(SuspendedQuery{std::move(a.q), a.planned_cost,
                                          max_resume_attempts_});
      active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  // Migrations can strand derived units of queries that reused the moved
  // operators (same tail as rebalance_load); repair before returning.
  const std::vector<Redeployment> repaired = reconcile(false);
  out.insert(out.end(), repaired.begin(), repaired.end());
  return out;
}

std::vector<Redeployment> Middleware::release_quarantine(net::NodeId n) {
  std::vector<Redeployment> out;
  const auto it =
      std::find(quarantined_nodes_.begin(), quarantined_nodes_.end(), n);
  if (it == quarantined_nodes_.end()) return out;  // not quarantined
  quarantined_nodes_.erase(it);
  // The node is placeable again: reset attempt budgets (the world improved,
  // same as a restore) and retry whatever is parked. Actives drift back
  // through the normal adapt()/settle() machinery when beneficial.
  for (SuspendedQuery& s : suspended_) {
    s.attempts = 0;
    s.skip = 0;
  }
  resume_pass(out);
  debug_check_warm_state();
  return out;
}

std::vector<std::pair<query::QueryId, DeliveryStats>>
Middleware::collect_delivery_stats(const Simulation& sim) const {
  std::vector<std::pair<query::QueryId, DeliveryStats>> out;
  out.reserve(active_.size());
  for (const Active& a : active_) {
    out.emplace_back(a.q.id, sim.delivery_stats(a.q.id));
  }
  return out;
}

bool Middleware::deploy_actives(Simulation& sim) const {
  std::vector<bool> done(active_.size(), false);
  std::size_t remaining = active_.size();
  bool progress = true;
  while (remaining > 0 && progress) {
    progress = false;
    for (std::size_t i = 0; i < active_.size(); ++i) {
      if (done[i]) continue;
      try {
        sim.deploy(active_[i].deployment,
                   query::RateModel(*catalog_, active_[i].q));
        done[i] = true;
        --remaining;
        progress = true;
      } catch (const CheckError&) {
        // Provider not deployed yet; retry next sweep.
      }
    }
  }
  return remaining == 0;
}

std::vector<Middleware::ActiveView> Middleware::active_views() const {
  std::vector<ActiveView> out;
  out.reserve(active_.size());
  for (const Active& a : active_) {
    out.push_back(ActiveView{&a.q, &a.deployment, a.planned_cost});
  }
  return out;
}

void Middleware::set_node_capacity(double max_input_bytes_per_s) {
  IFLOW_CHECK(max_input_bytes_per_s >= 0.0);
  node_capacity_ = max_input_bytes_per_s;
  // One knob: the admission controller prices against the same budget the
  // rebalancer sheds against.
  AdmissionConfig cfg = admission_.config();
  cfg.node_capacity = max_input_bytes_per_s;
  admission_.set_config(cfg);
}

void Middleware::set_admission_config(const AdmissionConfig& cfg) {
  IFLOW_CHECK(cfg.node_capacity >= 0.0);
  admission_.set_config(cfg);
  node_capacity_ = cfg.node_capacity;
}

void Middleware::set_tenant_quota(std::uint32_t tenant,
                                  const TenantQuota& quota) {
  admission_.set_quota(tenant, quota);
}

std::vector<double> Middleware::node_loads() const {
#ifndef NDEBUG
  // The incremental ledger must agree with a from-scratch recompute.
  const std::vector<double> scratch = node_loads_recomputed();
  const std::vector<double>& inc = ledger_.node_load();
  IFLOW_CHECK(inc.size() == scratch.size());
  for (std::size_t n = 0; n < inc.size(); ++n) {
    const double tol = 1e-6 * (1.0 + std::abs(scratch[n]));
    IFLOW_CHECK_MSG(std::abs(inc[n] - scratch[n]) <= tol,
                    "incremental load drifted on node " << n << ": "
                    << inc[n] << " vs " << scratch[n]);
  }
#endif
  return ledger_.node_load();
}

std::vector<double> Middleware::node_loads_recomputed() const {
  std::vector<double> load(net_->node_count(), 0.0);
  for (const Active& a : active_) {
    const query::Deployment& d = a.deployment;
    // Deployed operators keep carrying the current stream volumes (the
    // data conditions may have moved since deployment, see
    // set_stream_rate), so monitored load re-prices every input edge
    // against the live RateModel rather than the plan-time snapshot
    // recorded in the deployment. A rate spike therefore shows up as
    // overload immediately, before any replan refreshes the records.
    const query::RateModel rates(*catalog_, a.q);
    for (const query::DeployedOp& op : d.ops) {
      for (int child : {op.left, op.right}) {
        const query::Mask m =
            query::child_is_unit(child)
                ? d.units[static_cast<std::size_t>(
                              query::child_unit_index(child))]
                      .mask
                : d.ops[static_cast<std::size_t>(child)].mask;
        load[op.node] += rates.bytes_rate(m);
      }
    }
  }
  return load;
}

std::vector<Redeployment> Middleware::rebalance_load() {
  std::vector<Redeployment> redeployed;
  if (node_capacity_ <= 0.0) return redeployed;
  // Worst case every node needs a shed round AND a later anchored-suspend
  // round (a shed node is only suspendable one round after it was shed, and
  // with every node excluded replans fall back to unrestricted placement,
  // bouncing the stuck load between already-shed hosts). One extra round
  // lets the loop observe quiescence.
  const std::size_t max_rounds = 2 * net_->node_count() + 1;
  for (std::size_t round = 0; round < max_rounds; ++round) {
    const std::vector<double> load = node_loads();
    net::NodeId worst = net::kInvalidNode;
    for (net::NodeId n = 0; n < net_->node_count(); ++n) {
      if (load[n] > node_capacity_ &&
          (worst == net::kInvalidNode || load[n] > load[worst])) {
        worst = n;
      }
    }
    if (worst == net::kInvalidNode) break;
    if (std::find(overloaded_nodes_.begin(), overloaded_nodes_.end(),
                  worst) != overloaded_nodes_.end()) {
      // Already shed yet still overloaded: whatever sits here cannot move.
      // If the stuck load belongs to queries anchored to this node — their
      // own source or sink lives here, so no replan can ever vacate it —
      // suspend those queries (load shedding at query granularity) instead
      // of giving up with the node still drowning. They only retry after a
      // restore resets the attempt budget.
      bool suspended_any = false;
      for (std::size_t i = 0; i < active_.size();) {
        Active& a = active_[i];
        bool hosted = false;
        for (const query::DeployedOp& op : a.deployment.ops) {
          hosted |= (op.node == worst);
        }
        bool anchored = (a.q.sink == worst);
        for (query::StreamId s : a.q.sources) {
          anchored |= (catalog_->stream(s).source == worst);
        }
        if (!hosted || !anchored) {
          ++i;
          continue;
        }
        Redeployment r;
        r.query = a.q.id;
        r.planned_cost = a.planned_cost;
        query::RateModel rates(*catalog_, a.q);
        r.drifted_cost =
            query::deployment_cost(a.deployment, rates, *routing_);
        r.adapted_cost = kInf;
        r.outcome = Outcome::kSuspended;
        redeployed.push_back(r);
        ledger_remove(a);
        registry_.remove_origin(a.q.id);
        suspended_.push_back(SuspendedQuery{std::move(a.q), a.planned_cost,
                                            max_resume_attempts_});
        active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(i));
        suspended_any = true;
      }
      if (!suspended_any) {
        break;  // already shed and its remaining load cannot move
      }
      continue;
    }
    overloaded_nodes_.push_back(worst);
    for (Active& a : active_) {
      bool hosted = false;
      for (const query::DeployedOp& op : a.deployment.ops) {
        hosted |= (op.node == worst);
      }
      if (!hosted) continue;
      const opt::OptimizeResult res = replan(a);
      if (!res.feasible) continue;  // nowhere better to move right now
      Redeployment r;
      r.query = a.q.id;
      r.planned_cost = a.planned_cost;
      query::RateModel rates(*catalog_, a.q);
      r.drifted_cost = query::deployment_cost(a.deployment, rates, *routing_);
      r.adapted_cost = res.actual_cost;
      ledger_remove(a);
      const query::Deployment before = std::move(a.deployment);
      a.deployment = res.deployment;
      a.planned_cost = res.actual_cost;
      on_migrated(a, before);
      mark_dirty_overlap(a.q);
      redeployed.push_back(r);
    }
  }
  // Migrations (and overload suspensions) can strand derived units of
  // queries that reused the moved operators; repair before returning.
  const std::vector<Redeployment> repaired = reconcile(false);
  redeployed.insert(redeployed.end(), repaired.begin(), repaired.end());
  return redeployed;
}

std::vector<Redeployment> Middleware::reoptimize(int max_rounds) {
  IFLOW_CHECK(max_rounds >= 1);
  // Incremental hierarchy repair is built for fast per-event reaction, but
  // a long churn episode degrades the partition quality (each removal and
  // greedy re-join moves the clustering further from what a fresh
  // k-medoids pass would produce), which in turn degrades every
  // hierarchical planner's scopes. The settle pass can afford to
  // re-cluster from scratch before replanning.
  rebuild_views();
  std::vector<Redeployment> redeployed;
  for (int round = 0; round < max_rounds; ++round) {
    bool moved = false;
    for (Active& a : active_) {
      query::RateModel rates(*catalog_, a.q);
      const double current =
          query::deployment_cost(a.deployment, rates, *routing_);
      const opt::OptimizeResult res = replan(a);
      if (!res.feasible || !std::isfinite(res.actual_cost)) continue;
      // Strict relative improvement only, so the pass terminates instead
      // of shuffling between cost-equal placements.
      if (res.actual_cost >= current * (1.0 - 1e-9)) continue;
      Redeployment r;
      r.query = a.q.id;
      r.planned_cost = a.planned_cost;
      r.drifted_cost = current;
      r.adapted_cost = res.actual_cost;
      r.outcome = Outcome::kMigrated;
      ledger_remove(a);
      const query::Deployment before = std::move(a.deployment);
      a.deployment = res.deployment;
      a.planned_cost = res.actual_cost;
      // The next replans must see the moved operators (warm swap).
      on_migrated(a, before);
      redeployed.push_back(r);
      moved = true;
    }
    if (!moved) break;
  }

  // Per-query replanning moves one deployment at a time, so a reuse chain
  // the staggered recovery never formed — a provider/consumer pair that is
  // only profitable if both move — is a local minimum it cannot escape.
  // Build a full joint re-deployment (every active planned afresh in
  // query-id order with advertisements accumulating, exactly like an
  // initial deployment sequence) and adopt it when strictly cheaper.
  std::vector<std::size_t> order(active_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return active_[a].q.id < active_[b].q.id;
  });
  advert::Registry saved = std::move(registry_);
  registry_ = advert::Registry{};
  std::vector<query::Deployment> cand(active_.size());
  std::vector<double> cand_cost(active_.size(), kInf);
  bool cand_feasible = true;
  for (std::size_t i : order) {
    auto optimizer = make_optimizer();
    opt::OptimizeResult res = optimizer->optimize(active_[i].q);
    if (!res.feasible || !std::isfinite(res.actual_cost)) {
      cand_feasible = false;
      break;
    }
    query::RateModel rates(*catalog_, active_[i].q);
    advert::advertise_deployment(registry_, res.deployment, rates);
    cand[i] = std::move(res.deployment);
    cand_cost[i] = res.actual_cost;
  }
  registry_ = std::move(saved);
  if (cand_feasible && !active_.empty()) {
    double cand_total = 0.0;
    for (std::size_t i = 0; i < active_.size(); ++i) {
      query::RateModel rates(*catalog_, active_[i].q);
      cand_total += query::deployment_cost(cand[i], rates, *routing_);
    }
    if (cand_total < total_current_cost() * (1.0 - 1e-9)) {
      for (std::size_t i = 0; i < active_.size(); ++i) {
        Active& a = active_[i];
        query::RateModel rates(*catalog_, a.q);
        Redeployment r;
        r.query = a.q.id;
        r.planned_cost = a.planned_cost;
        r.drifted_cost = query::deployment_cost(a.deployment, rates, *routing_);
        r.adapted_cost = cand_cost[i];
        r.outcome = Outcome::kMigrated;
        ledger_remove(a);
        const query::Deployment before = std::move(a.deployment);
        a.deployment = std::move(cand[i]);
        a.planned_cost = cand_cost[i];
        ledger_add(a);
        record_migration(a.q.id, before, a.deployment, /*warm=*/true);
        redeployed.push_back(r);
      }
      // Joint adoption replaced every deployment at once; this is the one
      // place a full registry rebuild is the natural operation.
      refresh_registry();
    }
  }
  // Single-query moves can strand reuse consumers; repair at a fixpoint.
  const std::vector<Redeployment> repaired = reconcile(false);
  redeployed.insert(redeployed.end(), repaired.begin(), repaired.end());
  // The full pass subsumes any pending incremental settle.
  dirty_.clear();
  return redeployed;
}

std::vector<Redeployment> Middleware::settle(int max_rounds) {
  IFLOW_CHECK(max_rounds >= 1);
  settle_stats_ = SettleStats{};
  settle_stats_.dirty = dirty_.size();
  std::vector<Redeployment> redeployed;
  if (dirty_.empty()) return redeployed;
  for (int round = 0; round < max_rounds; ++round) {
    // Work the current dirty set in query-id order (dirty_ is sorted);
    // adopting a move re-dirties its reuse neighborhood for the next
    // round. Everything else — hierarchy, registry, undisturbed plans —
    // stays warm, which is the whole point versus reoptimize().
    const std::vector<query::QueryId> work = std::move(dirty_);
    dirty_.clear();
    bool moved_any = false;
    for (query::QueryId id : work) {
      const auto it =
          std::find_if(active_.begin(), active_.end(),
                       [&](const Active& a) { return a.q.id == id; });
      if (it == active_.end()) continue;  // left the system meanwhile
      Active& a = *it;
      query::RateModel rates(*catalog_, a.q);
      const double current =
          query::deployment_cost(a.deployment, rates, *routing_);
      ++settle_stats_.replanned;
      const opt::OptimizeResult res = replan(a);
      if (!res.feasible || !std::isfinite(res.actual_cost)) continue;
      // Same strict-improvement rule as reoptimize()'s per-query rounds.
      if (res.actual_cost >= current * (1.0 - 1e-9)) continue;
      Redeployment r;
      r.query = a.q.id;
      r.planned_cost = a.planned_cost;
      r.drifted_cost = current;
      r.adapted_cost = res.actual_cost;
      r.outcome = Outcome::kMigrated;
      ledger_remove(a);
      const query::Deployment before = std::move(a.deployment);
      a.deployment = res.deployment;
      a.planned_cost = res.actual_cost;
      on_migrated(a, before);
      mark_dirty_overlap(a.q);
      redeployed.push_back(r);
      moved_any = true;
      ++settle_stats_.moved;
    }
    if (!moved_any) break;
  }
  dirty_.clear();
  if (!redeployed.empty()) {
    // Moves can strand reuse consumers exactly like adapt()'s migrations.
    const std::vector<Redeployment> repaired = reconcile(false);
    redeployed.insert(redeployed.end(), repaired.begin(), repaired.end());
  }
  debug_check_warm_state();
  return redeployed;
}

double Middleware::total_current_cost() const {
  double total = 0.0;
  for (const Active& a : active_) {
    query::RateModel rates(*catalog_, a.q);
    total += query::deployment_cost(a.deployment, rates, *routing_);
  }
  return total;
}

std::vector<Redeployment> Middleware::adapt() {
  std::vector<Redeployment> redeployed;
  for (Active& a : active_) {
    query::RateModel current_rates(*catalog_, a.q);
    const double current =
        query::deployment_cost(a.deployment, current_rates, *routing_);
    if (current <= a.planned_cost * drift_threshold_) continue;

    const opt::OptimizeResult res = replan(a);
    if (!res.feasible || !std::isfinite(res.actual_cost)) continue;

    Redeployment r;
    r.query = a.q.id;
    r.planned_cost = a.planned_cost;
    r.drifted_cost = current;
    r.adapted_cost = res.actual_cost;
    // Only migrate when re-optimization actually helps.
    if (res.actual_cost < current) {
      r.outcome = Outcome::kMigrated;
      ledger_remove(a);
      const query::Deployment before = std::move(a.deployment);
      a.deployment = res.deployment;
      a.planned_cost = res.actual_cost;
      on_migrated(a, before);
      mark_dirty_overlap(a.q);
    } else {
      r.outcome = Outcome::kAccepted;
      r.adapted_cost = current;
      a.planned_cost = current;  // accept the new normal
    }
    redeployed.push_back(r);
  }
  if (!redeployed.empty()) {
    // A migration can strand the derived units of a query that reused the
    // moved operators; repair before resuming (advertisements were swapped
    // warm as each move was adopted).
    const std::vector<Redeployment> repaired = reconcile(false);
    redeployed.insert(redeployed.end(), repaired.begin(), repaired.end());
  }
  // The retry queue rides along with every adapt sweep.
  resume_pass(redeployed);
  return redeployed;
}

}  // namespace iflow::engine
