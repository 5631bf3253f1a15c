#include "engine/middleware.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "opt/in_network.h"
#include "opt/plan_then_deploy.h"
#include "opt/relaxation.h"
#include "query/rates.h"

namespace iflow::engine {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

bool contains(const std::vector<net::NodeId>& v, net::NodeId n) {
  return std::find(v.begin(), v.end(), n) != v.end();
}

// True when `registry` holds an export of q's unit u — its sorted catalog
// stream set, the identity the engine keys producers by, at its node — whose
// origin satisfies `from`. The registry is the one record of who exports
// what.
template <class OriginPred>
bool provided(const advert::Registry& registry, const query::Query& q,
              const query::LeafUnit& u, OriginPred from) {
  std::vector<query::StreamId> want;
  for (int i = 0; i < q.k(); ++i) {
    if (u.mask >> i & 1) want.push_back(q.sources[static_cast<std::size_t>(i)]);
  }
  std::sort(want.begin(), want.end());
  for (const advert::DerivedStream& e : registry.entries()) {
    if (e.location == u.location && from(e.origin) && e.streams == want) {
      return true;
    }
  }
  return false;
}

bool planned(const opt::OptimizeResult& r) {
  return r.feasible && std::isfinite(r.actual_cost);
}

bool runs_op_on(const query::Deployment& d, net::NodeId n) {
  return std::any_of(d.ops.begin(), d.ops.end(),
                     [n](const query::DeployedOp& op) { return op.node == n; });
}
}  // namespace

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
  ledger_.reset(net_->node_count());
}

void Middleware::rebuild_routing() {
  // In-place incremental repair: the RoutingTables object is stable for the
  // middleware's lifetime, so hierarchies and oracles never hold a dangling
  // snapshot; sync() replays the network's mutation log (quality-only
  // batches are free, fault batches repair only the nodes they reach).
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
  return !net_->node_alive(n) || contains(failed_nodes_, n);
}

bool Middleware::excluded(net::NodeId n) const {
  return host_down(n) || contains(overloaded_nodes_, n) ||
         contains(quarantined_nodes_, n);
}

bool Middleware::deployment_on_excluded(const query::Deployment& d) const {
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

bool Middleware::derived_units_bound(const Active& a) const {
  const auto other = [&a](query::QueryId id) { return id != a.q.id; };
  for (const query::LeafUnit& u : a.deployment.units) {
    if (u.derived && !provided(registry_, a.q, u, other)) return false;
  }
  return true;
}

std::vector<bool> Middleware::transitive_dependents(const Active& root) const {
  std::vector<bool> dep(active_.size(), false);
  std::vector<query::QueryId> dep_ids{root.q.id};
  for (std::size_t i = 0; i < active_.size(); ++i) {
    dep[i] = active_[i].q.id == root.q.id;
  }
  const auto dependent = [&dep_ids](query::QueryId id) {
    return std::find(dep_ids.begin(), dep_ids.end(), id) != dep_ids.end();
  };
  // Fixpoint: an active depends on root when any of its derived units could
  // bind to an export of an already-dependent active. Conservative — a unit
  // with several matching providers counts as depending on all of them.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < active_.size(); ++i) {
      if (dep[i]) continue;
      const Active& b = active_[i];
      for (const query::LeafUnit& u : b.deployment.units) {
        if (!u.derived || !provided(registry_, b.q, u, dependent)) continue;
        dep[i] = true;
        dep_ids.push_back(b.q.id);
        changed = true;
        break;
      }
    }
  }
  return dep;
}

opt::OptimizerEnv Middleware::env(advert::Registry& registry) {
  opt::OptimizerEnv e;
  e.catalog = catalog_;
  e.network = net_;
  e.routing = routing_.get();
  e.hierarchy = hierarchy_.get();
  e.registry = &registry;
  e.reuse = true;
  bool any_excluded = !failed_nodes_.empty() || !overloaded_nodes_.empty() ||
                      !quarantined_nodes_.empty();
  for (net::NodeId n = 0; n < net_->node_count() && !any_excluded; ++n) {
    any_excluded = !net_->node_alive(n);
  }
  if (any_excluded) {
    for (net::NodeId n = 0; n < net_->node_count(); ++n) {
      if (!excluded(n)) e.processing_nodes.push_back(n);
    }
  }
  if (!health_penalty_.empty()) e.node_penalty = &health_penalty_;
  e.workspace = &workspace_;
  return e;
}

opt::OptimizeResult Middleware::plan(const query::Query& q,
                                     advert::Registry& registry,
                                     std::vector<net::NodeId> avoid) {
  opt::OptimizerEnv e = env(registry);
  e.excluded_sites = std::move(avoid);
  return make_optimizer(e)->optimize(q);
}

double Middleware::current_cost(const Active& a) const {
  return query::deployment_cost(a.deployment, query::RateModel(*catalog_, a.q),
                                *routing_);
}

void Middleware::ledger_add(Active& a) {
  a.footprint = footprint(a.deployment, query::RateModel(*catalog_, a.q));
  ledger_.apply(a.footprint, a.q.tenant, +1);
}

void Middleware::ledger_remove(Active& a) {
  ledger_.apply(a.footprint, a.q.tenant, -1);
  a.footprint = DeploymentFootprint{};
}

void Middleware::record_migration(query::QueryId q,
                                  const query::Deployment& before,
                                  const query::Deployment& after, bool warm) {
  if (migration_feed_ == nullptr) return;
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
  migration_feed_->push_back(std::move(m));
}

void Middleware::adopt(Active& a, query::Deployment deployment, double cost) {
  ledger_remove(a);
  const query::Deployment before =
      std::exchange(a.deployment, std::move(deployment));
  a.planned_cost = cost;
  // Swap this query's advertisements in place; everyone else's stay warm.
  registry_.remove_origin(a.q.id);
  advert::advertise_deployment(registry_, a.deployment,
                               query::RateModel(*catalog_, a.q));
  ledger_add(a);
  record_migration(a.q.id, before, a.deployment, /*warm=*/true);
  // The query itself was just replanned to its optimum, so only the
  // neighborhood that can see its new advertisements needs a settle visit.
  mark_dirty_overlap(a.q);
}

void Middleware::suspend(std::size_t i, int attempts) {
  Active& a = active_[i];
  ledger_remove(a);
  registry_.remove_origin(a.q.id);
  suspended_.push_back(
      SuspendedQuery{std::move(a.q), a.planned_cost, attempts});
  active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(i));
}

void Middleware::activate(query::Query q, const opt::OptimizeResult& res) {
  active_.push_back(Active{std::move(q), res.deployment, res.actual_cost, {}});
  Active& a = active_.back();
  advert::advertise_deployment(registry_, a.deployment,
                               query::RateModel(*catalog_, a.q));
  ledger_add(a);
  // A new provider changes the reuse landscape for its stream neighborhood.
  mark_dirty_overlap(a.q);
}

void Middleware::reset_resume_budgets() {
  // The world improved: everything suspended gets a fresh chance (backoff
  // clears with the budget).
  for (SuspendedQuery& s : suspended_) {
    s.attempts = 0;
    s.skip = 0;
  }
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
    const bool adoptable = std::any_of(
        units.begin(), units.end(), [&sorted](const advert::DerivedStream* d) {
          return std::includes(sorted.begin(), sorted.end(),
                               d->streams.begin(), d->streams.end());
        });
    if (adoptable) mark_dirty(a.q.id);
  }
}

void Middleware::debug_check_warm_state() const {
#ifndef NDEBUG
  // The warm registry, regrouped origin by origin in active_ order, is
  // exactly a full rebuild, field for field and in entry order: replan()
  // plans against that regrouping instead of a rebuild.
  advert::Registry rebuilt;
  std::vector<query::QueryId> origins;
  for (const Active& a : active_) {
    advert::advertise_deployment(rebuilt, a.deployment,
                                 query::RateModel(*catalog_, a.q));
    origins.push_back(a.q.id);
  }
  IFLOW_CHECK_MSG(registry_.size() == rebuilt.size() &&
                      registry_.regrouped(origins, nullptr).entries() ==
                          rebuilt.entries(),
                  "warm registry diverged from rebuild: " << registry_.size()
                  << " vs " << rebuilt.size() << " entries");
  debug_check_ledger();
#endif
}

void Middleware::debug_check_ledger() const {
#ifndef NDEBUG
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
  // Plan against everyone else's operators: this query's own stale
  // advertisements must not be reused, and neither may those of queries
  // that (transitively) derive from this query's results. Reusing a
  // dependent's re-export would plan a cycle in which each side claims the
  // other produces the data and nothing is grounded in a real source.
  const std::vector<bool> dep = transitive_dependents(a);
  std::vector<query::QueryId> others;
  for (std::size_t i = 0; i < active_.size(); ++i) {
    if (!dep[i]) others.push_back(active_[i].q.id);
  }
  // Advertisements stranded on down hosts are not reusable.
  advert::Registry reusable = registry_.regrouped(
      others, [this](net::NodeId n) { return host_down(n); });
  return plan(a.q, reusable);
}

std::unique_ptr<opt::Optimizer> Middleware::make_optimizer(
    const opt::OptimizerEnv& e) const {
  switch (algorithm_) {
    case Algorithm::kTopDown:
      return std::make_unique<opt::TopDownOptimizer>(e);
    case Algorithm::kBottomUp:
      return std::make_unique<opt::BottomUpOptimizer>(e);
    case Algorithm::kExhaustive:
      return std::make_unique<opt::ExhaustiveOptimizer>(e);
    case Algorithm::kPlanThenDeploy:
      return std::make_unique<opt::PlanThenDeployOptimizer>(e);
    case Algorithm::kRelaxation:
      // Paper §3.3 settings: 4 relaxation and 4 embedding iterations. The
      // seed is the middleware's, so replans stay deterministic per seed.
      return std::make_unique<opt::RelaxationOptimizer>(
          e, seed_, /*relax_iterations=*/4, /*embed_iterations=*/4);
    case Algorithm::kInNetwork:
      return std::make_unique<opt::InNetworkOptimizer>(e, seed_,
                                                       /*zones=*/5);
  }
  IFLOW_CHECK_MSG(false, "unknown algorithm");
}

opt::OptimizeResult Middleware::deploy(const query::Query& q) {
  opt::OptimizeResult res;  // infeasible until planned
  // Per-tenant query-count quota gates before any planning work.
  last_admission_ = admission_.precheck(q.tenant, ledger_);
  if (last_admission_.decision == AdmissionDecision::kReject) return res;
  if (endpoints_healthy(q)) res = plan(q, registry_);
  if (!planned(res)) {
    // Source/sink down or no feasible plan: parked, not thrown.
    suspended_.push_back(SuspendedQuery{q, 0.0, 0});
    ledger_.count_query(q.tenant, +1);
    res.feasible = false;
    return res;
  }
  if (admission_.config().node_capacity > 0.0 ||
      !admission_.quotas().empty()) {
    const query::RateModel rates(*catalog_, q);
    last_admission_ = admission_.price(footprint(res.deployment, rates),
                                       q.tenant, ledger_, /*degraded=*/false);
    if (last_admission_.decision == AdmissionDecision::kReject &&
        !last_admission_.saturated_nodes.empty()) {
      // Capacity rejection: one degraded attempt planning AROUND the
      // saturated hosts into the remaining headroom.
      opt::OptimizeResult degraded =
          plan(q, registry_, last_admission_.saturated_nodes);
      if (planned(degraded)) {
        const AdmissionVerdict second =
            admission_.price(footprint(degraded.deployment, rates), q.tenant,
                             ledger_, /*degraded=*/true);
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
  activate(q, res);
  ledger_.count_query(q.tenant, +1);
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
    const opt::OptimizeResult res = plan(s.q, registry_);
    // A resumed plan on an excluded host (the restricted search's
    // unrestricted fallback) counts as a failed attempt: staying parked
    // beats resuming onto a host the planner must avoid.
    if (!planned(res) || deployment_on_excluded(res.deployment)) {
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
    // The query was down, delivering nothing: drifted cost +inf.
    out.push_back(Redeployment{s.q.id, s.last_planned_cost, kInf,
                               res.actual_cost, Outcome::kResumed});
    activate(std::move(s.q), res);
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
      // The deployment is broken — a dead host, a severed edge or a
      // stranded reuse binding — so it is delivering nothing, whatever its
      // nominal cost would be: drifted cost +inf.
      opt::OptimizeResult res;
      if (healthy) res = replan(a);
      if (healthy && planned(res) && !deployment_on_excluded(res.deployment)) {
        out.push_back(Redeployment{a.q.id, a.planned_cost, kInf,
                                   res.actual_cost, Outcome::kMigrated});
        adopt(a, std::move(res.deployment), res.actual_cost);
        ++i;
      } else {
        out.push_back(Redeployment{a.q.id, a.planned_cost, kInf, kInf,
                                   Outcome::kSuspended});
        suspend(i, 0);
      }
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
  IFLOW_CHECK_MSG(!contains(failed_nodes_, n),
                  "node " << n << " already failed");
  failed_nodes_.push_back(n);
  if (hierarchy_->contains(n)) hierarchy_->remove_node(n, *routing_);
  return reconcile(false);
}

std::vector<Redeployment> Middleware::crash_node(net::NodeId n) {
  IFLOW_CHECK(n < net_->node_count());
  IFLOW_CHECK_MSG(!contains(failed_nodes_, n),
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
  reset_resume_budgets();
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
  reset_resume_budgets();
  return reconcile(true);
}

void Middleware::set_max_resume_attempts(int attempts) {
  IFLOW_CHECK(attempts >= 1);
  max_resume_attempts_ = attempts;
}

std::vector<net::NodeId> Middleware::excluded_hosts() const {
  std::vector<net::NodeId> out;
  for (net::NodeId n = 0; n < net_->node_count(); ++n) {
    if (excluded(n)) out.push_back(n);
  }
  return out;
}

std::vector<Redeployment> Middleware::quarantine_node(net::NodeId n) {
  IFLOW_CHECK(n < net_->node_count());
  std::vector<Redeployment> out;
  if (contains(quarantined_nodes_, n)) return out;  // already quarantined
  quarantined_nodes_.push_back(n);
  // Hosting-only exclusion, like a load-shed node: the element keeps
  // forwarding, sourcing and sinking — it is sick, not dead. Migrate every
  // active hosting operators there; a query that cannot vacate (replan
  // infeasible, or the restricted fallback placed back on the sick node) is
  // suspended rather than left draining tuples into the degradation — it
  // retries when release_quarantine resets the attempt budget.
  for (std::size_t i = 0; i < active_.size();) {
    Active& a = active_[i];
    // Derived units bound at the node are subscriptions to an operator
    // executing there; they must vacate with it.
    const bool hosted =
        runs_op_on(a.deployment, n) ||
        std::any_of(a.deployment.units.begin(), a.deployment.units.end(),
                    [n](const query::LeafUnit& u) {
                      return u.derived && u.location == n;
                    });
    if (!hosted) {
      ++i;
      continue;
    }
    opt::OptimizeResult res = replan(a);
    const double drifted = current_cost(a);
    // deployment_on_excluded subsumes the vacated node (n is quarantined
    // already) and catches the fallback landing on *another* excluded host.
    if (planned(res) && !deployment_on_excluded(res.deployment)) {
      out.push_back(Redeployment{a.q.id, a.planned_cost, drifted,
                                 res.actual_cost, Outcome::kMigrated});
      adopt(a, std::move(res.deployment), res.actual_cost);
      ++i;
    } else {
      out.push_back(Redeployment{a.q.id, a.planned_cost, drifted, kInf,
                                 Outcome::kSuspended});
      suspend(i, max_resume_attempts_);
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
  reset_resume_budgets();
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

void Middleware::set_admission_config(const AdmissionConfig& cfg) {
  IFLOW_CHECK(cfg.node_capacity >= 0.0);
  admission_.set_config(cfg);
}

void Middleware::set_tenant_quota(std::uint32_t tenant,
                                  const TenantQuota& quota) {
  admission_.set_quota(tenant, quota);
}

std::vector<double> Middleware::node_loads() const {
  debug_check_ledger();
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
  const double capacity = admission_.config().node_capacity;
  if (capacity <= 0.0) return redeployed;
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
      if (load[n] > capacity &&
          (worst == net::kInvalidNode || load[n] > load[worst])) {
        worst = n;
      }
    }
    if (worst == net::kInvalidNode) break;
    if (contains(overloaded_nodes_, worst)) {
      // Already shed yet still overloaded: whatever sits here cannot move.
      // If the stuck load belongs to queries anchored to this node — their
      // own source or sink lives here, so no replan can ever vacate it —
      // suspend those queries (load shedding at query granularity) instead
      // of giving up with the node still drowning. They only retry after a
      // restore resets the attempt budget.
      bool suspended_any = false;
      for (std::size_t i = 0; i < active_.size();) {
        const Active& a = active_[i];
        bool anchored = (a.q.sink == worst);
        for (query::StreamId s : a.q.sources) {
          anchored |= (catalog_->stream(s).source == worst);
        }
        if (!runs_op_on(a.deployment, worst) || !anchored) {
          ++i;
          continue;
        }
        redeployed.push_back(Redeployment{a.q.id, a.planned_cost,
                                          current_cost(a), kInf,
                                          Outcome::kSuspended});
        suspend(i, max_resume_attempts_);
        suspended_any = true;
      }
      if (!suspended_any) {
        break;  // already shed and its remaining load cannot move
      }
      continue;
    }
    overloaded_nodes_.push_back(worst);
    for (Active& a : active_) {
      if (!runs_op_on(a.deployment, worst)) continue;
      opt::OptimizeResult res = replan(a);
      if (!res.feasible) continue;  // nowhere better to move right now
      redeployed.push_back(Redeployment{a.q.id, a.planned_cost,
                                        current_cost(a), res.actual_cost,
                                        Outcome::kMigrated});
      adopt(a, std::move(res.deployment), res.actual_cost);
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
      const double current = current_cost(a);
      opt::OptimizeResult res = replan(a);
      // Strict relative improvement only, so the pass terminates instead
      // of shuffling between cost-equal placements.
      if (!planned(res) || res.actual_cost >= current * (1.0 - 1e-9)) {
        continue;
      }
      redeployed.push_back(Redeployment{a.q.id, a.planned_cost, current,
                                        res.actual_cost, Outcome::kMigrated});
      // The next replans must see the moved operators (warm swap).
      adopt(a, std::move(res.deployment), res.actual_cost);
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
  advert::Registry joint;
  std::vector<query::Deployment> cand(active_.size());
  std::vector<double> cand_cost(active_.size(), kInf);
  bool cand_feasible = true;
  for (std::size_t i : order) {
    opt::OptimizeResult res = plan(active_[i].q, joint);
    if (!planned(res)) {
      cand_feasible = false;
      break;
    }
    advert::advertise_deployment(joint, res.deployment,
                                 query::RateModel(*catalog_, active_[i].q));
    cand[i] = std::move(res.deployment);
    cand_cost[i] = res.actual_cost;
  }
  if (cand_feasible && !active_.empty()) {
    double cand_total = 0.0;
    for (std::size_t i = 0; i < active_.size(); ++i) {
      query::RateModel rates(*catalog_, active_[i].q);
      cand_total += query::deployment_cost(cand[i], rates, *routing_);
    }
    if (cand_total < total_current_cost() * (1.0 - 1e-9)) {
      // Adopting in active_ order moves each query's advertisements to the
      // back, so the registry ends in the order a full rebuild produces (the
      // order of reuse units decides planner ties).
      for (std::size_t i = 0; i < active_.size(); ++i) {
        Active& a = active_[i];
        redeployed.push_back(Redeployment{a.q.id, a.planned_cost,
                                          current_cost(a), cand_cost[i],
                                          Outcome::kMigrated});
        adopt(a, std::move(cand[i]), cand_cost[i]);
      }
    }
  }
  // Single-query moves can strand reuse consumers; repair at a fixpoint.
  const std::vector<Redeployment> repaired = reconcile(false);
  redeployed.insert(redeployed.end(), repaired.begin(), repaired.end());
  // The full pass subsumes any pending incremental settle, including the
  // neighborhoods its own adoptions marked.
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
      const double current = current_cost(a);
      ++settle_stats_.replanned;
      opt::OptimizeResult res = replan(a);
      // Same strict-improvement rule as reoptimize()'s per-query rounds.
      if (!planned(res) || res.actual_cost >= current * (1.0 - 1e-9)) {
        continue;
      }
      redeployed.push_back(Redeployment{a.q.id, a.planned_cost, current,
                                        res.actual_cost, Outcome::kMigrated});
      adopt(a, std::move(res.deployment), res.actual_cost);
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
  for (const Active& a : active_) total += current_cost(a);
  return total;
}

std::vector<Redeployment> Middleware::adapt() {
  std::vector<Redeployment> redeployed;
  for (Active& a : active_) {
    const double current = current_cost(a);
    if (current <= a.planned_cost * drift_threshold_) continue;
    opt::OptimizeResult res = replan(a);
    if (!planned(res)) continue;
    // Only migrate when re-optimization actually helps.
    if (res.actual_cost < current) {
      redeployed.push_back(Redeployment{a.q.id, a.planned_cost, current,
                                        res.actual_cost, Outcome::kMigrated});
      adopt(a, std::move(res.deployment), res.actual_cost);
    } else {
      redeployed.push_back(Redeployment{a.q.id, a.planned_cost, current,
                                        current, Outcome::kAccepted});
      a.planned_cost = current;  // accept the new normal
    }
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
