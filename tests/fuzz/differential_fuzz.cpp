// Differential fuzz harness over the six optimizers.
//
// Each iteration derives a random transit–stub instance (topology,
// hierarchy, catalog, one K<=5-source query, sometimes filters, aggregation
// or a processing-node restriction) from `base_seed + iteration`, runs all
// six optimizers and cross-checks them:
//   * every deployment passes verify::validate with zero violations,
//     including the planned-cost and marginal-accounting checks;
//   * no heuristic undercuts the exhaustive optimum (unrestricted
//     instances only: the processing fallback can legitimately hand a
//     hierarchical scope nodes the restricted exhaustive search lacks);
//   * Top-Down respects the Theorem 3 sub-optimality bound;
//   * Bottom-Up never beats the optimal placement of its own join tree
//     (paper §2.3.2's anchor);
//   * reuse never hurts the exhaustive optimizer, and reused deployments
//     still validate (marginal accounting of derived units);
//   * rebuilding the instance from its seed reproduces every cost
//     bit-for-bit (determinism).
//
// Runs as a ctest with a small budget; soak with
//   ./tests/differential_fuzz --iterations 20000 --seed 1
// Exit status is the number of failing iterations (0 = clean).
//
// --threads N sizes the shared PlanWorkspace's pool; --digest prints one
// hexfloat cost line per (seed, optimizer), so CI can diff a --threads 1
// run against a --threads N run and assert the parallel site sweep is
// bitwise-identical to the serial one.
//
// --churn switches to the failure/churn harness: each iteration derives a
// random network + workload, replays a seeded fault schedule (crashes,
// processing failures, link flaps, restores, rate spikes) through
// engine::run_churn, and fails the iteration on any validator violation,
// unresumed query after full restoration, or missed convergence. With
// --digest it prints the per-step transcript (hexfloat costs), which must
// be identical across --threads values for the same seed.
//
// --loss is a seeded loss-rate sweep through the same harness with the
// delivery contract armed: per-link loss ceilings in [0.5%, 5%] (always
// within the default retry budget's tolerance), loss/jitter/queue-pressure
// events mixed into the churn, and a post-churn reliable-delivery check
// that must match the loss-free baseline exactly with zero tuples lost
// after retries.
//
// --scenario fuzzes the scenario generator: each iteration re-seeds a
// random catalogue entry (jittering its query count and failure-script
// intensity), replays it through run_churn (its failure script, or drawn
// churn when it has none) under a random optimizer, and holds the full
// contract set — zero violations, full resumption, convergence, exact
// delivery. With --digest the per-scenario transcript must be identical
// across --threads values.
//
// --oracle differentially fuzzes the sparse distance oracle: each iteration
// builds a partitioned hierarchy over a random transit–stub world, sweeps
// validate_pair (|estimate - exact| <= slack on every sampled pair), and
// plans every query twice — once against exact routing rows, once through
// the tiered SparseOracle. Feasibility must be identical, sparse-planned
// deployments must validate, and the sparse exhaustive optimum must stay
// within the Theorem-1 slack budget of the dense optimum. It then fails and
// restores links on a sparse-tier table with a small row cap, one of them
// on a leaf coordinator's cost path, refreshing a partitioned hierarchy
// after each sync: the coordinator matrix it updates in place must equal a
// fresh one bit for bit.
//
// --gray fuzzes the gray-failure health plane: each iteration builds a
// seeded relay-shaped world (a cheap star hub is the strictly optimal
// meeting point, so it hosts operators without being any query's
// endpoint), draws a gray intensity, and replays engine::run_gray's three
// sub-runs (detector on, detector off, healthy twin). Fails on any
// validator violation, on a quarantine in the healthy twin (false
// positive), and on the detector-on run undercutting the detector-off
// goodput. With --digest the per-epoch transcript must be identical
// across --threads values.
//
// --recovery fuzzes the checkpoint/recovery plane over the same relay
// geometry with drawn checkpoint intervals and fault timing: a faulted
// checkpointed run (mid-stream crash + rollback recovery + forced warm
// migrations) must deliver the fault-free twin's per-query counts exactly,
// with zero tuples lost after retries and at least one committed epoch.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/hierarchy.h"
#include "cluster/theory.h"
#include "engine/chaos.h"
#include "engine/health.h"
#include "net/gtitm.h"
#include "opt/bottom_up.h"
#include "opt/exhaustive.h"
#include "opt/in_network.h"
#include "opt/plan_then_deploy.h"
#include "opt/relaxation.h"
#include "opt/search/planner.h"
#include "opt/search/sparse_oracle.h"
#include "opt/top_down.h"
#include "query/rates.h"
#include "verify/validator.h"
#include "workload/generator.h"
#include "workload/scenario.h"

namespace iflow {
namespace {

/// What a run fuzzes: the six optimizers (the default) or one harness.
enum class Mode {
  kPlan,
  kChurn,
  kRegisterChurn,
  kLoss,
  kScenario,
  kOracle,
  kGray,
  kRecovery,
};

struct Options {
  std::uint64_t seed = 20070806;
  int iterations = 500;
  int threads = 1;
  bool verbose = false;
  bool digest = false;
  Mode mode = Mode::kPlan;
};

/// One self-contained random instance. Everything is derived from the seed,
/// so an instance can be rebuilt bit-for-bit for the determinism check.
struct Instance {
  net::Network net;
  net::RoutingTables rt;
  query::Catalog catalog;
  query::Query query;
  bool restricted = false;
  std::vector<net::NodeId> processing_nodes;
  // Declared last: its initializer (`make`) fills in every member above.
  cluster::Hierarchy hierarchy;

  explicit Instance(std::uint64_t seed) : hierarchy(make(seed)) {}

 private:
  // Builds everything else in dependency order, then returns the hierarchy
  // so Instance needs no default-constructible Hierarchy.
  cluster::Hierarchy make(std::uint64_t seed) {
    Prng prng(seed);
    // Sizes straddle the planner's parallel-sweep threshold (32 sites) so
    // the --threads digest comparison exercises both code paths.
    net::TransitStubParams p;
    p.transit_count = 1 + static_cast<int>(prng.index(3));
    p.stub_domains_per_transit = 1 + static_cast<int>(prng.index(3));
    p.stub_domain_size = 2 + static_cast<int>(prng.index(5));
    net = net::make_transit_stub(p, prng);
    rt = net::RoutingTables::build(net);

    const int k = 2 + static_cast<int>(prng.index(4));  // K in [2, 5]
    for (int i = 0; i < k; ++i) {
      query.sources.push_back(catalog.add_stream(
          std::string("S").append(std::to_string(i)),
          static_cast<net::NodeId>(prng.index(net.node_count())),
          prng.uniform(5.0, 50.0), prng.uniform(10.0, 100.0)));
    }
    for (int a = 0; a < k; ++a) {
      for (int b = a + 1; b < k; ++b) {
        catalog.set_selectivity(query.sources[static_cast<std::size_t>(a)],
                                query.sources[static_cast<std::size_t>(b)],
                                prng.uniform(0.005, 0.05));
      }
    }
    query.id = static_cast<query::QueryId>(seed & 0xffff);
    query.name = "fuzz-" + std::to_string(seed);
    query.sink = static_cast<net::NodeId>(prng.index(net.node_count()));
    if (prng.chance(0.3)) {
      for (int i = 0; i < k; ++i) {
        query.filter_selectivity.push_back(prng.uniform(0.1, 1.0));
      }
    }
    if (prng.chance(0.25)) {
      query.aggregate.fn = query::AggregateFn::kCount;
      query.aggregate.groups = 1.0 + static_cast<double>(prng.index(8));
      query.aggregate.window_s = prng.uniform(0.5, 5.0);
    }
    // Every fourth instance restricts processing to a random node subset
    // (at least one node), exercising restrict_sites and the fallback.
    restricted = prng.chance(0.25);
    if (restricted) {
      for (net::NodeId n = 0; n < net.node_count(); ++n) {
        if (prng.chance(0.4)) processing_nodes.push_back(n);
      }
      if (processing_nodes.empty()) {
        processing_nodes.push_back(
            static_cast<net::NodeId>(prng.index(net.node_count())));
      }
    }
    const int max_cs = 3 + static_cast<int>(prng.index(3));  // [3, 5]
    Prng hp(seed ^ 0x9E3779B97F4A7C15ULL);
    return cluster::Hierarchy::build(net, rt, max_cs, hp);
  }
};

/// Reconstructs the join tree a deployment realised (units as leaves), for
/// re-placing Bottom-Up's own tree optimally.
query::JoinTree tree_of(const query::Deployment& d) {
  query::JoinTree t;
  std::vector<int> unit_node(d.units.size());
  for (std::size_t u = 0; u < d.units.size(); ++u) {
    query::TreeNode leaf;
    leaf.unit = static_cast<int>(u);
    leaf.mask = d.units[u].mask;
    t.nodes.push_back(leaf);
    unit_node[u] = static_cast<int>(t.nodes.size()) - 1;
  }
  std::vector<int> op_node(d.ops.size());
  for (std::size_t i = 0; i < d.ops.size(); ++i) {
    auto resolve = [&](int child) {
      return query::child_is_unit(child)
                 ? unit_node[static_cast<std::size_t>(
                       query::child_unit_index(child))]
                 : op_node[static_cast<std::size_t>(child)];
    };
    query::TreeNode n;
    n.left = resolve(d.ops[i].left);
    n.right = resolve(d.ops[i].right);
    n.mask = d.ops[i].mask;
    t.nodes.push_back(n);
    op_node[i] = static_cast<int>(t.nodes.size()) - 1;
  }
  t.root = static_cast<int>(t.nodes.size()) - 1;
  return t;
}

/// Byte rates of every edge of a deployment's tree — the s_k of Theorem 3.
std::vector<double> edge_rates(const query::Deployment& d) {
  std::vector<double> rates;
  for (const query::DeployedOp& op : d.ops) {
    for (int child : {op.left, op.right}) {
      rates.push_back(query::child_bytes_rate(d, child));
    }
  }
  rates.push_back(d.root_bytes_rate());
  return rates;
}

struct AlgRun {
  std::string name;
  opt::OptimizeResult result;
};

std::vector<AlgRun> run_all(const opt::OptimizerEnv& env,
                            const query::Query& q) {
  opt::ExhaustiveOptimizer ex(env);
  opt::TopDownOptimizer td(env);
  opt::BottomUpOptimizer bu(env);
  opt::PlanThenDeployOptimizer ptd(env);
  opt::RelaxationOptimizer relax(env, /*seed=*/7);
  opt::InNetworkOptimizer innet(env, /*seed=*/13);
  std::vector<opt::Optimizer*> algs = {&ex, &td, &bu, &ptd, &relax, &innet};
  std::vector<AlgRun> runs;
  runs.reserve(algs.size());
  for (opt::Optimizer* alg : algs) {
    runs.push_back(AlgRun{alg->name(), alg->optimize(q)});
  }
  return runs;
}

/// Accumulates failures for one iteration; prints context lazily so clean
/// iterations stay silent.
struct IterationLog {
  std::uint64_t seed;
  int failures = 0;

  void fail(const std::string& what) {
    std::cerr << "[seed " << seed << "] " << what << '\n';
    ++failures;
  }
};

void check_instance(std::uint64_t seed, const Options& opt,
                    opt::PlanWorkspace& ws, IterationLog& log) {
  Instance inst(seed);
  opt::OptimizerEnv env;
  env.catalog = &inst.catalog;
  env.network = &inst.net;
  env.routing = &inst.rt;
  env.hierarchy = &inst.hierarchy;
  env.reuse = false;
  env.processing_nodes = inst.processing_nodes;
  env.workspace = &ws;

  const std::vector<AlgRun> runs = run_all(env, inst.query);
  if (opt.digest) {
    for (const AlgRun& run : runs) {
      std::cout << "digest " << seed << ' ' << run.name << ' ' << std::hexfloat
                << run.result.actual_cost << std::defaultfloat << '\n';
    }
  }
  for (const AlgRun& run : runs) {
    if (!run.result.feasible) {
      log.fail(run.name + ": infeasible");
      continue;
    }
    verify::ValidateOptions vopts;
    vopts.query = &inst.query;
    vopts.planned_cost = run.result.planned_cost;
    if (!run.result.op_scopes.empty()) vopts.op_scopes = &run.result.op_scopes;
    const auto violations =
        verify::validate(run.result.deployment, env, vopts);
    if (!violations.empty()) {
      log.fail(run.name + ": validator violations:\n" +
               verify::describe(violations));
    }
  }

  const double tol = 1e-6;
  if (!inst.restricted) {
    // The exhaustive optimum lower-bounds every heuristic. (Restricted
    // instances are excluded: the documented fallback can hand a
    // processing-free hierarchical scope nodes the restricted exhaustive
    // search may not use.)
    const double optimum = runs.front().result.actual_cost;
    for (const AlgRun& run : runs) {
      if (!run.result.feasible) continue;
      if (run.result.actual_cost < optimum - tol * (1.0 + optimum)) {
        std::ostringstream os;
        os << run.name << " beats exhaustive: " << run.result.actual_cost
           << " < " << optimum;
        log.fail(os.str());
      }
    }
    // Theorem 3: Top-Down within sum_k s_k * sum_i 2 d_i of optimal. The
    // bound argues over raw tree-edge rates, so skip aggregated queries
    // (their delivery edge carries the shrunken aggregate stream).
    const opt::OptimizeResult& td = runs[1].result;
    if (td.feasible && !inst.query.aggregate.enabled()) {
      const double bound = cluster::theorem3_bound(
          inst.hierarchy, edge_rates(td.deployment));
      if (td.actual_cost > optimum + bound + tol * (1.0 + optimum + bound)) {
        std::ostringstream os;
        os << "top-down breaks Theorem 3: " << td.actual_cost << " > "
           << optimum << " + " << bound;
        log.fail(os.str());
      }
    }
    // Bottom-Up is anchored by the optimal placement of its own join tree.
    const opt::OptimizeResult& bu = runs[2].result;
    if (bu.feasible) {
      query::RateModel rates(inst.catalog, inst.query);
      std::vector<net::NodeId> sites;
      for (net::NodeId n = 0; n < inst.net.node_count(); ++n) {
        sites.push_back(n);
      }
      const opt::TreePlacement tp = opt::place_tree_optimal(
          tree_of(bu.deployment), bu.deployment.units, rates, inst.query.sink,
          sites, opt::DistanceOracle::routing(inst.rt),
          opt::delivery_rate_for(inst.query, rates), ws);
      if (!tp.feasible) {
        log.fail("bottom-up anchor placement infeasible");
      } else if (bu.actual_cost < tp.cost - tol * (1.0 + tp.cost)) {
        std::ostringstream os;
        os << "bottom-up beats the optimal placement of its own tree: "
           << bu.actual_cost << " < " << tp.cost;
        log.fail(os.str());
      }
    }
  }

  // Reuse pass (every other iteration): resubmitting through a session
  // advertises the first deployment's operators; the re-planned exhaustive
  // deployment must still validate (marginal accounting of derived units)
  // and must cost no more than planning without reuse.
  if (seed % 2 == 0) {
    advert::Registry registry;
    opt::OptimizerEnv reuse_env = env;  // inherits the shared workspace
    reuse_env.reuse = true;
    reuse_env.registry = &registry;
    opt::Session session(reuse_env,
                         std::make_unique<opt::ExhaustiveOptimizer>(reuse_env));
    const opt::OptimizeResult first = session.submit(inst.query);
    query::Query again = inst.query;
    again.id += 10000;
    const opt::OptimizeResult second = session.submit(again);
    if (!first.feasible || !second.feasible) {
      log.fail("reuse session produced an infeasible result");
    } else {
      verify::ValidateOptions vopts;
      vopts.query = &again;
      vopts.planned_cost = second.planned_cost;
      const auto violations =
          verify::validate(second.deployment, reuse_env, vopts);
      if (!violations.empty()) {
        log.fail("reused deployment violations:\n" +
                 verify::describe(violations));
      }
      if (second.actual_cost > first.actual_cost + tol * (1.0 + first.actual_cost)) {
        std::ostringstream os;
        os << "reuse hurt the exhaustive optimizer: " << second.actual_cost
           << " > " << first.actual_cost;
        log.fail(os.str());
      }
    }
  }

  // Determinism: every tenth iteration, rebuild the instance from its seed
  // and compare every optimizer's outcome bit-for-bit.
  if (seed % 10 == 0) {
    Instance replay(seed);
    opt::OptimizerEnv replay_env;
    replay_env.catalog = &replay.catalog;
    replay_env.network = &replay.net;
    replay_env.routing = &replay.rt;
    replay_env.hierarchy = &replay.hierarchy;
    replay_env.reuse = false;
    replay_env.processing_nodes = replay.processing_nodes;
    replay_env.workspace = &ws;
    const std::vector<AlgRun> reruns = run_all(replay_env, replay.query);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const bool same =
          runs[i].result.feasible == reruns[i].result.feasible &&
          runs[i].result.actual_cost == reruns[i].result.actual_cost &&
          runs[i].result.deployment.ops.size() ==
              reruns[i].result.deployment.ops.size();
      if (!same) {
        log.fail(runs[i].name + ": non-deterministic result for this seed");
      }
    }
  }

  if (opt.verbose) {
    std::cout << "seed " << seed << ": " << inst.net.node_count() << " nodes, K="
              << inst.query.k() << (inst.restricted ? ", restricted" : "")
              << (log.failures ? " FAIL" : " ok") << '\n';
  }
}

/// With --digest, prints every transcript line behind `prefix` (mode, seed
/// and any instance tag), so runs at different thread counts diff line by
/// line.
void print_digest(const Options& opt, const std::string& prefix,
                  const std::string& digest) {
  if (!opt.digest) return;
  std::istringstream lines(digest);
  std::string line;
  while (std::getline(lines, line)) std::cout << prefix << ' ' << line << '\n';
}

/// Random transit–stub world and workload of the --churn, --register-churn
/// and --loss modes. Draws from `prng`, in order: the transit count, the
/// stub-domain size (3 + [0, domain_span)), the network, the stream count
/// (5 + [0, stream_span); a span of 1 draws nothing), then the query count
/// (min_queries + [0, query_span)). The workload draws from its own
/// `seed + 1` stream.
struct SmallWorld {
  net::Network net;
  workload::Workload wl;
};
SmallWorld small_world(std::uint64_t seed, Prng& prng, int domain_span,
                       int stream_span, int min_queries, int query_span) {
  net::TransitStubParams p;
  p.transit_count = 1 + static_cast<int>(prng.index(2));
  p.stub_domains_per_transit = 2;
  p.stub_domain_size =
      3 + static_cast<int>(prng.index(static_cast<std::size_t>(domain_span)));
  SmallWorld w;
  w.net = net::make_transit_stub(p, prng);
  workload::WorkloadParams wp;
  wp.num_streams = 5;
  if (stream_span > 1) {
    wp.num_streams +=
        static_cast<int>(prng.index(static_cast<std::size_t>(stream_span)));
  }
  wp.min_joins = 2;
  wp.max_joins = 3;
  Prng wprng(seed + 1);
  const int queries =
      min_queries +
      static_cast<int>(prng.index(static_cast<std::size_t>(query_span)));
  w.wl = workload::make_workload(w.net, wp, queries, wprng);
  return w;
}

/// One of the three optimizers the harness modes exercise, drawn uniformly.
engine::Algorithm draw_algorithm(Prng& prng) {
  const engine::Algorithm algs[] = {engine::Algorithm::kTopDown,
                                    engine::Algorithm::kBottomUp,
                                    engine::Algorithm::kExhaustive};
  return algs[prng.index(3)];
}

/// One churn-fuzz iteration: random world, seeded fault schedule, full
/// invariant sweep via engine::run_churn.
void check_churn_instance(std::uint64_t seed, const Options& opt,
                          IterationLog& log) {
  Prng prng(seed);
  const SmallWorld w = small_world(seed, prng, /*domain_span=*/3,
                                   /*stream_span=*/3, /*min_queries=*/3,
                                   /*query_span=*/3);

  engine::ChaosConfig cfg;
  cfg.events = 30 + static_cast<int>(prng.index(11));
  cfg.threads = opt.threads;
  const engine::ChaosReport report =
      engine::run_churn(w.net, w.wl.catalog, w.wl.queries, 4,
                        engine::Algorithm::kTopDown, seed, cfg);
  print_digest(opt, "churn " + std::to_string(seed), report.digest);
  if (report.violations != 0) {
    log.fail("churn: validator violations: " + report.violation_detail);
  }
  if (!report.all_resumed) {
    log.fail("churn: queries left suspended after full restoration");
  }
  if (!report.converged) {
    std::ostringstream os;
    os << "churn: no convergence: final " << report.final_cost << " vs fresh "
       << report.fresh_cost;
    log.fail(os.str());
  }
}

/// One registration-churn iteration: random world and query pool spread
/// over three tenants, a seeded register/unregister schedule through
/// admission control (roughly half the iterations run capacity-bound, and
/// some replay a scenario churn script instead of injector draws), with the
/// validator sweeping every event inside run_registration_churn. Fails on
/// any validator violation, on an admitted plan raising the over-capacity
/// count, and on the resume-backoff bound.
void check_register_churn_instance(std::uint64_t seed, const Options& opt,
                                   IterationLog& log) {
  Prng prng(seed);
  SmallWorld w = small_world(seed, prng, /*domain_span=*/3, /*stream_span=*/4,
                             /*min_queries=*/4, /*query_span=*/4);
  for (std::size_t i = 0; i < w.wl.queries.size(); ++i) {
    w.wl.queries[i].tenant = static_cast<std::uint32_t>(i % 3);
  }

  engine::RegistrationChurnConfig cfg;
  cfg.events = 32 + static_cast<int>(prng.index(17));
  cfg.settle_every = 4 + static_cast<int>(prng.index(5));
  cfg.quota_probability = 0.05;
  cfg.threads = opt.threads;
  if (prng.chance(0.5)) {
    // Capacity-bound iteration: learn the uncapacitated peak, then churn
    // with a budget below it so admission must price, degrade and reject.
    engine::Middleware probe(w.net, w.wl.catalog, 4,
                             engine::Algorithm::kTopDown, seed);
    bool all = true;
    for (const query::Query& q : w.wl.queries) {
      all = probe.deploy(q).feasible && all;
    }
    double peak = 0.0;
    for (const double l : probe.node_loads()) peak = std::max(peak, l);
    if (all && peak > 0.0) {
      cfg.node_capacity = peak * prng.uniform(0.5, 0.9);
    }
  }

  const bool scripted = prng.chance(0.3);
  const std::vector<engine::ChaosEvent> script =
      scripted ? workload::make_churn_script(w.net, w.wl.catalog,
                                             w.wl.queries.size(), seed ^ 0x5C,
                                             cfg.events)
               : std::vector<engine::ChaosEvent>{};
  const engine::RegistrationChurnReport report =
      engine::run_registration_churn(w.net, w.wl.catalog, w.wl.queries, 4,
                                     engine::Algorithm::kTopDown, seed, cfg,
                                     script);
  print_digest(opt, "register-churn " + std::to_string(seed), report.digest);
  if (report.violations != 0) {
    log.fail("register-churn: validator violations: " +
             report.violation_detail);
  }
  if (report.capacity_violations != 0) {
    std::ostringstream os;
    os << "register-churn: " << report.capacity_violations
       << " admitted plans raised the over-capacity count";
    log.fail(os.str());
  }
  if (!report.backoff_bounded) {
    std::ostringstream os;
    os << "register-churn: " << report.resume_failures
       << " resume failures exceed the backoff bound";
    log.fail(os.str());
  }
  if (opt.verbose) {
    std::cout << "seed " << seed << ": reg " << report.registrations
              << " rej " << report.rejections << " unreg "
              << report.unregistrations << (scripted ? " scripted" : "")
              << " parity " << (report.parity_ok ? 1 : 0)
              << (log.failures ? " FAIL" : " ok") << '\n';
  }
}

/// One loss-fuzz iteration: a seeded loss-rate sweep through the chaos
/// harness with the delivery contract armed. Each iteration draws its own
/// per-link loss ceiling in [0.5%, 5%] — always within what the default
/// retry budget tolerates — mixes loss/jitter/queue-pressure events into
/// the usual crash/flap churn, and requires the post-churn lossy run to
/// deliver exactly the loss-free baseline counts with zero tuples lost
/// after retries. With --digest the transcript (which includes the
/// delivered/retransmit counts) must be identical across --threads values.
void check_loss_instance(std::uint64_t seed, const Options& opt,
                         IterationLog& log) {
  Prng prng(seed);
  const SmallWorld w = small_world(seed, prng, /*domain_span=*/2,
                                   /*stream_span=*/1, /*min_queries=*/3,
                                   /*query_span=*/2);

  engine::ChaosConfig cfg;
  cfg.events = 24;
  cfg.threads = opt.threads;
  cfg.loss_probability = 0.35;
  cfg.jitter_probability = 0.2;
  cfg.queue_probability = 0.15;
  cfg.max_link_loss = prng.uniform(0.005, 0.05);  // the loss-rate sweep
  cfg.delivery_check = true;
  cfg.delivery_duration_s = 15.0;
  const engine::ChaosReport report =
      engine::run_churn(w.net, w.wl.catalog, w.wl.queries, 4,
                        engine::Algorithm::kTopDown, seed, cfg);
  print_digest(opt, "loss " + std::to_string(seed), report.digest);
  if (report.violations != 0) {
    log.fail("loss: validator violations: " + report.violation_detail);
  }
  if (!report.all_resumed) {
    log.fail("loss: queries left suspended after full restoration");
  }
  if (!report.delivery_checked) {
    log.fail("loss: delivery check could not deploy the surviving actives");
  } else if (!report.delivery_ok) {
    std::ostringstream os;
    os << "loss: delivery contract broken at max_link_loss "
       << cfg.max_link_loss << " (delivered " << report.delivered_total
       << ", retransmits " << report.retransmits_total << ")";
    log.fail(os.str());
  }
}

/// One scenario-fuzz iteration: a catalogue entry re-seeded and jittered,
/// replayed through the chaos harness under a random optimizer.
void check_scenario_instance(std::uint64_t seed, const Options& opt,
                             IterationLog& log) {
  Prng prng(seed);
  const auto& names = workload::scenario_names();
  workload::ScenarioSpec spec =
      workload::scenario_spec(names[prng.index(names.size())]);
  spec.seed = seed;
  spec.num_queries = 3 + static_cast<int>(prng.index(3));
  spec.failure_rounds = 1 + static_cast<int>(prng.index(3));
  const workload::Scenario sc = workload::build_scenario(spec);

  const engine::Algorithm alg = draw_algorithm(prng);

  engine::ChaosConfig cfg;
  cfg.events = 16;
  cfg.threads = opt.threads;
  cfg.delivery_check = true;
  cfg.rate_modulation = sc.rate_modulation();
  const engine::ChaosReport report =
      engine::run_churn(sc.net, sc.workload.catalog, sc.workload.queries, 4,
                        alg, seed, cfg, sc.script);
  print_digest(opt, "scenario " + std::to_string(seed) + ' ' + spec.name,
               report.digest);
  if (report.violations != 0) {
    log.fail("scenario " + spec.name +
             ": validator violations: " + report.violation_detail);
  }
  if (!report.all_resumed) {
    log.fail("scenario " + spec.name + ": queries left suspended");
  }
  if (!report.converged) {
    std::ostringstream os;
    os << "scenario " << spec.name << ": no convergence: final "
       << report.final_cost << " vs fresh " << report.fresh_cost;
    log.fail(os.str());
  }
  if (!report.delivery_checked) {
    log.fail("scenario " + spec.name + ": delivery check did not run");
  } else if (!report.delivery_ok) {
    log.fail("scenario " + spec.name + ": delivery contract broken");
  }
}

/// One gray-failure iteration: a seeded relay-shaped star world, a drawn
/// gray intensity, and engine::run_gray's three sub-runs. The soft goodput
/// floor here (on >= 0.95 * off) keeps the fuzz flake-free across drawn
/// intensities; the strict 1.5x detection contract is asserted under the
/// controlled defaults in health_test.cpp and measured by micro_health.
void check_gray_instance(std::uint64_t seed, const Options& opt,
                         IterationLog& log) {
  Prng prng(seed);
  const double rate = 15.0 + prng.uniform(0.0, 10.0);
  const double sel = 0.005 + prng.uniform(0.0, 0.045);
  const workload::RelayStar w = workload::make_relay_star(rate, sel);
  const engine::Algorithm alg = draw_algorithm(prng);

  engine::GrayConfig cfg;
  cfg.epochs = 4;
  cfg.epoch_s = 8.0;
  cfg.threads = opt.threads;
  cfg.degradation.slowdown = 1.0 + prng.uniform(1.0, 3.0);
  cfg.degradation.loss = prng.uniform(0.4, 0.7);
  // max_cs covers the whole world: a single-cluster hierarchy keeps the
  // heuristics' relay placement independent of the clustering seed.
  const engine::GrayReport report =
      engine::run_gray(w.net, w.catalog, {w.query}, 8, alg, seed, cfg);
  print_digest(opt, "gray " + std::to_string(seed), report.digest);
  if (report.violations != 0) {
    log.fail("gray: validator violations: " + report.violation_detail);
  }
  if (report.false_positives != 0) {
    std::ostringstream os;
    os << "gray: " << report.false_positives
       << " quarantines in the healthy twin";
    log.fail(os.str());
  }
  if (report.goodput_on < 0.95 * report.goodput_off) {
    std::ostringstream os;
    os << "gray: detector-on goodput " << report.goodput_on
       << " undercuts detector-off " << report.goodput_off;
    log.fail(os.str());
  }
}

/// One recovery iteration: a seeded relay-shaped star world (same geometry
/// as --gray, so the join lands on a crashable non-endpoint relay), drawn
/// stream rates, checkpoint interval and fault timing, and
/// engine::run_recovery's three arms. The result-transparency contract is
/// asserted strictly — a faulted checkpointed run must deliver the
/// fault-free twin's per-query counts bit for bit with zero loss — while
/// the volatile teeth stay a one-sided sanity bound (a drawn crash window
/// can land where little state was at stake).
void check_recovery_instance(std::uint64_t seed, const Options& opt,
                             IterationLog& log) {
  Prng prng(seed);
  const double rate = 15.0 + prng.uniform(0.0, 10.0);
  const double sel = 0.01 + prng.uniform(0.0, 0.04);
  const workload::RelayStar w = workload::make_relay_star(rate, sel);
  const engine::Algorithm alg = draw_algorithm(prng);

  engine::RecoveryConfig cfg;
  cfg.threads = opt.threads;
  cfg.events = 4 + static_cast<int>(prng.index(5));
  cfg.checkpoint_interval_s = 2.0 + prng.uniform(0.0, 6.0);
  cfg.crash_at_s = 12.0 + prng.uniform(0.0, 8.0);
  // Crash windows stay well inside the retry chain's reach so in-flight
  // tuples survive on the retry budget (lost-after-retries would be a
  // harness artefact, not a checkpoint bug).
  cfg.crash_len_s = 2.0 + prng.uniform(0.0, 3.0);
  cfg.migrate_at_s = 28.0 + prng.uniform(0.0, 8.0);
  const engine::RecoveryReport report =
      engine::run_recovery(w.net, w.catalog, {w.query}, 8, alg, seed, cfg);
  print_digest(opt, "recovery " + std::to_string(seed), report.digest);
  if (report.violations != 0) {
    log.fail("recovery: validator violations: " + report.violation_detail);
  }
  if (!report.counts_match) {
    std::ostringstream os;
    os << "recovery: faulted run delivered " << report.faulted_delivered
       << ", twin " << report.twin_delivered;
    log.fail(os.str());
  }
  if (report.faulted_lost != 0) {
    std::ostringstream os;
    os << "recovery: " << report.faulted_lost << " tuples lost after retries";
    log.fail(os.str());
  }
  if (report.epochs_committed < 1) {
    log.fail("recovery: no epoch ever committed");
  }
  if (report.volatile_delivered > report.twin_delivered) {
    std::ostringstream os;
    os << "recovery: volatile arm over-delivered (" << report.volatile_delivered
       << " > " << report.twin_delivered << ")";
    log.fail(os.str());
  }
}

/// Fails two links, one on a leaf coordinator's cost path, and restores
/// them, one event per sync, on a sparse-tier table with a small row cap;
/// after each event the hierarchy refreshes its coordinator matrix in place
/// and every coordinator pair's level-2 estimate, which reads it, must equal
/// a fresh cost_matrix bit for bit. The build's matrix and each fresh one,
/// which the sparse tier prices region by region, must equal a dense
/// table's costs. Delays read before the events, which leave delay passes
/// paused across syncs, must equal a fresh table's after each.
void check_matrix_updates(
    net::Network& net, const std::vector<std::vector<net::NodeId>>& partitions,
    int max_cs, Prng prng, IterationLog& log) {
  net::RoutingOptions ropts;
  ropts.mode = net::RoutingMode::kSparse;
  ropts.max_cached_rows = 2 + prng.index(4);  // [2, 5]
  net::RoutingTables rt = net::RoutingTables::build(net, ropts);
  cluster::Hierarchy h =
      cluster::Hierarchy::build_partitioned(net, rt, partitions, max_cs, prng);
  if (h.height() < 2) return;
  std::vector<net::NodeId> coords;
  for (const cluster::Cluster& cl : h.level(1)) {
    coords.push_back(cl.coordinator);
  }
  const std::size_t m = coords.size();
  std::vector<double> fresh(m * m);
  const auto matches_dense = [&](const net::RoutingTables& dense,
                                 const std::string& when) {
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        const double want = dense.cost(coords[i], coords[j]);
        if (std::memcmp(&fresh[i * m + j], &want, sizeof want) != 0) {
          std::ostringstream os;
          os << "matrix: " << when << ", entry (" << coords[i] << ", "
             << coords[j] << ") = " << std::hexfloat << fresh[i * m + j]
             << " but a dense table holds " << want;
          log.fail(os.str());
          return false;
        }
      }
    }
    return true;
  };
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      fresh[i * m + j] = h.est_cost(coords[i], coords[j], 2);
    }
  }
  if (!matches_dense(net::RoutingTables::build(net), "at build")) return;

  const std::size_t c = prng.index(m);
  const std::size_t d = (c + 1 + prng.index(m - 1)) % m;
  const std::vector<net::NodeId> path = rt.cost_path(coords[c], coords[d]);
  if (path.size() < 2) return;  // the two are cut off from each other
  const std::size_t hop = prng.index(path.size() - 1);
  std::vector<std::pair<net::NodeId, net::NodeId>> down{
      {path[hop], path[hop + 1]}};
  const auto same_adjacency = [&](const net::Link& l) {
    return std::minmax(l.a, l.b) == std::minmax(path[hop], path[hop + 1]);
  };
  std::uint32_t idx = 0;
  do {
    idx = static_cast<std::uint32_t>(prng.index(net.link_count()));
  } while (!net.link_up(idx) || same_adjacency(net.links()[idx]));
  down.emplace_back(net.links()[idx].a, net.links()[idx].b);

  // Each read settles its row's delay pass only as far as a random node.
  Prng reads = prng.fork(7);
  std::vector<std::pair<net::NodeId, net::NodeId>> read;
  const auto event = [&](bool restore, std::size_t k) {
    for (int r = 0; r < 3; ++r) {
      const auto src = static_cast<net::NodeId>(reads.index(net.node_count()));
      const auto dst = static_cast<net::NodeId>(reads.index(net.node_count()));
      rt.delay_ms(src, dst);
      read.emplace_back(src, dst);
    }
    const auto [a, b] = down[k];
    if (restore) {
      net.restore_link(a, b);
    } else {
      net.fail_link(a, b);
    }
    rt.sync(net);
    std::ostringstream when;
    when << "after " << (restore ? "restoring " : "failing ") << a << '-' << b;
    const net::RoutingTables fresh_rt = net::RoutingTables::build(net);
    for (const auto& [src, dst] : read) {
      const double got = rt.delay_ms(src, dst);
      const double want = fresh_rt.delay_ms(src, dst);
      if (std::memcmp(&got, &want, sizeof got) != 0) {
        std::ostringstream os;
        os << "delay: " << when.str() << ", delay_ms(" << src << ", " << dst
           << ") = " << std::hexfloat << got << " but a fresh table holds "
           << want;
        log.fail(os.str());
        return;
      }
    }
    h.refresh(rt);
    rt.cost_matrix(coords.data(), m, fresh.data());
    if (!matches_dense(fresh_rt, when.str())) return;
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        const double got = h.est_cost(coords[i], coords[j], 2);
        if (std::memcmp(&got, &fresh[i * m + j], sizeof got) != 0) {
          std::ostringstream os;
          os << "matrix: " << when.str() << ", est_cost(" << coords[i] << ", "
             << coords[j] << ", 2) = " << std::hexfloat << got
             << " but a fresh matrix holds " << fresh[i * m + j];
          log.fail(os.str());
          return;
        }
      }
    }
  };
  event(false, 0);
  event(false, 1);
  event(true, 0);
  event(true, 1);
}

/// One oracle-fuzz iteration: estimate-vs-exact sweep plus dense-vs-sparse
/// differential planning over a partitioned hierarchy, then the in-place
/// coordinator-matrix updates of a sparse-tier table over the same world.
void check_oracle_instance(std::uint64_t seed, const Options& opt,
                           opt::PlanWorkspace& ws, IterationLog& log) {
  Prng prng(seed);
  net::TransitStubParams p;
  p.transit_count = 1 + static_cast<int>(prng.index(3));
  p.stub_domains_per_transit = 1 + static_cast<int>(prng.index(3));
  p.stub_domain_size = 2 + static_cast<int>(prng.index(5));
  net::Network net = net::make_transit_stub(p, prng);
  const net::RoutingTables rt = net::RoutingTables::build(net);

  std::vector<std::vector<net::NodeId>> partitions;
  std::vector<net::NodeId> transit;
  for (int t = 0; t < p.transit_count; ++t) {
    transit.push_back(static_cast<net::NodeId>(t));
  }
  partitions.push_back(std::move(transit));
  for (int d = 0; d < net::stub_domain_count(p); ++d) {
    partitions.push_back(net::stub_domain_members(p, d));
  }
  const int max_cs = 3 + static_cast<int>(prng.index(3));  // [3, 5]
  Prng hp(seed ^ 0x9E3779B97F4A7C15ULL);
  const cluster::Hierarchy hierarchy =
      cluster::Hierarchy::build_partitioned(net, rt, partitions, max_cs, hp);

  opt::SparseOracleOptions oopts;
  oopts.pivots_per_cluster = prng.chance(0.5) ? 2 : 4;  // hit both sketch paths
  const opt::SparseOracle oracle(net, rt, hierarchy, oopts);

  // Estimate-vs-exact sweep: validate_pair CHECKs the slack contract, so a
  // violation surfaces as an exception failing the iteration.
  const auto n = static_cast<net::NodeId>(net.node_count());
  for (net::NodeId a = 0; a < n; a += 2) {
    for (net::NodeId b = 0; b < n; b += 3) oracle.validate_pair(a, b);
  }

  workload::WorkloadParams wp;
  wp.num_streams = 5 + static_cast<int>(prng.index(3));
  wp.min_joins = 2;
  wp.max_joins = 4;
  Prng wprng(seed + 1);
  const workload::Workload wl =
      workload::make_workload(net, wp, 3, wprng);

  opt::OptimizerEnv dense_env;
  dense_env.catalog = &wl.catalog;
  dense_env.network = &net;
  dense_env.routing = &rt;
  dense_env.hierarchy = &hierarchy;
  dense_env.workspace = &ws;
  opt::OptimizerEnv sparse_env = dense_env;
  sparse_env.sparse = &oracle;

  // Worst pairwise slack the oracle can inject into any priced edge.
  const double max_slack =
      cluster::theorem1_slack(hierarchy, hierarchy.height());
  const double tol = 1e-6;

  opt::ExhaustiveOptimizer dense_ex(dense_env), sparse_ex(sparse_env);
  opt::TopDownOptimizer dense_td(dense_env), sparse_td(sparse_env);
  opt::BottomUpOptimizer dense_bu(dense_env), sparse_bu(sparse_env);
  const std::vector<std::pair<opt::Optimizer*, opt::Optimizer*>> pairs = {
      {&dense_ex, &sparse_ex}, {&dense_td, &sparse_td}, {&dense_bu, &sparse_bu}};
  for (const query::Query& q : wl.queries) {
    for (const auto& [dense_alg, sparse_alg] : pairs) {
      const opt::OptimizeResult dense_r = dense_alg->optimize(q);
      const opt::OptimizeResult sparse_r = sparse_alg->optimize(q);
      if (opt.digest) {
        std::cout << "oracle " << seed << ' ' << sparse_alg->name() << ' '
                  << q.name << ' ' << std::hexfloat << sparse_r.actual_cost
                  << std::defaultfloat << '\n';
      }
      if (dense_r.feasible != sparse_r.feasible) {
        log.fail(std::string(sparse_alg->name()) +
                 ": feasibility diverges dense=" +
                 std::to_string(dense_r.feasible) +
                 " sparse=" + std::to_string(sparse_r.feasible));
        continue;
      }
      if (!sparse_r.feasible) continue;
      verify::ValidateOptions vopts;
      vopts.query = &q;
      vopts.planned_cost = sparse_r.planned_cost;
      const auto violations =
          verify::validate(sparse_r.deployment, sparse_env, vopts);
      if (!violations.empty()) {
        log.fail(std::string(sparse_alg->name()) +
                 " (sparse): validator violations:\n" +
                 verify::describe(violations));
      }
      // The sparse exhaustive search minimizes a pricing that differs from
      // the truth by at most max_slack per edge, so its actual cost stays
      // within one slack budget of each deployment's edge-rate mass of the
      // dense optimum. Heuristics recurse on estimates in a way that
      // compounds, so the cost bound is asserted for exhaustive only.
      if (dense_alg == &dense_ex) {
        double rate_mass = 0.0;
        for (double r : edge_rates(dense_r.deployment)) rate_mass += r;
        for (double r : edge_rates(sparse_r.deployment)) rate_mass += r;
        const double budget = rate_mass * max_slack;
        if (sparse_r.actual_cost >
            dense_r.actual_cost + budget +
                tol * (1.0 + dense_r.actual_cost + budget)) {
          std::ostringstream os;
          os << "sparse exhaustive exceeds the slack budget: "
             << sparse_r.actual_cost << " > " << dense_r.actual_cost << " + "
             << budget;
          log.fail(os.str());
        }
      }
    }
  }
  // On a fork taken after the draws above, so they stay as they were.
  check_matrix_updates(net, partitions, max_cs, prng.fork(5), log);
}

int run(const Options& opt) {
  opt::PlanWorkspace ws(opt.threads);
  int failed_iterations = 0;
  for (int i = 0; i < opt.iterations; ++i) {
    const std::uint64_t seed = opt.seed + static_cast<std::uint64_t>(i);
    IterationLog log{seed};
    try {
      switch (opt.mode) {
        case Mode::kPlan: check_instance(seed, opt, ws, log); break;
        case Mode::kChurn: check_churn_instance(seed, opt, log); break;
        case Mode::kRegisterChurn:
          check_register_churn_instance(seed, opt, log);
          break;
        case Mode::kLoss: check_loss_instance(seed, opt, log); break;
        case Mode::kScenario: check_scenario_instance(seed, opt, log); break;
        case Mode::kOracle: check_oracle_instance(seed, opt, ws, log); break;
        case Mode::kGray: check_gray_instance(seed, opt, log); break;
        case Mode::kRecovery: check_recovery_instance(seed, opt, log); break;
      }
    } catch (const std::exception& e) {
      log.fail(std::string("exception: ") + e.what());
    }
    if (log.failures > 0) ++failed_iterations;
    if ((i + 1) % 100 == 0 && !opt.verbose) {
      std::cout << (i + 1) << "/" << opt.iterations << " instances, "
                << failed_iterations << " failing\n";
    }
  }
  std::cout << "differential fuzz: " << opt.iterations << " instances from seed "
            << opt.seed << ", " << failed_iterations << " failing\n";
  return failed_iterations;
}

}  // namespace
}  // namespace iflow

int main(int argc, char** argv) {
  using iflow::Mode;
  const std::pair<const char*, Mode> mode_flags[] = {
      {"--churn", Mode::kChurn},
      {"--register-churn", Mode::kRegisterChurn},
      {"--loss", Mode::kLoss},
      {"--scenario", Mode::kScenario},
      {"--oracle", Mode::kOracle},
      {"--gray", Mode::kGray},
      {"--recovery", Mode::kRecovery},
  };
  const auto usage = [] {
    std::cerr << "usage: differential_fuzz [--iterations N] [--seed S] "
                 "[--threads T] [--digest] [--verbose] [--churn | "
                 "--register-churn | --loss | --scenario | --oracle | "
                 "--gray | --recovery]\n";
    return 2;
  };
  iflow::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    auto numeric = [&](const char* text) -> std::uint64_t {
      char* end = nullptr;
      const std::uint64_t v = std::strtoull(text, &end, 10);
      if (end == text || *end != '\0') {
        std::cerr << arg << " needs a non-negative integer, got '" << text
                  << "'\n";
        std::exit(2);
      }
      return v;
    };
    const auto mode = std::find_if(
        std::begin(mode_flags), std::end(mode_flags),
        [&](const auto& f) { return arg == f.first; });
    if (mode != std::end(mode_flags)) {
      if (opt.mode != Mode::kPlan) return usage();  // one mode per run
      opt.mode = mode->second;
    } else if (arg == "--iterations") {
      opt.iterations = static_cast<int>(numeric(value()));
    } else if (arg == "--seed") {
      opt.seed = numeric(value());
    } else if (arg == "--threads") {
      opt.threads = static_cast<int>(numeric(value()));
    } else if (arg == "--verbose") {
      opt.verbose = true;
    } else if (arg == "--digest") {
      opt.digest = true;
    } else {
      return usage();
    }
  }
  return iflow::run(opt);
}
