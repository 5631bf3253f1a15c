// iflow_shell — scriptable driver for the whole system.
//
// Reads commands from stdin (or a file passed as argv[1]) and lets you
// build a network, register streams, pick an optimizer and submit SQL
// queries, then execute everything in the discrete-event engine:
//
//   network transit-stub 2 2 6 42     # transit, domains/transit, size, seed
//   stream ORDERS 3 80 120            # name, source node, tuples/s, bytes
//   stream SHIPMENTS 11 40 90
//   selectivity ORDERS SHIPMENTS 0.01
//   hierarchy 6                       # build max_cs=6 clustering
//   algorithm top-down                # or bottom-up / exhaustive / ...
//   reuse on
//   submit 25 SELECT ORDERS.id FROM ORDERS, SHIPMENTS
//          WHERE ORDERS.id = SHIPMENTS.order_id;
//   show deployments
//   run 20                            # execute 20 simulated seconds
//
// Lines starting with '#' are comments. SQL statements end with ';'.
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "cluster/hierarchy.h"
#include "common/table.h"
#include "engine/simulation.h"
#include "net/gtitm.h"
#include "opt/bottom_up.h"
#include "opt/exhaustive.h"
#include "opt/in_network.h"
#include "opt/plan_then_deploy.h"
#include "opt/relaxation.h"
#include "opt/top_down.h"
#include "sql/binder.h"

using namespace iflow;

namespace {

class Shell {
 public:
  int run(std::istream& in) {
    std::string line;
    while (std::getline(in, line)) {
      // SQL statements may span lines; accumulate until ';'.
      if (pending_.empty() && (line.empty() || line[0] == '#')) continue;
      pending_ += (pending_.empty() ? "" : " ") + line;
      if (needs_semicolon() && pending_.find(';') == std::string::npos) {
        continue;
      }
      const std::string command = std::move(pending_);
      pending_.clear();
      try {
        execute(command);
      } catch (const std::exception& e) {
        std::cout << "error: " << e.what() << "\n";
        had_error_ = true;
      }
    }
    return had_error_ ? 1 : 0;
  }

 private:
  bool needs_semicolon() const {
    std::istringstream probe(pending_);
    std::string word;
    probe >> word;
    return word == "submit";
  }

  void execute(const std::string& command) {
    std::istringstream args(command);
    std::string verb;
    args >> verb;
    if (verb == "network") {
      cmd_network(args);
    } else if (verb == "stream") {
      cmd_stream(args);
    } else if (verb == "selectivity") {
      cmd_selectivity(args);
    } else if (verb == "hierarchy") {
      cmd_hierarchy(args);
    } else if (verb == "algorithm") {
      args >> algorithm_;
      std::cout << "algorithm: " << algorithm_ << "\n";
    } else if (verb == "reuse") {
      std::string flag;
      args >> flag;
      reuse_ = (flag == "on");
      std::cout << "reuse: " << (reuse_ ? "on" : "off") << "\n";
    } else if (verb == "submit") {
      cmd_submit(args);
    } else if (verb == "show") {
      cmd_show(args);
    } else if (verb == "run") {
      cmd_run(args);
    } else {
      throw std::runtime_error("unknown command '" + verb + "'");
    }
  }

  void cmd_network(std::istringstream& args) {
    std::string kind;
    int transit = 2, domains = 2, size = 6;
    std::uint64_t seed = 1;
    args >> kind >> transit >> domains >> size >> seed;
    IFLOW_CHECK_MSG(kind == "transit-stub", "only transit-stub is supported");
    net::TransitStubParams p;
    p.transit_count = transit;
    p.stub_domains_per_transit = domains;
    p.stub_domain_size = size;
    Prng prng(seed);
    net_ = std::make_unique<net::Network>(net::make_transit_stub(p, prng));
    routing_ = std::make_unique<net::RoutingTables>(
        net::RoutingTables::build(*net_));
    hierarchy_.reset();
    std::cout << "network: " << net_->node_count() << " nodes, "
              << net_->link_count() << " links\n";
  }

  void cmd_stream(std::istringstream& args) {
    require_network();
    std::string name;
    net::NodeId node;
    double rate, width;
    args >> name >> node >> rate >> width;
    IFLOW_CHECK_MSG(node < net_->node_count(), "source node out of range");
    const auto id = catalog_.add_stream(name, node, rate, width);
    std::cout << "stream " << name << " (id " << id << ") at node " << node
              << "\n";
  }

  void cmd_selectivity(std::istringstream& args) {
    std::string a, b;
    double sel;
    args >> a >> b >> sel;
    catalog_.set_selectivity(resolve(a), resolve(b), sel);
  }

  void cmd_hierarchy(std::istringstream& args) {
    require_network();
    int max_cs = 8;
    std::uint64_t seed = 7;
    args >> max_cs;
    args >> seed;
    Prng prng(seed);
    hierarchy_ = std::make_unique<cluster::Hierarchy>(
        cluster::Hierarchy::build(*net_, *routing_, max_cs, prng));
    std::cout << "hierarchy: " << hierarchy_->height() << " levels (max_cs="
              << max_cs << ")\n";
  }

  void cmd_submit(std::istringstream& args) {
    require_network();
    net::NodeId sink;
    args >> sink;
    IFLOW_CHECK_MSG(sink < net_->node_count(), "sink node out of range");
    std::string sql_text;
    std::getline(args, sql_text);
    // UNION ALL chains compile into one branch query per block, all
    // delivering to the same sink.
    const std::vector<sql::BoundQuery> branches = sql::compile_union(
        sql_text, catalog_, static_cast<query::QueryId>(queries_.size()),
        sink);
    for (const sql::BoundQuery& bound : branches) {
      if (bound.has_cross_product) {
        std::cout << "note: query contains a cross product\n";
      }
      auto optimizer = make_optimizer();
      const opt::OptimizeResult res = optimizer->optimize(bound.query);
      IFLOW_CHECK(res.feasible);
      query::RateModel rates(catalog_, bound.query);
      if (reuse_) {
        advert::advertise_deployment(registry_, res.deployment, rates);
      }
      std::cout << "Q" << bound.query.id << " deployed by "
                << optimizer->name() << ": cost " << res.actual_cost
                << "/unit time, " << res.deployment.ops.size()
                << " operators, " << res.plans_considered
                << " plans examined\n";
      queries_.push_back(bound.query);
      deployments_.push_back(res.deployment);
      total_cost_ += res.actual_cost;
    }
  }

  void cmd_show(std::istringstream& args) {
    std::string what;
    args >> what;
    if (what == "deployments") {
      for (std::size_t i = 0; i < deployments_.size(); ++i) {
        std::cout << "Q" << queries_[i].id << " -> sink "
                  << deployments_[i].sink << ":\n";
        for (const query::DeployedOp& op : deployments_[i].ops) {
          std::cout << "  op mask 0x" << std::hex << op.mask << std::dec
                    << " at node " << op.node << " (" << op.out_bytes_rate
                    << " B/s out)\n";
        }
      }
    } else if (what == "costs") {
      std::cout << "total planned cost: " << total_cost_ << "/unit time over "
                << deployments_.size() << " queries\n";
    } else {
      throw std::runtime_error("show expects 'deployments' or 'costs'");
    }
  }

  void cmd_run(std::istringstream& args) {
    require_network();
    double seconds = 20.0;
    args >> seconds;
    engine::EngineConfig cfg;
    cfg.duration_s = seconds;
    // Sized to compare measured with planned cost (DESIGN.md §11).
    cfg.reliability.drain_s = 0.0;
    cfg.reliability.ack_timeout_s = 1.0;
    cfg.reliability.max_backoff_s = 4.0;
    engine::Simulation sim(*net_, *routing_, catalog_, cfg, 99);
    for (std::size_t i = 0; i < deployments_.size(); ++i) {
      query::RateModel rates(catalog_, queries_[i]);
      sim.deploy(deployments_[i], rates);
    }
    sim.run();
    TextTable t({"query", "delivered", "rate/s"});
    for (const query::Query& q : queries_) {
      t.row()
          .cell(static_cast<int>(q.id))
          .cell(sim.tuples_delivered(q.id))
          .cell(sim.delivered_rate(q.id));
    }
    t.print(std::cout);
    std::cout << "measured cost " << sim.measured_cost_per_second()
              << "/s vs planned " << total_cost_ << "/s\n";
  }

  void require_network() const {
    IFLOW_CHECK_MSG(net_ != nullptr, "run 'network ...' first");
  }

  query::StreamId resolve(const std::string& name) const {
    const query::StreamId id = catalog_.find(name);
    IFLOW_CHECK_MSG(id != query::kInvalidStream, "unknown stream " << name);
    return id;
  }

  std::unique_ptr<opt::Optimizer> make_optimizer() {
    opt::OptimizerEnv env;
    env.catalog = &catalog_;
    env.network = net_.get();
    env.routing = routing_.get();
    env.hierarchy = hierarchy_.get();
    env.registry = &registry_;
    env.reuse = reuse_;
    if (algorithm_ == "top-down" || algorithm_ == "bottom-up") {
      IFLOW_CHECK_MSG(hierarchy_ != nullptr,
                      "run 'hierarchy <max_cs>' before hierarchical planning");
    }
    if (algorithm_ == "top-down") {
      return std::make_unique<opt::TopDownOptimizer>(env);
    }
    if (algorithm_ == "bottom-up") {
      return std::make_unique<opt::BottomUpOptimizer>(env);
    }
    if (algorithm_ == "exhaustive") {
      return std::make_unique<opt::ExhaustiveOptimizer>(env);
    }
    if (algorithm_ == "plan-then-deploy") {
      return std::make_unique<opt::PlanThenDeployOptimizer>(env);
    }
    if (algorithm_ == "relaxation") {
      return std::make_unique<opt::RelaxationOptimizer>(env, 1);
    }
    if (algorithm_ == "in-network") {
      return std::make_unique<opt::InNetworkOptimizer>(env, 1);
    }
    throw std::runtime_error("unknown algorithm '" + algorithm_ + "'");
  }

  std::unique_ptr<net::Network> net_;
  std::unique_ptr<net::RoutingTables> routing_;
  std::unique_ptr<cluster::Hierarchy> hierarchy_;
  query::Catalog catalog_;
  advert::Registry registry_;
  std::string algorithm_ = "exhaustive";
  bool reuse_ = true;
  std::vector<query::Query> queries_;
  std::vector<query::Deployment> deployments_;
  double total_cost_ = 0.0;
  std::string pending_;
  bool had_error_ = false;
};

}  // namespace

int main(int argc, char** argv) {
  Shell shell;
  if (argc > 1) {
    std::ifstream file(argv[1]);
    if (!file) {
      std::cerr << "cannot open " << argv[1] << "\n";
      return 1;
    }
    return shell.run(file);
  }
  return shell.run(std::cin);
}
