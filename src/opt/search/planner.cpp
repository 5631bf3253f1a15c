#include "opt/search/planner.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>

#if defined(__BMI2__)
#include <immintrin.h>
#endif

namespace iflow::opt {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Below this many candidate sites a parallel dispatch costs more than the
/// sweep it covers (per-cluster hierarchical calls are this small).
constexpr std::size_t kMinParallelSites = 32;

int popcount(query::Mask m) { return std::popcount(m); }

/// Rank of submask `m` within the subset lattice of `target` (bit-packing /
/// pext): subsets of a k-bit target map densely onto [0, 2^k), so DP tables
/// stay compact even for sparse view-planner targets.
std::uint32_t compress_mask(query::Mask m, query::Mask target) {
#if defined(__BMI2__)
  return static_cast<std::uint32_t>(_pext_u64(m, target));
#else
  std::uint32_t r = 0;
  int out = 0;
  for (query::Mask t = target; t != 0; t &= t - 1, ++out) {
    if (m & t & (~t + 1)) r |= std::uint32_t{1} << out;
  }
  return r;
#endif
}

/// Inverse of compress_mask (pdep).
query::Mask expand_mask(std::uint32_t r, query::Mask target) {
#if defined(__BMI2__)
  return _pdep_u64(r, target);
#else
  query::Mask m = 0;
  int out = 0;
  for (query::Mask t = target; t != 0; t &= t - 1, ++out) {
    if (r & (std::uint32_t{1} << out)) m |= t & (~t + 1);
  }
  return m;
#endif
}

/// How the cheapest way of making a mask available at a site was achieved:
/// either a unit streamed directly, or a join op at some site plus the
/// transfer edge.
struct GChoice {
  int unit = -1;
  int op_site = -1;
};

/// One (A, B) split of a mask, pre-resolved to compressed table rows.
struct Split {
  std::uint32_t ar = 0;
  std::uint32_t br = 0;
};

/// Calls f(ar, br) for every split of rank `mr` in the documented order:
/// the lowest bit pinned to side A (no mirror duplicates), B running over
/// the nonempty submasks of the rest in descending order.
template <typename F>
void for_each_split(std::uint32_t mr, const F& f) {
  const std::uint32_t rest = mr ^ (mr & (~mr + 1u));
  for (std::uint32_t br = rest; br != 0; br = (br - 1) & rest) f(mr ^ br, br);
}

/// Runs f(begin, end) over [0, n): on the pool when one is given, inline
/// otherwise. The per-index work is identical either way, so the two modes
/// produce bitwise-identical tables.
template <typename F>
void sweep(ThreadPool* pool, std::size_t n, const F& f) {
  if (pool == nullptr) {
    f(std::size_t{0}, n);
    return;
  }
  pool->parallel_blocks(n, f);
}

}  // namespace

double count_plans(const std::vector<query::LeafUnit>& units,
                   query::Mask target, std::size_t site_count) {
  IFLOW_CHECK(target != 0);
  const int k = popcount(target);
  // ways[r*C + c] = number of ways to partition the submask of rank r into
  // exactly c units; one flat table, since the planner calls this on every
  // invocation.
  const std::uint32_t R = std::uint32_t{1} << k;
  const std::size_t C = static_cast<std::size_t>(k) + 1;
  std::vector<double> ways(std::size_t{R} * C, 0.0);
  ways[0] = 1.0;
  // Unit ranks, precomputed; units not covered by the target never match.
  std::vector<std::uint32_t> unit_rank(units.size());
  for (std::size_t u = 0; u < units.size(); ++u) {
    unit_rank[u] = (units[u].mask & ~target) == 0
                       ? compress_mask(units[u].mask, target)
                       : 0;  // rank 0 never matches a nonzero submask
  }
  for (std::uint32_t r = 1; r < R; ++r) {
    double* wr = ways.data() + std::size_t{r} * C;
    const std::uint32_t low = r & (~r + 1u);
    for (std::size_t u = 0; u < units.size(); ++u) {
      const std::uint32_t ur = unit_rank[u];
      if (ur == 0 || (ur & low) == 0 || (ur & ~r) != 0) continue;
      // A rank-s submask splits into at most popcount(s) < k units; the
      // entries past that are zero, and adding them would change nothing.
      const std::uint32_t s = r ^ ur;
      const double* sub = ways.data() + std::size_t{s} * C;
      const auto parts = static_cast<std::size_t>(std::popcount(s));
      for (std::size_t c = 0; c <= parts; ++c) wr[c + 1] += sub[c];
    }
  }
  double total = 0.0;
  const double* full = ways.data() + std::size_t{R - 1} * C;
  for (std::size_t c = 1; c < C; ++c) {
    if (full[c] == 0.0) continue;
    double trees = 1.0;
    for (int f = 2 * static_cast<int>(c) - 3; f >= 3; f -= 2) trees *= f;
    total += full[c] * trees *
             std::pow(static_cast<double>(site_count),
                      static_cast<double>(c) - 1.0);
  }
  return total;
}

PlannerResult plan_optimal(const PlannerInput& in, PlanWorkspace& ws) {
  IFLOW_CHECK(in.rates != nullptr);
  IFLOW_CHECK(in.dist.valid());
  IFLOW_CHECK(in.target != 0);
  IFLOW_CHECK_MSG(popcount(in.target) <= 12, "query too wide for the planner");
  IFLOW_CHECK(!in.sites.empty());
  const std::size_t S = in.sites.size();
  const std::size_t U = in.units.size();
  const query::Mask target = in.target;
  const int k = popcount(target);
  const std::uint32_t R = std::uint32_t{1} << k;  // table rows (subset ranks)
  const bool deliver = in.delivery != net::kInvalidNode;

  // Every table of this invocation comes from one arena grab. g has no row
  // for the full target: nothing reads it (the final selection prices the
  // target's units and best_op row directly).
  const std::size_t rs = std::size_t{R} * S;
  const std::size_t max_splits = std::size_t{1} << (k > 0 ? k - 1 : 0);
  ws.begin((2 * rs - S + S * S + U * S + S + U) * sizeof(double) +
           max_splits * sizeof(Split));
  double* g = ws.carve<double>(rs - S);
  double* best_op = ws.carve<double>(rs);
  // site_from[q*S+p] = dist(q→p): source-major so the relay update for a
  // fixed op site q walks destinations contiguously.
  double* site_from = ws.carve<double>(S * S);
  double* unit_site = ws.carve<double>(U * S);  // dist(unit u → site p)
  double* site_sink = ws.carve<double>(S);
  double* unit_sink = ws.carve<double>(U);
  Split* splits = ws.carve<Split>(max_splits);

  ThreadPool* pool =
      (ws.threads() > 1 && S >= kMinParallelSites) ? &ws.pool() : nullptr;

  // Materialize the oracle into dense matrices; the DP below only reads
  // flat arrays.
  const DistanceOracle& dist = in.dist;
  sweep(pool, S, [&](std::size_t q0, std::size_t q1) {
    for (std::size_t q = q0; q < q1; ++q) {
      dist.fill_from(in.sites[q], in.sites.data(), S, site_from + q * S);
    }
  });
  for (std::size_t u = 0; u < U; ++u) {
    dist.fill_from(in.units[u].location, in.sites.data(), S,
                   unit_site + u * S);
  }
  if (deliver) {
    for (std::size_t p = 0; p < S; ++p) {
      site_sink[p] = dist(in.sites[p], in.delivery);
    }
    for (std::size_t u = 0; u < U; ++u) {
      unit_sink[u] = dist(in.units[u].location, in.delivery);
    }
  }

  // The sweeps compute values only. Every inner loop is a strict-< running
  // minimum with no branch and no argmin store, which lets GCC vectorize it
  // at -O3; the reconstruction below recomputes the argmin of just the
  // cells it visits, scanning the candidates in the same order.
  for (std::uint32_t mr = 1; mr < R; ++mr) {
    const query::Mask m = expand_mask(mr, target);
    const bool joinable = std::popcount(mr) >= 2;
    double* bom = best_op + std::size_t{mr} * S;

    if (joinable) {
      std::size_t n_splits = 0;
      for_each_split(mr, [&](std::uint32_t ar, std::uint32_t br) {
        splits[n_splits++] = Split{ar, br};
      });
      sweep(pool, S, [&](std::size_t p0, std::size_t p1) {
        std::fill(bom + p0, bom + p1, kInf);
        for (std::size_t si = 0; si < n_splits; ++si) {
          const double* ga = g + std::size_t{splits[si].ar} * S;
          const double* gb = g + std::size_t{splits[si].br} * S;
          for (std::size_t p = p0; p < p1; ++p) {
            const double c = ga[p] + gb[p];
            bom[p] = c < bom[p] ? c : bom[p];
          }
        }
      });
    }
    if (mr == R - 1) break;  // the full target's g row is never read

    double* gm = g + std::size_t{mr} * S;
    const double rate_m = in.rates->bytes_rate(m);
    sweep(pool, S, [&](std::size_t p0, std::size_t p1) {
      std::fill(gm + p0, gm + p1, kInf);
      // Units streamed straight to each site.
      for (std::size_t u = 0; u < U; ++u) {
        if (in.units[u].mask != m) continue;
        const double* row = unit_site + u * S;
        const double rate_u = in.units[u].bytes_rate;
        for (std::size_t p = p0; p < p1; ++p) {
          const double c = rate_u * row[p];
          gm[p] = c < gm[p] ? c : gm[p];
        }
      }
      if (!joinable) return;
      // A join op at site q plus the q→p edge. Scanning q in the outer loop
      // keeps the inner update contiguous; per destination p the candidates
      // still arrive in ascending-q order.
      for (std::size_t q = 0; q < S; ++q) {
        const double bq = bom[q];
        if (bq == kInf) continue;
        const double* from_q = site_from + q * S;
        for (std::size_t p = p0; p < p1; ++p) {
          const double c = bq + rate_m * from_q[p];
          gm[p] = c < gm[p] ? c : gm[p];
        }
      }
    });
  }

  // Final selection: deliver to `delivery`, or leave at the producer.
  PlannerResult result;
  result.plans_considered = count_plans(in.units, target, S);
  double best_total = kInf;
  GChoice final_choice;
  const double rate_target = in.rates->bytes_rate(target);
  // With aggregation the root result shrinks before it travels to the sink.
  const double deliver_rate =
      in.delivery_bytes_rate >= 0.0 ? in.delivery_bytes_rate : rate_target;
  for (std::size_t u = 0; u < U; ++u) {
    if (in.units[u].mask != target) continue;
    const double unit_deliver_rate = in.delivery_bytes_rate >= 0.0
                                         ? in.delivery_bytes_rate
                                         : in.units[u].bytes_rate;
    const double c = deliver ? unit_deliver_rate * unit_sink[u] : 0.0;
    if (c < best_total) {
      best_total = c;
      final_choice = GChoice{static_cast<int>(u), -1};
    }
  }
  if (k >= 2) {
    const double* bot = best_op + std::size_t{R - 1} * S;
    for (std::size_t q = 0; q < S; ++q) {
      if (bot[q] == kInf) continue;
      const double edge = deliver ? deliver_rate * site_sink[q] : 0.0;
      const double c = bot[q] + edge;
      if (c < best_total) {
        best_total = c;
        final_choice = GChoice{-1, static_cast<int>(q)};
      }
    }
  }
  if (best_total == kInf) {
    return result;  // infeasible: units cannot cover the target
  }

  // The argmins of the cells the reconstruction visits, recomputed with the
  // sweeps' arithmetic and candidate order under strict <, so each picks
  // what an eagerly recorded argmin would have.
  // Cheapest split of rank `mr` for a join op at site q (as A's rank).
  const auto split_at = [&](std::uint32_t mr, std::size_t q) {
    double best = kInf;
    std::uint32_t best_ar = 0;
    for_each_split(mr, [&](std::uint32_t ar, std::uint32_t br) {
      const double c = g[std::size_t{ar} * S + q] + g[std::size_t{br} * S + q];
      if (c < best) {
        best = c;
        best_ar = ar;
      }
    });
    IFLOW_DCHECK(best == best_op[std::size_t{mr} * S + q]);
    return best_ar;
  };
  // How g[mr][p] was reached: units by index, then relay sites by index.
  const auto g_choice = [&](std::uint32_t mr, std::size_t p) {
    const query::Mask m = expand_mask(mr, target);
    double best = kInf;
    GChoice choice;
    for (std::size_t u = 0; u < U; ++u) {
      if (in.units[u].mask != m) continue;
      const double c = in.units[u].bytes_rate * unit_site[u * S + p];
      if (c < best) {
        best = c;
        choice = GChoice{static_cast<int>(u), -1};
      }
    }
    if (std::popcount(mr) >= 2) {
      const double* bom = best_op + std::size_t{mr} * S;
      const double rate_m = in.rates->bytes_rate(m);
      for (std::size_t q = 0; q < S; ++q) {
        if (bom[q] == kInf) continue;
        const double c = bom[q] + rate_m * site_from[q * S + p];
        if (c < best) {
          best = c;
          choice = GChoice{-1, static_cast<int>(q)};
        }
      }
    }
    IFLOW_DCHECK(best == g[std::size_t{mr} * S + p]);
    return choice;
  };

  // Reconstruction into a Deployment (children before parents).
  query::Deployment dep;
  dep.query = in.query_id;
  std::unordered_map<int, int> unit_slot;  // input unit index -> dep.units idx
  auto use_unit = [&](int u) {
    const auto it = unit_slot.find(u);
    if (it != unit_slot.end()) return query::encode_unit_child(it->second);
    const int slot = static_cast<int>(dep.units.size());
    dep.units.push_back(in.units[static_cast<std::size_t>(u)]);
    result.unit_sources.push_back(u);
    unit_slot.emplace(u, slot);
    return query::encode_unit_child(slot);
  };
  // Builds the subtree that makes rank `mr` available per `choice` and
  // returns the child code of its producer.
  auto build = [&](auto&& self, std::uint32_t mr, GChoice choice) -> int {
    if (choice.unit >= 0) return use_unit(choice.unit);
    IFLOW_CHECK(choice.op_site >= 0);
    const auto q = static_cast<std::size_t>(choice.op_site);
    const std::uint32_t ar = split_at(mr, q);
    const std::uint32_t br = mr ^ ar;
    const int lc = self(self, ar, g_choice(ar, q));
    const int rc = self(self, br, g_choice(br, q));
    const query::Mask m = expand_mask(mr, target);
    query::DeployedOp op;
    op.mask = m;
    op.left = lc;
    op.right = rc;
    op.node = in.sites[q];
    op.out_bytes_rate = in.rates->bytes_rate(m);
    op.out_tuple_rate = in.rates->tuple_rate(m);
    dep.ops.push_back(op);
    return static_cast<int>(dep.ops.size()) - 1;
  };
  build(build, R - 1, final_choice);
  dep.sink = deliver ? in.delivery : dep.root_node();
  validate_deployment(dep);

  // Cost with direct edges under the same oracle (equals the DP optimum for
  // metric oracles; the DP value may include zero-gain relays).
  double direct = 0.0;
  for (const query::DeployedOp& op : dep.ops) {
    for (int child : {op.left, op.right}) {
      const auto& [loc, rate] =
          query::child_is_unit(child)
              ? std::pair{dep.units[static_cast<std::size_t>(
                                        query::child_unit_index(child))]
                              .location,
                          dep.units[static_cast<std::size_t>(
                                        query::child_unit_index(child))]
                              .bytes_rate}
              : std::pair{dep.ops[static_cast<std::size_t>(child)].node,
                          dep.ops[static_cast<std::size_t>(child)]
                              .out_bytes_rate};
      direct += rate * dist(loc, op.node);
    }
  }
  // Without a delivery node the result stays where it is produced; that
  // node may be priced at +inf (outside the hierarchy), and 0 · inf is NaN.
  if (deliver) direct += deliver_rate * dist(dep.root_node(), dep.sink);
  IFLOW_DCHECK(direct <= best_total + 1e-6 * (1.0 + best_total));

  dep.planned_cost = direct;
  result.feasible = true;
  result.cost = direct;
  result.deployment = std::move(dep);
  return result;
}

TreePlacement place_tree_optimal(const query::JoinTree& tree,
                                 const std::vector<query::LeafUnit>& units,
                                 const query::RateModel& rates,
                                 net::NodeId delivery,
                                 const std::vector<net::NodeId>& sites,
                                 const DistanceOracle& dist,
                                 double delivery_bytes_rate,
                                 PlanWorkspace& ws) {
  IFLOW_CHECK(!sites.empty());
  IFLOW_CHECK(dist.valid());
  const std::size_t S = sites.size();
  const std::size_t V = tree.nodes.size();
  const std::size_t U = units.size();
  TreePlacement out;

  const query::TreeNode& root = tree.nodes[static_cast<std::size_t>(tree.root)];
  if (root.unit >= 0) {
    // Single-leaf tree: no operators to place.
    const query::LeafUnit& u = units[static_cast<std::size_t>(root.unit)];
    const double rate =
        delivery_bytes_rate >= 0.0 ? delivery_bytes_rate : u.bytes_rate;
    out.feasible = true;
    out.cost = (delivery == net::kInvalidNode)
                   ? 0.0
                   : rate * dist(u.location, delivery);
    return out;
  }

  // An internal node with an internal child needs the site×site matrix.
  bool internal_edges = false;
  for (const query::TreeNode& n : tree.nodes) {
    if (n.unit >= 0) continue;
    for (int child : {n.left, n.right}) {
      internal_edges |= tree.nodes[static_cast<std::size_t>(child)].unit < 0;
    }
  }

  ws.begin(V * S * (sizeof(double) + sizeof(std::size_t)) +
           (internal_edges ? S * S + S : 0) * sizeof(double) +
           U * S * sizeof(double));
  // cost[v*S+p]: cheapest cost of the subtree rooted at internal node v with
  // its operator at site p. pick[v*S+p]: chosen site of internal child v
  // given the parent at p.
  double* cost = ws.carve<double>(V * S);
  std::size_t* pick = ws.carve<std::size_t>(V * S);
  // site_from[q*S+p] = dist(q→p), source-major (see plan_optimal).
  double* site_from = internal_edges ? ws.carve<double>(S * S) : nullptr;
  double* child_best = internal_edges ? ws.carve<double>(S) : nullptr;
  double* unit_site = ws.carve<double>(U * S);

  ThreadPool* pool =
      (ws.threads() > 1 && S >= kMinParallelSites) ? &ws.pool() : nullptr;

  if (internal_edges) {
    sweep(pool, S, [&](std::size_t q0, std::size_t q1) {
      for (std::size_t q = q0; q < q1; ++q) {
        dist.fill_from(sites[q], sites.data(), S, site_from + q * S);
      }
    });
  }
  for (std::size_t u = 0; u < U; ++u) {
    dist.fill_from(units[u].location, sites.data(), S, unit_site + u * S);
  }

  for (std::size_t v = 0; v < V; ++v) {
    const query::TreeNode& node = tree.nodes[v];
    if (node.unit >= 0) continue;  // leaves carry no table
    double* cv = cost + v * S;
    std::fill(cv, cv + S, 0.0);
    for (int child : {node.left, node.right}) {
      const query::TreeNode& cn = tree.nodes[static_cast<std::size_t>(child)];
      if (cn.unit >= 0) {
        const double* row = unit_site + static_cast<std::size_t>(cn.unit) * S;
        const double rate =
            units[static_cast<std::size_t>(cn.unit)].bytes_rate;
        for (std::size_t p = 0; p < S; ++p) cv[p] += rate * row[p];
      } else {
        const double rate = rates.bytes_rate(cn.mask);
        const double* cc = cost + static_cast<std::size_t>(child) * S;
        std::size_t* cp = pick + static_cast<std::size_t>(child) * S;
        // q-outer / p-inner for contiguous access; per p the candidates
        // arrive in ascending-q order under strict <, matching the serial
        // per-p scan bit for bit (see the relay sweep in plan_optimal).
        sweep(pool, S, [&](std::size_t p0, std::size_t p1) {
          std::fill(child_best + p0, child_best + p1, kInf);
          std::fill(cp + p0, cp + p1, std::size_t{0});
          for (std::size_t q = 0; q < S; ++q) {
            const double cq = cc[q];
            const double* from_q = site_from + q * S;
            for (std::size_t p = p0; p < p1; ++p) {
              const double c = cq + rate * from_q[p];
              if (c < child_best[p]) {
                child_best[p] = c;
                cp[p] = q;
              }
            }
          }
          for (std::size_t p = p0; p < p1; ++p) cv[p] += child_best[p];
        });
      }
    }
  }

  const double root_rate = delivery_bytes_rate >= 0.0
                               ? delivery_bytes_rate
                               : rates.bytes_rate(root.mask);
  double best = kInf;
  std::size_t root_site = 0;
  const double* croot = cost + static_cast<std::size_t>(tree.root) * S;
  for (std::size_t p = 0; p < S; ++p) {
    const double edge = (delivery == net::kInvalidNode)
                            ? 0.0
                            : root_rate * dist(sites[p], delivery);
    const double c = croot[p] + edge;
    if (c < best) {
      best = c;
      root_site = p;
    }
  }

  // Walk back down assigning sites.
  out.op_nodes.assign(V, net::kInvalidNode);
  auto descend = [&](auto&& self, int v, std::size_t p) -> void {
    out.op_nodes[static_cast<std::size_t>(v)] = sites[p];
    const query::TreeNode& node = tree.nodes[static_cast<std::size_t>(v)];
    for (int child : {node.left, node.right}) {
      if (tree.nodes[static_cast<std::size_t>(child)].unit >= 0) continue;
      self(self, child, pick[static_cast<std::size_t>(child) * S + p]);
    }
  };
  descend(descend, tree.root, root_site);

  out.feasible = true;
  out.cost = best;
  return out;
}

query::Deployment assemble_deployment(const query::JoinTree& tree,
                                      const std::vector<query::LeafUnit>& units,
                                      const query::RateModel& rates,
                                      const std::vector<net::NodeId>& op_nodes,
                                      net::NodeId sink, query::QueryId qid) {
  query::Deployment dep;
  dep.query = qid;
  dep.sink = sink;
  std::unordered_map<int, int> unit_slot;
  std::vector<int> code(tree.nodes.size(), 0);
  for (std::size_t v = 0; v < tree.nodes.size(); ++v) {
    const query::TreeNode& node = tree.nodes[v];
    if (node.unit >= 0) {
      const auto it = unit_slot.find(node.unit);
      int slot;
      if (it != unit_slot.end()) {
        slot = it->second;
      } else {
        slot = static_cast<int>(dep.units.size());
        dep.units.push_back(units[static_cast<std::size_t>(node.unit)]);
        unit_slot.emplace(node.unit, slot);
      }
      code[v] = query::encode_unit_child(slot);
      continue;
    }
    query::DeployedOp op;
    op.mask = node.mask;
    op.left = code[static_cast<std::size_t>(node.left)];
    op.right = code[static_cast<std::size_t>(node.right)];
    op.node = op_nodes[v];
    IFLOW_CHECK(op.node != net::kInvalidNode);
    op.out_bytes_rate = rates.bytes_rate(node.mask);
    op.out_tuple_rate = rates.tuple_rate(node.mask);
    dep.ops.push_back(op);
    code[v] = static_cast<int>(dep.ops.size()) - 1;
  }
  validate_deployment(dep);
  return dep;
}

}  // namespace iflow::opt
