#include "net/routing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <queue>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/prng.h"
#include "common/thread_pool.h"
#include "integer_weights.h"
#include "net/gtitm.h"

namespace iflow::net {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

Network make_line(int n, double cost = 1.0, double delay = 10.0) {
  Network net;
  for (int i = 0; i < n; ++i) net.add_node();
  for (int i = 0; i + 1 < n; ++i) {
    net.add_link(static_cast<NodeId>(i), static_cast<NodeId>(i + 1), cost,
                 delay, 1e6);
  }
  return net;
}

std::vector<NodeId> every_node(const Network& net) {
  std::vector<NodeId> all(net.node_count());
  for (NodeId v = 0; v < all.size(); ++v) all[v] = v;
  return all;
}

bool contains(const std::vector<NodeId>& v, NodeId x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

TEST(RoutingTest, LineDistancesAreAdditive) {
  Network net = make_line(5, 2.0, 10.0);
  const RoutingTables rt = RoutingTables::build(net);
  EXPECT_DOUBLE_EQ(rt.cost(0, 4), 8.0);
  EXPECT_DOUBLE_EQ(rt.cost(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(rt.delay_ms(0, 4), 40.0);
}

TEST(RoutingTest, PicksCheaperMultiHopPath) {
  // Direct expensive link vs two cheap hops.
  Network net;
  for (int i = 0; i < 3; ++i) net.add_node();
  net.add_link(0, 2, 10.0, 1.0, 1e6);
  net.add_link(0, 1, 1.0, 30.0, 1e6);
  net.add_link(1, 2, 1.0, 30.0, 1e6);
  const RoutingTables rt = RoutingTables::build(net);
  EXPECT_DOUBLE_EQ(rt.cost(0, 2), 2.0);
  // The data path (cost-optimal) has 60 ms of latency even though a 1 ms
  // path exists; the control plane uses the delay-optimal one.
  const std::vector<NodeId> path = rt.cost_path(0, 2);
  double data_path_delay = 0.0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    data_path_delay +=
        net.links()[net.cheapest_usable_link(path[i], path[i + 1])].delay_ms;
  }
  EXPECT_DOUBLE_EQ(data_path_delay, 60.0);
  EXPECT_DOUBLE_EQ(rt.delay_ms(0, 2), 1.0);
}

TEST(RoutingTest, NextHopAndPathFollowCostMetric) {
  Network net;
  for (int i = 0; i < 3; ++i) net.add_node();
  net.add_link(0, 2, 10.0, 1.0, 1e6);
  net.add_link(0, 1, 1.0, 30.0, 1e6);
  net.add_link(1, 2, 1.0, 30.0, 1e6);
  const RoutingTables rt = RoutingTables::build(net);
  const std::vector<NodeId> path = rt.cost_path(0, 2);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0], 0u);
  EXPECT_EQ(path[1], 1u);
  EXPECT_EQ(path[2], 2u);
}

TEST(RoutingTest, SymmetricOnUndirectedGraphs) {
  Prng prng(42);
  const Network net = make_transit_stub(TransitStubParams{}, prng);
  const RoutingTables rt = RoutingTables::build(net);
  for (NodeId a = 0; a < 20; ++a) {
    for (NodeId b = 0; b < 20; ++b) {
      EXPECT_DOUBLE_EQ(rt.cost(a, b), rt.cost(b, a));
      EXPECT_DOUBLE_EQ(rt.delay_ms(a, b), rt.delay_ms(b, a));
    }
  }
}

TEST(RoutingTest, TriangleInequalityHolds) {
  Prng prng(7);
  const Network net = make_transit_stub(TransitStubParams{}, prng);
  const RoutingTables rt = RoutingTables::build(net);
  const std::size_t n = std::min<std::size_t>(net.node_count(), 25);
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      for (NodeId c = 0; c < n; ++c) {
        EXPECT_LE(rt.cost(a, c), rt.cost(a, b) + rt.cost(b, c) + 1e-9);
      }
    }
  }
}

// Per-byte cost of the cheapest (a, b) physical link — the one Dijkstra
// relaxes when the generator emits parallel links. Fails the test if absent.
double link_cost(const Network& net, NodeId a, NodeId b) {
  double best = std::numeric_limits<double>::infinity();
  for (const std::uint32_t li : net.incident(a)) {
    const Link& l = net.links()[li];
    if ((l.a == a && l.b == b) || (l.a == b && l.b == a)) {
      best = std::min(best, l.cost_per_byte);
    }
  }
  EXPECT_TRUE(std::isfinite(best)) << "no link between " << a << " and " << b;
  return best;
}

TEST(RoutingTest, PathEdgeCostsSumToCostMatrix) {
  Prng prng(55);
  const Network net = make_transit_stub(TransitStubParams{}, prng);
  const RoutingTables rt = RoutingTables::build(net);
  const NodeId n = static_cast<NodeId>(std::min<std::size_t>(net.node_count(), 24));
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      const std::vector<NodeId> path = rt.cost_path(a, b);
      ASSERT_GE(path.size(), 1u);
      EXPECT_EQ(path.front(), a);
      EXPECT_EQ(path.back(), b);
      // The walk may sum the edges in a different order than Dijkstra's
      // relaxation did, so allow rounding slack but nothing more.
      double sum = 0.0;
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        sum += link_cost(net, path[i], path[i + 1]);
      }
      EXPECT_NEAR(sum, rt.cost(a, b), 1e-12 * (1.0 + rt.cost(a, b)))
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(RoutingTest, DisconnectedPairsCostInfinity) {
  // Two isolated nodes: routing must build (no throw) and report the pair
  // as unreachable, symmetrically, with self-distances intact.
  Network net;
  net.add_node();
  net.add_node();
  const RoutingTables rt = RoutingTables::build(net);
  EXPECT_TRUE(std::isinf(rt.cost(0, 1)));
  EXPECT_TRUE(std::isinf(rt.cost(1, 0)));
  EXPECT_TRUE(std::isinf(rt.delay_ms(0, 1)));
  EXPECT_DOUBLE_EQ(rt.cost(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(rt.cost(1, 1), 0.0);
  EXPECT_FALSE(rt.reachable(0, 1));
  EXPECT_TRUE(rt.reachable(0, 0));
}

TEST(RoutingTest, UnreachablePathIsEmptyAndNextHopInvalid) {
  // Two disjoint components; cross-component queries return structured
  // "no route" answers, never garbage or a hang.
  Network net;
  for (int i = 0; i < 4; ++i) net.add_node();
  net.add_link(0, 1, 1.0, 1.0, 1e6);
  net.add_link(2, 3, 1.0, 1.0, 1e6);
  const RoutingTables rt = RoutingTables::build(net);
  EXPECT_TRUE(rt.cost_path(0, 2).empty());
  EXPECT_TRUE(rt.cost_path(3, 1).empty());
  // Within-component answers are unaffected.
  EXPECT_DOUBLE_EQ(rt.cost(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(rt.cost(2, 3), 1.0);
  const std::vector<NodeId> path = rt.cost_path(2, 3);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0], 2u);
  EXPECT_EQ(path[1], 3u);
}

TEST(RoutingTest, FailedLinkSeversAndRestoreHeals) {
  Network net = make_line(3, 2.0, 10.0);
  net.fail_link(1, 2);
  const RoutingTables cut = RoutingTables::build(net);
  EXPECT_FALSE(cut.reachable(0, 2));
  EXPECT_TRUE(cut.reachable(0, 1));
  net.restore_link(1, 2);
  const RoutingTables healed = RoutingTables::build(net);
  EXPECT_DOUBLE_EQ(healed.cost(0, 2), 4.0);
}

TEST(RoutingTest, CrashedNodeRoutesAroundOrPartitions) {
  // Square: crashing a corner reroutes traffic the long way; self-distance
  // of the dead node stays 0 but nothing can reach it.
  Network net;
  for (int i = 0; i < 4; ++i) net.add_node();
  net.add_link(0, 1, 1.0, 1.0, 1e6);
  net.add_link(1, 2, 1.0, 1.0, 1e6);
  net.add_link(2, 3, 1.0, 1.0, 1e6);
  net.add_link(3, 0, 1.0, 1.0, 1e6);
  net.crash_node(1);
  const RoutingTables rt = RoutingTables::build(net);
  EXPECT_DOUBLE_EQ(rt.cost(0, 2), 2.0);  // via 3, not via dead 1
  EXPECT_FALSE(rt.reachable(0, 1));
  EXPECT_FALSE(rt.reachable(2, 1));
  EXPECT_DOUBLE_EQ(rt.cost(1, 1), 0.0);
  net.restore_node(1);
  const RoutingTables healed = RoutingTables::build(net);
  EXPECT_DOUBLE_EQ(healed.cost(0, 2), 2.0);
  EXPECT_TRUE(healed.reachable(0, 1));
}

TEST(RoutingTest, CrashDisablesParallelLinksButKeepsAdminState) {
  // A crashed endpoint makes even administratively-up links unusable;
  // restoring the node brings exactly the still-up links back.
  Network net;
  net.add_node();
  net.add_node();
  net.add_node();
  net.add_link(0, 1, 1.0, 1.0, 1e6);
  net.add_link(1, 2, 1.0, 1.0, 1e6);
  net.add_link(0, 2, 5.0, 1.0, 1e6);
  net.crash_node(1);
  const RoutingTables rt = RoutingTables::build(net);
  EXPECT_DOUBLE_EQ(rt.cost(0, 2), 5.0);  // forced onto the expensive edge
  net.fail_link(0, 2);
  const RoutingTables cut = RoutingTables::build(net);
  EXPECT_FALSE(cut.reachable(0, 2));
  net.restore_node(1);
  const RoutingTables partial = RoutingTables::build(net);
  EXPECT_DOUBLE_EQ(partial.cost(0, 2), 2.0);  // via 1; (0,2) still down
  net.restore_link(0, 2);
  const RoutingTables healed = RoutingTables::build(net);
  EXPECT_DOUBLE_EQ(healed.cost(0, 2), 2.0);
}

TEST(RoutingTest, RecordsBuildVersion) {
  Network net = make_line(3);
  const RoutingTables rt = RoutingTables::build(net);
  EXPECT_EQ(rt.built_against(), net.version());
  net.set_link_cost(0, 1, 9.0);
  EXPECT_NE(rt.built_against(), net.version());
}

TEST(RoutingTest, CostPathEdgeCases) {
  // Self-loop, single-hop, and partitioned pairs pin the reconstruction
  // contract on both tiers.
  Network net;
  for (int i = 0; i < 4; ++i) net.add_node();
  net.add_link(0, 1, 1.0, 1.0, 1e6);  // 2 and 3 stay isolated
  net.add_link(2, 3, 1.0, 1.0, 1e6);
  for (const RoutingMode mode : {RoutingMode::kDense, RoutingMode::kSparse}) {
    RoutingOptions opts;
    opts.mode = mode;
    const RoutingTables rt = RoutingTables::build(net, opts);
    // Self-loop: the path is the node itself.
    EXPECT_EQ(rt.cost_path(1, 1), (std::vector<NodeId>{1}));
    EXPECT_EQ(rt.cost_path(3, 3), (std::vector<NodeId>{3}));
    // Single hop.
    EXPECT_EQ(rt.cost_path(0, 1), (std::vector<NodeId>{0, 1}));
    EXPECT_EQ(rt.cost_path(1, 0), (std::vector<NodeId>{1, 0}));
    // Partitioned pair: empty, never garbage.
    EXPECT_TRUE(rt.cost_path(0, 2).empty());
    EXPECT_TRUE(rt.cost_path(2, 1).empty());
  }
}

TEST(RoutingTest, SparseTierMatchesDenseBitwise) {
  // Both tiers run the identical per-source Dijkstra, so every query must
  // agree bit for bit — including infinities and paths.
  Prng prng(91);
  const Network net = make_transit_stub(TransitStubParams{}, prng);
  const RoutingTables dense = RoutingTables::build(net);
  RoutingOptions opts;
  opts.mode = RoutingMode::kSparse;
  opts.max_cached_rows = 8;  // force eviction + recomputation along the way
  const RoutingTables sparse = RoutingTables::build(net, opts);
  ASSERT_TRUE(sparse.sparse());
  ASSERT_FALSE(dense.sparse());
  const auto n = static_cast<NodeId>(net.node_count());
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      ASSERT_EQ(dense.cost(a, b), sparse.cost(a, b)) << a << "," << b;
      ASSERT_EQ(dense.delay_ms(a, b), sparse.delay_ms(a, b));
      ASSERT_EQ(dense.cost_path(a, b), sparse.cost_path(a, b));
    }
  }
}

TEST(RoutingTest, SparseFillCostsMatchesScalarQueries) {
  Prng prng(92);
  const Network net = make_transit_stub(TransitStubParams{}, prng);
  RoutingOptions opts;
  opts.mode = RoutingMode::kSparse;
  const RoutingTables rt = RoutingTables::build(net);
  const RoutingTables sparse = RoutingTables::build(net, opts);
  std::vector<NodeId> dsts;
  for (NodeId b = 0; b < net.node_count(); b += 3) dsts.push_back(b);
  std::vector<double> out(dsts.size());
  sparse.fill_costs(5, dsts.data(), dsts.size(), out.data());
  for (std::size_t i = 0; i < dsts.size(); ++i) {
    EXPECT_EQ(out[i], rt.cost(5, dsts[i]));
  }
}

TEST(RoutingTest, SparseCacheHonoursRowCapAndTracksPeak) {
  Prng prng(93);
  const Network net = make_transit_stub(TransitStubParams{}, prng);
  RoutingOptions opts;
  opts.mode = RoutingMode::kSparse;
  opts.max_cached_rows = 4;
  const RoutingTables rt = RoutingTables::build(net, opts);
  EXPECT_EQ(rt.cached_rows(), 0u);
  EXPECT_EQ(rt.memory_bytes(), 0u);
  for (NodeId a = 0; a < 10; ++a) rt.cost(a, 0);
  EXPECT_LE(rt.cached_rows(), 4u);
  EXPECT_GT(rt.cached_rows(), 0u);
  EXPECT_EQ(rt.peak_memory_bytes(),
            rt.memory_bytes() / rt.cached_rows() * 4u);
  // Rows read only for cost hold a distance and a predecessor per entry;
  // the dense tier stores two distances and a predecessor.
  const std::size_t n = net.node_count();
  EXPECT_EQ(rt.memory_bytes(), rt.cached_rows() * n * 12u);
  EXPECT_EQ(RoutingTables::dense_equivalent_bytes(n), n * n * 20u);
  // Far below the dense footprint.
  EXPECT_LT(rt.peak_memory_bytes(),
            RoutingTables::dense_equivalent_bytes(net.node_count()));
}

/// Reads every delay of `src`'s row, which settles every region of its
/// delay part.
void read_delay_row(const RoutingTables& rt, NodeId src) {
  for (NodeId b = 0; b < rt.node_count(); ++b) rt.delay_ms(src, b);
}

TEST(RoutingTest, SparseRowComputesEachMetricOnItsFirstRead) {
  Prng prng(88);
  const TransitStubParams p = rooted_in_transit();
  const Network net = make_transit_stub(p, prng);
  const RoutingTables dense = RoutingTables::build(net);
  RoutingOptions opts;
  opts.mode = RoutingMode::kSparse;
  const RoutingTables rt = RoutingTables::build(net, opts);
  const std::size_t n = net.node_count();
  // A delay read from a stub node to a node of another domain computes
  // only the delay part, 8 bytes per entry, and settles only the source's
  // domain, the transit core and the read node's domain.
  const NodeId src = stub_domain_members(p, 3)[2];
  const NodeId dst = stub_domain_members(p, 9)[5];
  EXPECT_EQ(bits(rt.delay_ms(src, dst)), bits(dense.delay_ms(src, dst)));
  EXPECT_EQ(rt.cached_rows(), 1u);
  EXPECT_EQ(rt.memory_bytes(), n * 8u);
  EXPECT_EQ(rt.work().row_pops,
            static_cast<std::uint64_t>(p.transit_count +
                                       2 * p.stub_domain_size));
  // Reading the rest of the row settles every other domain once: each node
  // is popped once in all, and the part does not grow.
  read_delay_row(rt, src);
  EXPECT_EQ(rt.cached_rows(), 1u);
  EXPECT_EQ(rt.memory_bytes(), n * 8u);
  EXPECT_EQ(rt.work().row_pops, n);
  // The first cost read adds the cost part: a distance and a predecessor.
  EXPECT_EQ(bits(rt.cost(src, dst)), bits(dense.cost(src, dst)));
  EXPECT_EQ(rt.cached_rows(), 1u);
  EXPECT_EQ(rt.memory_bytes(), n * 20u);
  EXPECT_EQ(rt.peak_memory_bytes(), n * 20u);
  EXPECT_EQ(rt.cost_path(src, dst), dense.cost_path(src, dst));
  EXPECT_EQ(rt.work().sync_pops, 0u);
  EXPECT_EQ(rt.work().matrix_pops, 0u);
}

TEST(RoutingTest, CostMatrixRunsAPassForARowHeldOnlyForDelay) {
  Network net = make_line(4);
  RoutingOptions opts;
  opts.mode = RoutingMode::kSparse;
  const RoutingTables rt = RoutingTables::build(net, opts);
  rt.delay_ms(0, 3);
  rt.cost(3, 0);
  net.set_link_cost(1, 2, 5.0);
  // Row 0 holds no costs, so the matrix needs a fresh pass, which CHECKs
  // against the unsynced network.
  const NodeId nodes[] = {0, 3};
  double out[4];
  EXPECT_THROW(rt.cost_matrix(nodes, 2, out), CheckError);
}

TEST(RoutingTest, AutoModePicksTierByNodeCount) {
  Network small = make_line(4);
  EXPECT_FALSE(RoutingTables::build(small).sparse());
  RoutingOptions opts;
  opts.dense_node_limit = 3;
  EXPECT_TRUE(RoutingTables::build(small, opts).sparse());
}

TEST(RoutingTest, SyncQualityOnlyBatchIsFree) {
  Network net = make_line(4);
  for (const RoutingMode mode : {RoutingMode::kDense, RoutingMode::kSparse}) {
    RoutingOptions opts;
    opts.mode = mode;
    RoutingTables rt = RoutingTables::build(net, opts);
    rt.cost(0, 3);  // populate a row on the sparse tier
    net.set_link_loss(0, 1, 0.2);
    net.set_link_jitter(1, 2, 3.0);
    const RoutingSyncStats st = rt.sync(net);
    EXPECT_TRUE(st.quality_only);
    EXPECT_FALSE(st.full_rebuild);
    EXPECT_EQ(rt.built_against(), net.version());
    EXPECT_DOUBLE_EQ(rt.cost(0, 3), 3.0);
    net.set_link_loss(0, 1, 0.0);  // reset for the next tier's pass
    net.set_link_jitter(1, 2, 0.0);
  }
}

TEST(RoutingTest, SparseQueryAfterMutationWithoutSyncThrows) {
  Network net = make_line(4);
  RoutingOptions opts;
  opts.mode = RoutingMode::kSparse;
  const RoutingTables rt = RoutingTables::build(net, opts);
  rt.cost(0, 3);
  net.fail_link(0, 1);
  // Cached row reads would silently mix versions; a fresh row CHECKs.
  EXPECT_THROW(rt.cost(1, 2), CheckError);
}

/// Checks every held part of `rt`'s rows for `sources` (in that order, so
/// no read adds a part before it is checked), then cost, delay and cost
/// path from each source to every node, bit for bit against a fresh sparse
/// build of `net`.
void expect_rows_match_a_fresh_build(
    const Network& net, const RoutingTables& rt,
    const std::vector<std::pair<NodeId, bool>>& held_for_cost) {
  RoutingOptions opts;
  opts.mode = RoutingMode::kSparse;
  const RoutingTables fresh = RoutingTables::build(net, opts);
  const auto n = static_cast<NodeId>(net.node_count());
  for (const auto& [src, cost] : held_for_cost) {
    for (NodeId b = 0; b < n; ++b) {
      if (cost) {
        ASSERT_EQ(bits(rt.cost(src, b)), bits(fresh.cost(src, b)));
        ASSERT_EQ(rt.cost_path(src, b), fresh.cost_path(src, b));
      } else {
        ASSERT_EQ(bits(rt.delay_ms(src, b)), bits(fresh.delay_ms(src, b)));
      }
    }
  }
  for (const auto& [src, cost] : held_for_cost) {
    for (NodeId b = 0; b < n; ++b) {
      ASSERT_EQ(bits(rt.cost(src, b)), bits(fresh.cost(src, b)));
      ASSERT_EQ(bits(rt.delay_ms(src, b)), bits(fresh.delay_ms(src, b)));
      ASSERT_EQ(rt.cost_path(src, b), fresh.cost_path(src, b));
    }
  }
}

TEST(RoutingTest, SparseSyncRepairsEachPartARowHolds) {
  // Three rows from outside stub domain 2, each holding the domain: one read
  // for delay only, one for cost only, one for both, each part in full. The
  // failed link is inside the domain and lies in both trees of every row,
  // so each part re-settles the domain from its gateway, and nothing else.
  const TransitStubParams p = rooted_in_transit();
  Prng prng(89);
  Network net = make_transit_stub(p, prng);
  const std::vector<NodeId> domain = stub_domain_members(p, 2);
  const NodeId by_delay = 0, by_cost = stub_domain_members(p, 5)[1],
               both = stub_domain_members(p, 9)[3];
  const RoutingTables probe = RoutingTables::build(net);
  const auto in_trees = [&](const Link& l, NodeId src) {
    const auto child = [&](NodeId x, NodeId y) {
      return probe.cost(src, x) + l.cost_per_byte == probe.cost(src, y) &&
             probe.delay_ms(src, x) + l.delay_ms == probe.delay_ms(src, y);
    };
    return child(l.a, l.b) || child(l.b, l.a);
  };
  const auto inside = [&](NodeId v) { return contains(domain, v); };
  NodeId a = kInvalidNode, b = kInvalidNode;
  for (const Link& l : net.links()) {
    if (!inside(l.a) || !inside(l.b) || !in_trees(l, by_delay) ||
        !in_trees(l, by_cost) || !in_trees(l, both)) {
      continue;
    }
    net.fail_link(l.a, l.b);
    const bool connected = net.connected();
    net.restore_link(l.a, l.b);
    if (connected) {
      a = l.a;
      b = l.b;
      break;
    }
  }
  ASSERT_NE(a, kInvalidNode);

  RoutingOptions opts;
  opts.mode = RoutingMode::kSparse;
  const auto warm = [&](const RoutingTables& rt) {
    read_delay_row(rt, by_delay);
    for (const NodeId v : every_node(net)) rt.cost(by_cost, v);
    for (const NodeId v : every_node(net)) rt.cost(both, v);
    read_delay_row(rt, both);
  };
  RoutingTables rt = RoutingTables::build(net, opts);
  warm(rt);
  const std::size_t bytes = rt.memory_bytes();
  ASSERT_EQ(bytes, net.node_count() * (8u + 12u + 20u));
  for (const bool restore : {false, true}) {
    if (restore) {
      net.restore_link(a, b);
    } else {
      net.fail_link(a, b);
    }
    const std::uint64_t pops = rt.work().sync_pops;
    const RoutingSyncStats st = rt.sync(net);
    EXPECT_EQ(st.rows_patched, 3u) << "restore " << restore;
    EXPECT_EQ(rt.memory_bytes(), bytes);
    // Four parts, each re-settling the domain alone.
    EXPECT_GT(rt.work().sync_pops, pops);
    EXPECT_LE(rt.work().sync_pops - pops, 4 * domain.size());
    expect_rows_match_a_fresh_build(
        net, rt, {{by_delay, false}, {by_cost, true}, {both, true}});
    // The checks read every part; drop the ones the rows did not hold.
    rt = RoutingTables::build(net, opts);
    warm(rt);
  }
}

TEST(RoutingTest, CostMatrixEqualsCostBitwiseOnBothTiers) {
  Prng prng(94);
  Network net = make_transit_stub(TransitStubParams{}, prng);
  net.crash_node(40);  // puts infinities in the matrix
  std::vector<NodeId> nodes{40};
  for (NodeId v = 0; v < net.node_count(); v += 5) nodes.push_back(v);
  const std::size_t m = nodes.size();
  for (const RoutingMode mode : {RoutingMode::kDense, RoutingMode::kSparse}) {
    RoutingOptions opts;
    opts.mode = mode;
    opts.max_cached_rows = 4;
    const RoutingTables rt = RoutingTables::build(net, opts);
    std::vector<double> out(m * m);
    rt.cost_matrix(nodes.data(), m, out.data());
    EXPECT_TRUE(std::isinf(out[1]));
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        ASSERT_EQ(bits(out[i * m + j]), bits(rt.cost(nodes[i], nodes[j])))
            << "sparse " << rt.sparse() << " pair " << nodes[i] << ","
            << nodes[j];
      }
    }
  }
}

TEST(RoutingTest, CostMatrixLeavesTheSparseCacheAlone) {
  Prng prng(95);
  const Network net = make_transit_stub(TransitStubParams{}, prng);
  RoutingOptions opts;
  opts.mode = RoutingMode::kSparse;
  opts.max_cached_rows = 4;
  const RoutingTables rt = RoutingTables::build(net, opts);
  rt.cost(3, 0);
  rt.cost(7, 0);
  const std::size_t rows = rt.cached_rows();
  const std::size_t peak = rt.peak_memory_bytes();
  std::vector<NodeId> nodes;  // row 3 is resident, the others are not
  for (NodeId v = 0; v < net.node_count(); v += 3) nodes.push_back(v);
  std::vector<double> out(nodes.size() * nodes.size());
  rt.cost_matrix(nodes.data(), nodes.size(), out.data());
  EXPECT_EQ(rt.cached_rows(), rows);
  EXPECT_EQ(rt.peak_memory_bytes(), peak);
}

TEST(RoutingTest, CostMatrixReadsResidentRows) {
  Network net = make_line(4);
  RoutingOptions opts;
  opts.mode = RoutingMode::kSparse;
  const RoutingTables rt = RoutingTables::build(net, opts);
  rt.cost(0, 3);
  rt.cost(3, 0);
  // Unsynced: a fresh Dijkstra would CHECK, and would price 0→3 at 7.
  net.set_link_cost(1, 2, 5.0);
  const NodeId nodes[] = {0, 3};
  double out[4];
  rt.cost_matrix(nodes, 2, out);
  EXPECT_EQ(out[0], 0.0);
  EXPECT_EQ(out[1], 3.0);
  EXPECT_EQ(out[2], 3.0);
  EXPECT_EQ(out[3], 0.0);
}

TEST(RoutingTest, CostMatrixAgainstUnsyncedNetworkThrows) {
  Network net = make_line(4);
  RoutingOptions opts;
  opts.mode = RoutingMode::kSparse;
  const RoutingTables rt = RoutingTables::build(net, opts);
  rt.cost(0, 3);
  net.fail_link(0, 1);
  const NodeId nodes[] = {0, 2};  // row 2 is not resident
  double out[4];
  EXPECT_THROW(rt.cost_matrix(nodes, 2, out), CheckError);
}

/// A transit-stub world on the sparse tier and one node per partition (the
/// transit core and each stub domain), standing in for the leaf
/// coordinators of a partitioned hierarchy.
struct CoordinatorWorld {
  TransitStubParams p;
  Network net;
  std::vector<NodeId> nodes;
  RoutingTables rt;

  explicit CoordinatorWorld(std::uint64_t seed, bool integer_weights = false) {
    Prng prng(seed);
    net = make_transit_stub(p, prng);
    if (integer_weights) net = with_integer_weights(net);
    nodes.push_back(0);
    for (int d = 0; d < stub_domain_count(p); ++d) {
      nodes.push_back(stub_domain_members(p, d).front());
    }
    RoutingOptions opts;
    opts.mode = RoutingMode::kSparse;
    opts.max_cached_rows = 8;
    rt = RoutingTables::build(net, opts);
  }

  std::vector<double> fresh() const {
    std::vector<double> out(nodes.size() * nodes.size());
    rt.cost_matrix(nodes.data(), nodes.size(), out.data());
    return out;
  }

  /// Stub links whose failure leaves every matrix entry as it was, in link
  /// order; the network is restored and synced after each probe.
  std::vector<std::pair<NodeId, NodeId>> links_off_every_path(
      std::size_t count) {
    const std::vector<double> base = fresh();
    std::vector<std::pair<NodeId, NodeId>> out;
    for (const Link& l : std::vector<Link>(net.links())) {
      if (out.size() == count) break;
      if (net.kind(l.a) != NodeKind::kStub ||
          net.kind(l.b) != NodeKind::kStub) {
        continue;
      }
      net.fail_link(l.a, l.b);
      rt.sync(net);
      const bool unchanged = fresh() == base;
      net.restore_link(l.a, l.b);
      rt.sync(net);
      if (unchanged) out.emplace_back(l.a, l.b);
    }
    return out;
  }

  /// A stub link on the cost path from nodes[k] to every other node of the
  /// list, whose failure keeps the network connected and changes every
  /// other entry of row k; the network is restored and synced after each
  /// probe.
  std::pair<NodeId, NodeId> link_on_every_path_from(std::size_t k) {
    const std::size_t m = nodes.size();
    const std::vector<NodeId> path = rt.cost_path(nodes[k], nodes[0]);
    for (std::size_t h = 0; h + 1 < path.size(); ++h) {
      const NodeId a = path[h], b = path[h + 1];
      if (net.kind(a) != NodeKind::kStub || net.kind(b) != NodeKind::kStub) {
        continue;
      }
      const std::vector<double> base = fresh();
      net.fail_link(a, b);
      rt.sync(net);
      bool every = net.connected();
      const std::vector<double> after = fresh();
      for (std::size_t j = 0; j < m && every; ++j) {
        every = j == k || after[k * m + j] != base[k * m + j];
      }
      net.restore_link(a, b);
      rt.sync(net);
      if (every) return {a, b};
    }
    return {kInvalidNode, kInvalidNode};
  }

  /// The link that hangs nodes[k]'s stub domain off the transit core.
  std::pair<NodeId, NodeId> gateway_link_of(std::size_t k) {
    const std::vector<NodeId> path = rt.cost_path(nodes[k], nodes[0]);
    for (std::size_t h = 0; h + 1 < path.size(); ++h) {
      if (net.kind(path[h + 1]) == NodeKind::kTransit) {
        return {path[h], path[h + 1]};
      }
    }
    return {kInvalidNode, kInvalidNode};
  }
};

void expect_same_bits(const std::vector<double>& got,
                      const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(bits(got[i]), bits(want[i])) << "entry " << i;
  }
}

/// Fails (a, b) and then restores it, each time updating w's matrix in
/// place, which must touch every row, and comparing it with a fresh one.
/// Returns the matrix the failure left.
std::vector<double> expect_fail_and_restore_match_a_fresh_matrix(
    CoordinatorWorld& w, NodeId a, NodeId b) {
  const std::size_t m = w.nodes.size();
  const std::vector<double> before = w.fresh();
  std::vector<double> out = before, failed;
  for (const bool restore : {false, true}) {
    const std::uint64_t since = w.rt.built_against();
    if (restore) {
      w.net.restore_link(a, b);
    } else {
      w.net.fail_link(a, b);
    }
    w.rt.sync(w.net);
    EXPECT_EQ(w.rt.cost_matrix(w.nodes.data(), m, out.data(), since), m)
        << "restore " << restore;
    expect_same_bits(out, w.fresh());
    if (!restore) failed = out;
  }
  expect_same_bits(out, before);
  return failed;
}

TEST(RoutingTest, CostMatrixSinceRewritesNoRowForALinkOffEveryPath) {
  CoordinatorWorld w(96);
  const std::size_t m = w.nodes.size();
  const auto off = w.links_off_every_path(1);
  ASSERT_EQ(off.size(), 1u);
  const auto [a, b] = off.front();
  std::vector<double> out = w.fresh();
  std::uint64_t since = w.rt.built_against();
  for (const bool restore : {false, true}) {
    if (restore) {
      w.net.restore_link(a, b);
    } else {
      w.net.fail_link(a, b);
    }
    w.net.set_link_loss(a, b, restore ? 0.0 : 0.01);  // rides along
    w.rt.sync(w.net);
    // The update reads a's and nodes[1]'s rows from the cache and runs
    // uncached Dijkstras for the rest; neither may change the LRU.
    w.rt.cost(a, 0);
    w.rt.cost(w.nodes[1], 0);
    const std::size_t rows = w.rt.cached_rows();
    const std::size_t peak = w.rt.peak_memory_bytes();
    EXPECT_EQ(w.rt.cost_matrix(w.nodes.data(), m, out.data(), since), 0u)
        << "restore " << restore;
    EXPECT_EQ(w.rt.cached_rows(), rows);
    EXPECT_EQ(w.rt.peak_memory_bytes(), peak);
    expect_same_bits(out, w.fresh());
    since = w.rt.built_against();
  }
  // A quality-only batch rewrites nothing either.
  w.net.set_link_jitter(a, b, 2.0);
  w.rt.sync(w.net);
  EXPECT_EQ(w.rt.cost_matrix(w.nodes.data(), m, out.data(), since), 0u);
}

TEST(RoutingTest, CostMatrixSinceRewritesTheRowsALinkOnAPathChanges) {
  CoordinatorWorld w(97);
  const std::size_t m = w.nodes.size();
  const std::vector<double> before = w.fresh();
  const std::vector<NodeId> path = w.rt.cost_path(w.nodes[0], w.nodes[1]);
  ASSERT_GE(path.size(), 2u);
  std::vector<double> out = before;
  std::uint64_t since = w.rt.built_against();
  for (const bool restore : {false, true}) {
    if (restore) {
      w.net.restore_link(path[0], path[1]);
    } else {
      w.net.fail_link(path[0], path[1]);
    }
    w.rt.sync(w.net);
    const std::size_t peak = w.rt.peak_memory_bytes();
    EXPECT_GT(w.rt.cost_matrix(w.nodes.data(), m, out.data(), since), 0u)
        << "restore " << restore;
    EXPECT_EQ(w.rt.peak_memory_bytes(), peak);
    expect_same_bits(out, w.fresh());
    EXPECT_EQ(out != before, !restore);
    since = w.rt.built_against();
  }
}

TEST(RoutingTest, CostMatrixSinceRewritesEveryRowForOtherBatches) {
  CoordinatorWorld w(98);
  const std::size_t m = w.nodes.size();
  const auto off = w.links_off_every_path(2);
  ASSERT_EQ(off.size(), 2u);
  const auto [a, b] = off.front();
  std::vector<NodeId> others;  // nodes off the coordinator list
  for (NodeId v = 0; v < w.net.node_count(); ++v) {
    if (std::find(w.nodes.begin(), w.nodes.end(), v) == w.nodes.end()) {
      others.push_back(v);
    }
  }
  const std::vector<std::function<void()>> batches = {
      [&] {  // two link events
        w.net.fail_link(off[0].first, off[0].second);
        w.net.fail_link(off[1].first, off[1].second);
      },
      [&] {  // their restores
        w.net.restore_link(off[0].first, off[0].second);
        w.net.restore_link(off[1].first, off[1].second);
      },
      [&] { w.net.crash_node(others.back()); },
      [&] { w.net.restore_node(others.back()); },
      [&] { w.net.set_link_cost(a, b, 1e3); },
      [&] {  // a journal that no longer reaches back to `since`
        for (int i = 0; i < 5000; ++i) {
          w.net.set_link_loss(a, b, 0.01 * (i % 2));
        }
      },
  };
  std::vector<double> out = w.fresh();
  for (std::size_t k = 0; k < batches.size(); ++k) {
    const std::uint64_t since = w.rt.built_against();
    batches[k]();
    w.rt.sync(w.net);
    EXPECT_EQ(w.rt.cost_matrix(w.nodes.data(), m, out.data(), since), m)
        << "batch " << k;
    expect_same_bits(out, w.fresh());
  }
  // The dense tier reads its own matrix, every row.
  const RoutingTables dense = RoutingTables::build(w.net);
  const std::uint64_t since = dense.built_against();
  EXPECT_EQ(dense.cost_matrix(w.nodes.data(), m, out.data(), since), m);
  expect_same_bits(out, w.fresh());
}

TEST(RoutingTest, CostMatrixSinceUpdatesALinkOnOneNodesPathToEveryOther) {
  // The failure changes row k and column k: row k is recomputed in full and
  // every other row's entry k gets a goal-directed pass aimed at nodes[k].
  for (const bool integer_weights : {false, true}) {
    CoordinatorWorld w(99, integer_weights);
    std::pair<NodeId, NodeId> link{kInvalidNode, kInvalidNode};
    for (std::size_t k = 1; k < w.nodes.size(); ++k) {
      link = w.link_on_every_path_from(k);
      if (link.first != kInvalidNode) break;
    }
    ASSERT_NE(link.first, kInvalidNode) << "integer " << integer_weights;
    expect_fail_and_restore_match_a_fresh_matrix(w, link.first, link.second);
  }
}

TEST(RoutingTest, CostMatrixSinceUpdatesABridgeThatCutsOffOneNode) {
  CoordinatorWorld w(100);
  const std::size_t m = w.nodes.size();
  const auto [a, b] = w.gateway_link_of(1);
  ASSERT_NE(a, kInvalidNode);
  const std::vector<double> failed =
      expect_fail_and_restore_match_a_fresh_matrix(w, a, b);
  for (std::size_t j = 0; j < m; ++j) {
    EXPECT_EQ(std::isinf(failed[j * m + 1]), j != 1) << "row " << j;
  }
}

/// A network whose only cheap i–j route crosses the (a, b) adjacency,
/// where `nodes` = {i, j}; the direct i–j link is the detour.
struct Detour {
  Network net;
  RoutingTables rt;
  NodeId a = 0, b = 0;
  std::vector<NodeId> nodes;

  std::vector<double> fresh() const {
    std::vector<double> out(4);
    rt.cost_matrix(nodes.data(), 2, out.data());
    return out;
  }

  /// Fails (a, b) and then restores it, each time updating the matrix in
  /// place and comparing it with a fresh one.
  void expect_fail_and_restore_rewrite_row_i() {
    std::vector<double> out = fresh();
    for (const bool restore : {false, true}) {
      const std::uint64_t since = rt.built_against();
      if (restore) {
        net.restore_link(a, b);
      } else {
        net.fail_link(a, b);
      }
      rt.sync(net);
      EXPECT_EQ(rt.cost_matrix(nodes.data(), 2, out.data(), since), 2u)
          << "restore " << restore;
      expect_same_bits(out, fresh());
    }
  }
};

Detour make_detour(const std::vector<double>& i_to_a,
                   const std::vector<double>& a_to_b, double b_to_j,
                   double direct) {
  Detour d;
  const NodeId i = d.net.add_node();
  NodeId prev = i;
  for (const double c : i_to_a) {
    const NodeId next = d.net.add_node();
    d.net.add_link(prev, next, c, 1.0, 1e6);
    prev = next;
  }
  d.a = prev;
  d.b = d.net.add_node();
  for (const double c : a_to_b) d.net.add_link(d.a, d.b, c, 1.0, 1e6);
  const NodeId j = d.net.add_node();
  d.net.add_link(d.b, j, b_to_j, 1.0, 1e6);
  d.net.add_link(i, j, direct, 1.0, 1e6);
  d.nodes = {i, j};
  RoutingOptions opts;
  opts.mode = RoutingMode::kSparse;
  d.rt = RoutingTables::build(d.net, opts);
  return d;
}

TEST(RoutingTest, CostMatrixSinceBoundAllowsForRounding) {
  // From i the route sums to 0.85; the Dijkstra from a sums the i–a legs
  // in the other order and lands one ulp higher, so without its rounding
  // allowance the bound would clear the 0.85 that the failure changes.
  Detour d = make_detour({0.3, 0.2, 0.1}, {0.125}, 0.125, 1.0);
  ASSERT_EQ(d.fresh()[1], 0.85);
  d.expect_fail_and_restore_rewrite_row_i();
}

TEST(RoutingTest, CostMatrixSinceBoundsPathsByTheCheapestParallelLink) {
  // The first (a, b) link costs 4, the parallel one 1: only the cheap one
  // makes the route through (a, b) shorter than the direct link.
  Detour d = make_detour({1.0}, {4.0, 1.0}, 1.0, 4.0);
  ASSERT_EQ(d.fresh()[1], 3.0);
  d.expect_fail_and_restore_rewrite_row_i();
}

TEST(RoutingTest, CostMatrixSinceGoalPassAllowsForRounding) {
  // After the restore both entries are stale: row i is recomputed in full
  // and entry (j, i) gets a pass from j aimed at i, keyed by i's row. From
  // j the route through (a, b) sums to 0.7499999999999999, under the 0.75
  // direct link; from i it sums to 0.7500000000000001, so keyed by i's
  // distances as they are, b (0.15 + 0.6000000000000001) would queue behind
  // the direct offer and i would pop at 0.75.
  Detour d = make_detour({0.1, 0.2}, {0.3}, 0.15, 0.75);
  ASSERT_EQ(d.fresh()[1], 0.75);
  ASSERT_EQ(d.fresh()[2], 0.7499999999999999);
  d.expect_fail_and_restore_rewrite_row_i();
}

// Reference oracle: a textbook Dijkstra over the Network itself — a lazy
// binary heap over incident() and usable() — that the tables' kernel (a
// compressed adjacency and an indexed heap) must match bit for bit.
struct ReferenceRow {
  std::vector<double> cost;
  std::vector<double> delay;
  std::vector<NodeId> parent;  // cost tree
  bool cost_tie = false;       // some cost relaxation met an equal distance
};

bool reference_pass(const Network& net, NodeId src, bool by_cost,
                    std::vector<double>& dist, std::vector<NodeId>& parent) {
  const std::size_t n = net.node_count();
  dist.assign(n, std::numeric_limits<double>::infinity());
  parent.assign(n, kInvalidNode);
  using Entry = std::pair<double, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
  bool tie = false;
  dist[src] = 0.0;
  queue.push({0.0, src});
  while (!queue.empty()) {
    const auto [d, u] = queue.top();
    queue.pop();
    if (d > dist[u]) continue;
    for (const std::uint32_t idx : net.incident(u)) {
      if (!net.usable(idx)) continue;
      const Link& l = net.links()[idx];
      const NodeId v = l.a == u ? l.b : l.a;
      const double nd = d + (by_cost ? l.cost_per_byte : l.delay_ms);
      if (nd < dist[v]) {
        dist[v] = nd;
        parent[v] = u;
        queue.push({nd, v});
      } else if (nd == dist[v]) {
        tie = true;
      }
    }
  }
  return tie;
}

ReferenceRow reference_row(const Network& net, NodeId src) {
  ReferenceRow r;
  std::vector<NodeId> delay_parent;
  r.cost_tie = reference_pass(net, src, true, r.cost, r.parent);
  reference_pass(net, src, false, r.delay, delay_parent);
  return r;
}

/// The a→b walk up a predecessor tree rooted at a; empty when unreachable.
std::vector<NodeId> tree_path(const std::vector<NodeId>& parent, NodeId a,
                              NodeId b) {
  if (a == b) return {a};
  if (parent[b] == kInvalidNode) return {};
  std::vector<NodeId> path;
  for (NodeId v = b; v != a; v = parent[v]) path.push_back(v);
  path.push_back(a);
  std::reverse(path.begin(), path.end());
  return path;
}

/// Checks cost, delay_ms and cost_path from every source in `sources`
/// against the reference, bit for bit, on a world where no reference cost
/// tree holds a tie. Both tiers walk the source's tree.
void expect_matches_reference(const Network& net, const RoutingTables& rt,
                              const std::vector<NodeId>& sources) {
  const auto n = static_cast<NodeId>(net.node_count());
  for (const NodeId a : sources) {
    const ReferenceRow ref = reference_row(net, a);
    ASSERT_FALSE(ref.cost_tie) << "source " << a;
    for (NodeId b = 0; b < n; ++b) {
      ASSERT_EQ(bits(rt.cost(a, b)), bits(ref.cost[b])) << a << "->" << b;
      ASSERT_EQ(bits(rt.delay_ms(a, b)), bits(ref.delay[b]))
          << a << "->" << b;
      ASSERT_EQ(rt.cost_path(a, b), tree_path(ref.parent, a, b))
          << a << "->" << b;
    }
  }
}

/// True when two arcs offer some node of the reference cost row its exact
/// distance: a tie any Dijkstra meets, whatever its pop order.
bool holds_a_real_tie(const Network& net, const ReferenceRow& ref) {
  for (NodeId v = 0; v < net.node_count(); ++v) {
    int offers = 0;
    for (const std::uint32_t idx : net.incident(v)) {
      const Link& l = net.links()[idx];
      const NodeId u = l.a == v ? l.b : l.a;
      if (net.usable(idx) && std::isfinite(ref.cost[u]) &&
          ref.cost[u] + l.cost_per_byte == ref.cost[v]) {
        ++offers;
      }
    }
    if (offers > 1) return true;
  }
  return false;
}

TEST(RoutingTest, CostTieEvictsTheRowWithItsDelayPart) {
  const TransitStubParams p = rooted_in_transit();
  Prng prng(90);
  Network net = with_integer_weights(make_transit_stub(p, prng));
  // Two sources whose cost trees hold a tie: one read for both metrics,
  // whose cost part meets the tie and is recomputed as one full pass, one
  // only for delay, which holds no cost tree. Both parts are read in full.
  // The failed link is inside the last stub domain, which neither source is
  // in, so the delay-only row re-settles it.
  const std::vector<NodeId> last =
      stub_domain_members(p, stub_domain_count(p) - 1);
  std::vector<NodeId> tied;
  for (NodeId v = 0; v < net.node_count() && tied.size() < 2; ++v) {
    if (!contains(last, v) && holds_a_real_tie(net, reference_row(net, v))) {
      tied.push_back(v);
    }
  }
  ASSERT_EQ(tied.size(), 2u);
  Link inside;
  for (const Link& l : net.links()) {
    if (contains(last, l.a) && contains(last, l.b)) inside = l;
  }
  ASSERT_TRUE(contains(last, inside.a));
  RoutingOptions opts;
  opts.mode = RoutingMode::kSparse;
  RoutingTables rt = RoutingTables::build(net, opts);
  for (const NodeId v : every_node(net)) rt.cost(tied[0], v);
  read_delay_row(rt, tied[0]);
  read_delay_row(rt, tied[1]);
  const std::size_t n = net.node_count();
  ASSERT_EQ(rt.memory_bytes(), n * (20u + 8u));
  net.fail_link(inside.a, inside.b);
  const RoutingSyncStats st = rt.sync(net);
  EXPECT_EQ(st.rows_dropped, 1u);
  EXPECT_EQ(st.rows_patched, 1u);
  EXPECT_EQ(rt.cached_rows(), 1u);
  EXPECT_EQ(rt.memory_bytes(), n * 8u);
  expect_rows_match_a_fresh_build(net, rt,
                                  {{tied[1], false}, {tied[0], true}});
}

TEST(RoutingReferenceTest, DenseTierMatchesTheReferenceOnGtItmWorlds) {
  for (const TransitStubParams& p : {TransitStubParams{}, scale_to(528)}) {
    Prng prng(101);
    const Network net = make_transit_stub(p, prng);
    RoutingOptions opts;
    opts.mode = RoutingMode::kDense;
    const RoutingTables rt = RoutingTables::build(net, opts);
    expect_matches_reference(net, rt, every_node(net));
  }
}

TEST(RoutingReferenceTest, SparseTierMatchesTheReferenceBeforeAndAfterFaults) {
  // Sampled sources keep the sanitizer builds quick. After the faults the
  // resident rows are repaired in place and the others are computed from
  // the adjacency whose usable bytes sync() patched.
  Prng prng(102);
  Network net = make_transit_stub(scale_to(1000), prng);
  RoutingOptions opts;
  opts.mode = RoutingMode::kSparse;
  RoutingTables rt = RoutingTables::build(net, opts);
  std::vector<NodeId> sources;
  for (int i = 0; i < 24; ++i) {
    sources.push_back(static_cast<NodeId>(prng.index(net.node_count())));
  }
  expect_matches_reference(net, rt, sources);
  // Fail a link in the middle of three sampled routes, and crash a source.
  for (std::size_t i = 2; i < 5; ++i) {
    const std::vector<NodeId> path = rt.cost_path(sources[i], sources[i + 12]);
    if (path.size() < 2) continue;
    const NodeId a = path[path.size() / 2 - 1];
    const NodeId b = path[path.size() / 2];
    if (net.cheapest_usable_link(a, b) != kInvalidLink) net.fail_link(a, b);
  }
  net.crash_node(sources[1]);
  ASSERT_FALSE(rt.sync(net).full_rebuild);
  std::vector<NodeId> after(sources.begin(), sources.begin() + 12);
  for (int i = 0; i < 12; ++i) {
    after.push_back(static_cast<NodeId>(prng.index(net.node_count())));
  }
  expect_matches_reference(net, rt, after);
}

/// Where equal-cost paths exist the tables may pick another parent than
/// the reference, but distances keep their bits, and each cost path is a
/// walk over usable links whose left fold of cheapest-link costs — the sum
/// Dijkstra forms along a tree path — is cost(a, b) bit for bit. Both tiers
/// walk the same source tree, so their paths are equal on every pair.
void expect_tied_world_matches_reference(const Network& net) {
  const auto n = static_cast<NodeId>(net.node_count());
  RoutingOptions opts;
  opts.mode = RoutingMode::kDense;
  const RoutingTables dense = RoutingTables::build(net, opts);
  opts.mode = RoutingMode::kSparse;
  const RoutingTables sparse = RoutingTables::build(net, opts);
  bool tie = false;
  for (NodeId a = 0; a < n; ++a) {
    const ReferenceRow ref = reference_row(net, a);
    tie = tie || ref.cost_tie;
    for (NodeId b = 0; b < n; ++b) {
      const std::vector<NodeId> path = dense.cost_path(a, b);
      ASSERT_EQ(sparse.cost_path(a, b), path) << a << "->" << b;
      for (const RoutingTables* rt : {&dense, &sparse}) {
        ASSERT_EQ(bits(rt->cost(a, b)), bits(ref.cost[b])) << a << "->" << b;
        ASSERT_EQ(bits(rt->delay_ms(a, b)), bits(ref.delay[b]))
            << a << "->" << b;
      }
      if (!std::isfinite(ref.cost[b])) {
        ASSERT_TRUE(path.empty()) << a << "->" << b;
        continue;
      }
      ASSERT_FALSE(path.empty()) << a << "->" << b;
      ASSERT_EQ(path.front(), a);
      ASSERT_EQ(path.back(), b);
      double fold = 0.0;
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const std::uint32_t l = net.cheapest_usable_link(path[i], path[i + 1]);
        ASSERT_NE(l, kInvalidLink) << "hop " << path[i] << "-" << path[i + 1];
        fold = fold + net.links()[l].cost_per_byte;
      }
      ASSERT_EQ(bits(fold), bits(ref.cost[b])) << a << "->" << b;
    }
  }
  EXPECT_TRUE(tie) << "the world holds no equal-cost tie";
}

TEST(RoutingReferenceTest, IntegerWeightWorldMatchesTheReference) {
  Prng prng(103);
  Network net = with_integer_weights(make_transit_stub({}, prng));
  net.fail_link(net.links()[5].a, net.links()[5].b);
  expect_tied_world_matches_reference(net);
}

TEST(RoutingReferenceTest, TwoRelayDiamondMatchesTheReference) {
  // 0 reaches 3 through relay 1 or relay 2 at the same cost and delay.
  Network net;
  for (int i = 0; i < 4; ++i) net.add_node();
  net.add_link(0, 1, 1.5, 2.0, 1e6);
  net.add_link(0, 2, 1.5, 2.0, 1e6);
  net.add_link(1, 3, 2.5, 3.0, 1e6);
  net.add_link(2, 3, 2.5, 3.0, 1e6);
  expect_tied_world_matches_reference(net);
}

/// The reference cost from each of `nodes` to each, row-major.
std::vector<double> reference_matrix(const Network& net,
                                     const std::vector<NodeId>& nodes) {
  const std::size_t m = nodes.size();
  std::vector<double> out(m * m), dist;
  std::vector<NodeId> parent;
  for (std::size_t i = 0; i < m; ++i) {
    reference_pass(net, nodes[i], /*by_cost=*/true, dist, parent);
    for (std::size_t j = 0; j < m; ++j) out[i * m + j] = dist[nodes[j]];
  }
  return out;
}

/// A full cost_matrix among `nodes` on `rt`, a sparse table of `net`, bit
/// for bit against the reference. Returns the matrix.
std::vector<double> expect_matrix_matches_reference(
    const Network& net, const RoutingTables& rt,
    const std::vector<NodeId>& nodes) {
  EXPECT_TRUE(rt.sparse());
  const std::size_t m = nodes.size();
  std::vector<double> out(m * m);
  EXPECT_EQ(rt.cost_matrix(nodes.data(), m, out.data()), m);
  expect_same_bits(out, reference_matrix(net, nodes));
  return out;
}

std::vector<double> expect_sparse_matrix_matches_reference(
    const Network& net, const std::vector<NodeId>& nodes) {
  RoutingOptions opts;
  opts.mode = RoutingMode::kSparse;
  return expect_matrix_matches_reference(net, RoutingTables::build(net, opts),
                                         nodes);
}

/// Stub domain d's gateway: its end of the link to the transit core.
NodeId gateway_of(const Network& net, const TransitStubParams& p, int d) {
  for (const NodeId v : stub_domain_members(p, d)) {
    for (const std::uint32_t idx : net.incident(v)) {
      const Link& l = net.links()[idx];
      if (net.kind(l.a == v ? l.b : l.a) == NodeKind::kTransit) return v;
    }
  }
  return kInvalidNode;
}

/// A member of stub domain d other than its gateway with one link, which
/// is a bridge inside the domain; kInvalidNode when there is none.
NodeId pendant_of(const Network& net, const TransitStubParams& p, int d) {
  const NodeId gateway = gateway_of(net, p, d);
  for (const NodeId v : stub_domain_members(p, d)) {
    if (v != gateway && net.incident(v).size() == 1) return v;
  }
  return kInvalidNode;
}

/// Transit nodes 0, 1 and the last, then one member of each stub domain
/// drawn by `prng`: where a partitioned hierarchy's leaf coordinators sit.
std::vector<NodeId> coordinator_like(const TransitStubParams& p, Prng& prng) {
  std::vector<NodeId> nodes{0, 1, static_cast<NodeId>(p.transit_count - 1)};
  for (int d = 0; d < stub_domain_count(p); ++d) {
    const std::vector<NodeId> members = stub_domain_members(p, d);
    nodes.push_back(prng.pick(members));
  }
  return nodes;
}

TEST(RoutingReferenceTest, CostMatrixMatchesTheReferenceOnGtItmWorlds) {
  // Each stub domain hangs off its transit node by one gateway link, so the
  // sparse tier prices the targets inside it in a pass of their own.
  Prng prng(105);
  const TransitStubParams p = scale_to(1000);
  const Network net = make_transit_stub(p, prng);
  expect_sparse_matrix_matches_reference(net, coordinator_like(p, prng));
  // Integer weights make equal-cost paths common; every node is a target.
  const Network tied = with_integer_weights(make_transit_stub({}, prng));
  expect_sparse_matrix_matches_reference(tied, every_node(tied));
}

TEST(RoutingReferenceTest, CostMatrixPricesSeveralTargetsInOneRegion) {
  // A domain's gateway, a member behind a bridge nested in the domain and a
  // third member, beside targets in the core and in two other domains: rows
  // from inside the domain leave it through the gateway, rows from outside
  // enter it there.
  const TransitStubParams p;
  Prng prng(106);
  const Network net = make_transit_stub(p, prng);
  const int domains = stub_domain_count(p);
  int checked = 0;
  for (int d = 0; d < domains; ++d) {
    const NodeId gateway = gateway_of(net, p, d);
    const NodeId pendant = pendant_of(net, p, d);
    if (pendant == kInvalidNode) continue;
    std::vector<NodeId> nodes{gateway, pendant};
    for (const NodeId v : stub_domain_members(p, d)) {
      if (v != gateway && v != pendant) {
        nodes.push_back(v);
        break;
      }
    }
    nodes.push_back(0);
    nodes.push_back(stub_domain_members(p, (d + 1) % domains).front());
    nodes.push_back(stub_domain_members(p, (d + 5) % domains).back());
    expect_sparse_matrix_matches_reference(net, nodes);
    ++checked;
  }
  EXPECT_GT(checked, 0) << "no domain holds a member behind a nested bridge";
}

TEST(RoutingReferenceTest, CostMatrixMatchesTheReferenceOnAMultiHomedDomain) {
  // A second link from domain 0 (hung off transit node 0) to transit node 1
  // leaves no bridge between the domain and the core, and neither does a
  // cheaper twin of domain 2's gateway link.
  const TransitStubParams p;
  Prng prng(107);
  Network net = make_transit_stub(p, prng);
  net.add_link(stub_domain_members(p, 0).back(), 1, 4.5, 10.0, 1e6);
  net.add_link(gateway_of(net, p, 2), 0, 1.0, 10.0, 1e6);
  expect_sparse_matrix_matches_reference(net, every_node(net));
}

TEST(RoutingReferenceTest, CostMatrixMatchesTheReferenceAfterFaults) {
  const TransitStubParams p;
  Prng prng(108);
  Network net = make_transit_stub(p, prng);
  RoutingOptions opts;
  opts.mode = RoutingMode::kSparse;
  opts.max_cached_rows = 8;
  RoutingTables rt = RoutingTables::build(net, opts);
  std::vector<NodeId> nodes = coordinator_like(p, prng);
  const std::size_t m = nodes.size();
  expect_matrix_matches_reference(net, rt, nodes);

  // Domain 1 hangs off transit node 0. Without its gateway link its target,
  // nodes[4], is cut off: +inf both ways.
  const NodeId gateway = gateway_of(net, p, 1);
  net.fail_link(gateway, 0);
  rt.sync(net);
  const std::vector<double> cut = expect_matrix_matches_reference(net, rt,
                                                                  nodes);
  for (std::size_t j = 0; j < m; ++j) {
    EXPECT_EQ(std::isinf(cut[4 * m + j]), j != 4) << "column " << j;
    EXPECT_EQ(std::isinf(cut[j * m + 4]), j != 4) << "row " << j;
  }
  net.restore_link(gateway, 0);
  rt.sync(net);
  expect_matrix_matches_reference(net, rt, nodes);

  // A failed bridge inside a domain cuts off the member behind it.
  NodeId pendant = kInvalidNode;
  for (int d = 0; d < stub_domain_count(p) && pendant == kInvalidNode; ++d) {
    pendant = pendant_of(net, p, d);
  }
  ASSERT_NE(pendant, kInvalidNode);
  nodes.push_back(pendant);
  const Link bridge = net.links()[net.incident(pendant).front()];
  net.fail_link(bridge.a, bridge.b);
  rt.sync(net);
  expect_matrix_matches_reference(net, rt, nodes);

  // A crashed target, whose row is a crashed source's, and a crashed
  // transit node, to which four domains are attached.
  net.crash_node(nodes[6]);
  net.crash_node(2);
  rt.sync(net);
  expect_matrix_matches_reference(net, rt, nodes);
}

TEST(RoutingReferenceTest, CostMatrixMatchesTheReferenceOnALineAndAStar) {
  // On a line every link is a bridge; on a star each leaf is a region, and
  // the leaves with a pendant of their own hold a nested bridge.
  Prng prng(109);
  Network line = make_line(40, 0.1);  // sums of 0.1 round
  Network star;
  star.add_node();
  for (int leaf = 0; leaf < 30; ++leaf) {
    const NodeId v = star.add_node();
    star.add_link(0, v, prng.uniform(1.0, 3.0), 1.0, 1e6);
    if (leaf % 3 == 0) {
      star.add_link(v, star.add_node(), prng.uniform(1.0, 3.0), 1.0, 1e6);
    }
  }
  for (const Network* net : {&line, &star}) {
    expect_sparse_matrix_matches_reference(*net, every_node(*net));
    std::vector<NodeId> some;  // regions without a target too
    for (NodeId v = 1; v < net->node_count(); v += 4) some.push_back(v);
    expect_sparse_matrix_matches_reference(*net, some);
  }
}

TEST(RoutingReferenceTest, CostMatrixMixesResidentAndMissingRows) {
  // Every other target's cost row is resident and read as it is; another
  // row holds only delays, so it is priced like the rest.
  const TransitStubParams p;
  Prng prng(110);
  const Network net = make_transit_stub(p, prng);
  RoutingOptions opts;
  opts.mode = RoutingMode::kSparse;
  opts.max_cached_rows = 16;
  const RoutingTables rt = RoutingTables::build(net, opts);
  const std::vector<NodeId> nodes = coordinator_like(p, prng);
  for (std::size_t i = 0; i < nodes.size(); i += 2) rt.cost(nodes[i], 0);
  rt.delay_ms(nodes[1], nodes[2]);
  const std::size_t rows = rt.cached_rows();
  expect_matrix_matches_reference(net, rt, nodes);
  EXPECT_EQ(rt.cached_rows(), rows);
}

/// The stub domain holding node v, or -1 for a transit node.
int domain_of(const TransitStubParams& p, NodeId v) {
  const int k = static_cast<int>(v) - p.transit_count;
  return k < 0 ? -1 : k / p.stub_domain_size;
}

/// Reads cost, delay and cost path of a sparse table of `net` at seeded
/// pairs in random order, and checks each value against the reference bit
/// for bit. Two sources are transit nodes, in the core, and six sit in
/// stub domains; each is read at nodes of its own domain, of the core and
/// of other domains.
void expect_region_reads_match_reference(const Network& net,
                                         const TransitStubParams& p,
                                         Prng& prng) {
  RoutingOptions opts;
  opts.mode = RoutingMode::kSparse;
  const RoutingTables rt = RoutingTables::build(net, opts);
  const int domains = stub_domain_count(p);
  const auto transit = [&] {
    return static_cast<NodeId>(prng.index(p.transit_count));
  };
  const auto member = [&](int d) {
    return prng.pick(stub_domain_members(p, d));
  };
  std::map<NodeId, ReferenceRow> ref;
  while (ref.size() < 2) ref.emplace(transit(), ReferenceRow{});
  while (ref.size() < 8) {
    ref.emplace(member(static_cast<int>(prng.index(domains))), ReferenceRow{});
  }
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (auto& [a, row] : ref) {
    row = reference_row(net, a);
    ASSERT_FALSE(row.cost_tie) << "source " << a;
    const int home = domain_of(p, a);
    for (int k = 0; k < 4; ++k) {
      pairs.emplace_back(a, home < 0 ? transit() : member(home));
      pairs.emplace_back(a, transit());
      pairs.emplace_back(a, member(static_cast<int>(prng.index(domains))));
    }
  }
  prng.shuffle(pairs);
  for (const auto& [a, b] : pairs) {
    const ReferenceRow& r = ref.at(a);
    ASSERT_EQ(bits(rt.cost(a, b)), bits(r.cost[b])) << a << "->" << b;
    ASSERT_EQ(bits(rt.delay_ms(a, b)), bits(r.delay[b])) << a << "->" << b;
    ASSERT_EQ(rt.cost_path(a, b), tree_path(r.parent, a, b)) << a << "->" << b;
  }
}

TEST(RoutingReferenceTest, RegionPartsMatchTheReference) {
  Prng prng(104);
  for (const int size : {1000, 3000}) {
    const TransitStubParams p = scale_to(size);
    expect_region_reads_match_reference(make_transit_stub(p, prng), p, prng);
  }
  // On a world full of equal-cost paths the parts that meet a tie are
  // recomputed as one full pass, so every path, read in any order, is the
  // dense tier's.
  const Network tied = with_integer_weights(make_transit_stub({}, prng));
  RoutingOptions opts;
  opts.mode = RoutingMode::kSparse;
  const RoutingTables sparse = RoutingTables::build(tied, opts);
  const RoutingTables dense = RoutingTables::build(tied);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (const NodeId a : every_node(tied)) {
    for (const NodeId b : every_node(tied)) pairs.emplace_back(a, b);
  }
  prng.shuffle(pairs);
  for (const auto& [a, b] : pairs) {
    ASSERT_EQ(sparse.cost_path(a, b), dense.cost_path(a, b)) << a << "->" << b;
    ASSERT_EQ(bits(sparse.delay_ms(a, b)), bits(dense.delay_ms(a, b)));
  }
}

/// A row from a member of stub domain 1 of a GT-ITM world, read
/// for both metrics at a few nodes, through one sync of a fault: checks
/// what the sync did with the row and compares the row with a fresh build.
struct RegionSync {
  TransitStubParams p = rooted_in_transit();
  Network net;
  NodeId src = kInvalidNode;

  RegionSync() {
    Prng prng(94);
    net = make_transit_stub(p, prng);
    src = stub_domain_members(p, 1)[3];
  }

  /// The first link with both ends in domain d whose failure keeps the
  /// network connected.
  Link inside(int d) const {
    const std::vector<NodeId> members = stub_domain_members(p, d);
    for (const Link& l : net.links()) {
      if (!contains(members, l.a) || !contains(members, l.b)) continue;
      Network probe = net;
      probe.fail_link(l.a, l.b);
      if (probe.connected()) return l;
    }
    return {};
  }

  /// Reads src's row at `reads`, applies `fault`, syncs and checks the row:
  /// evicted, or kept, and re-settling a region with at most `max_pops`
  /// pops when `patched`, or with none.
  void expect(const std::vector<NodeId>& reads,
              const std::function<void(Network&)>& fault, bool evicted,
              bool patched, std::uint64_t max_pops) const {
    Network world = net;
    RoutingOptions opts;
    opts.mode = RoutingMode::kSparse;
    RoutingTables rt = RoutingTables::build(world, opts);
    for (const NodeId v : reads) {
      rt.cost(src, v);
      rt.delay_ms(src, v);
    }
    fault(world);
    const RoutingSyncStats st = rt.sync(world);
    EXPECT_FALSE(st.full_rebuild);
    EXPECT_EQ(st.rows_dropped, evicted ? 1u : 0u);
    EXPECT_EQ(st.rows_patched, patched ? 1u : 0u);
    EXPECT_EQ(st.rows_retained, evicted || patched ? 0u : 1u);
    EXPECT_EQ(rt.cached_rows(), evicted ? 0u : 1u);
    EXPECT_LE(rt.work().sync_pops, patched ? max_pops : 0u);
    expect_rows_match_a_fresh_build(world, rt, {{src, true}});
  }
};

TEST(RoutingTest, SparseSyncRetainsARowThatHoldsNoFaultedRegion) {
  // The row holds domain 1, the core and domain 4; the fault is inside
  // domain 7. Its values there were never computed, and none it holds
  // depends on them.
  const RegionSync w;
  const std::vector<NodeId> reads{stub_domain_members(w.p, 1)[0], 2,
                                  stub_domain_members(w.p, 4)[5]};
  const Link l = w.inside(7);
  ASSERT_NE(l.a, kInvalidNode);
  w.expect(reads, [&](Network& net) { net.fail_link(l.a, l.b); },
           /*evicted=*/false, /*patched=*/false, /*max_pops=*/0);
  w.expect(reads, [&](Network& net) { net.crash_node(l.a); },
           /*evicted=*/false, /*patched=*/false, /*max_pops=*/0);
}

TEST(RoutingTest, SparseSyncReSettlesOnlyTheFaultedRegion) {
  // The row also holds domain 7, where the link fails: each part re-settles
  // that domain from its gateway, at most one pop per member.
  const RegionSync w;
  const std::vector<NodeId> reads{2, stub_domain_members(w.p, 7)[4]};
  const Link l = w.inside(7);
  ASSERT_NE(l.a, kInvalidNode);
  const std::uint64_t region = static_cast<std::uint64_t>(w.p.stub_domain_size);
  w.expect(reads, [&](Network& net) { net.fail_link(l.a, l.b); },
           /*evicted=*/false, /*patched=*/true, /*max_pops=*/2 * region);
  // A crashed member and a failed gateway link cut nodes off: the domain
  // is re-settled to +inf where a fresh pass leaves it.
  w.expect(reads, [&](Network& net) { net.crash_node(l.b); },
           /*evicted=*/false, /*patched=*/true, /*max_pops=*/2 * region);
  const NodeId gateway = gateway_of(w.net, w.p, 7);
  for (const std::uint32_t idx : w.net.incident(gateway)) {
    const Link& bridge = w.net.links()[idx];
    if (domain_of(w.p, bridge.a) >= 0 && domain_of(w.p, bridge.b) >= 0) {
      continue;
    }
    w.expect(reads, [&](Network& net) { net.fail_link(bridge.a, bridge.b); },
             /*evicted=*/false, /*patched=*/true, /*max_pops=*/2 * region);
  }
}

TEST(RoutingTest, SparseSyncEvictsARowWhoseCoreOrHomeRegionAFaultReaches) {
  // A fault in the core, in the source's own domain, at that domain's
  // gateway, at the transit node it hangs off, or at the source itself
  // can move every value the row holds.
  const RegionSync w;
  const std::vector<NodeId> reads{stub_domain_members(w.p, 1)[0], 2,
                                  stub_domain_members(w.p, 7)[4]};
  const NodeId gateway = gateway_of(w.net, w.p, 1);
  NodeId attach = kInvalidNode;
  for (const std::uint32_t idx : w.net.incident(gateway)) {
    const Link& l = w.net.links()[idx];
    const NodeId other = l.a == gateway ? l.b : l.a;
    if (domain_of(w.p, other) < 0) attach = other;
  }
  ASSERT_NE(attach, kInvalidNode);
  Link core;
  for (const Link& l : w.net.links()) {
    if (domain_of(w.p, l.a) >= 0 || domain_of(w.p, l.b) >= 0) continue;
    Network probe = w.net;
    probe.fail_link(l.a, l.b);
    if (probe.connected()) core = l;
  }
  ASSERT_NE(core.a, kInvalidNode);
  const Link home = w.inside(1);
  ASSERT_NE(home.a, kInvalidNode);
  const std::vector<std::function<void(Network&)>> faults{
      [&](Network& net) { net.fail_link(core.a, core.b); },
      [&](Network& net) { net.fail_link(home.a, home.b); },
      [&](Network& net) { net.crash_node(gateway); },
      [&](Network& net) { net.crash_node(attach); },
      [&](Network& net) { net.crash_node(w.src); },
  };
  for (const auto& fault : faults) {
    w.expect(reads, fault, /*evicted=*/true, /*patched=*/false,
             /*max_pops=*/0);
  }
}

/// Checks cost, delay and cost path of every pair of a sparse table of
/// `net` against the reference, reading `sources` first (so the table
/// holds their rows through `sync`s), then syncs after each of `faults`
/// and checks again.
void expect_synced_reads_match_reference(
    Network& net, const std::vector<NodeId>& sources,
    const std::vector<std::function<void(Network&)>>& faults) {
  RoutingOptions opts;
  opts.mode = RoutingMode::kSparse;
  RoutingTables rt = RoutingTables::build(net, opts);
  std::vector<NodeId> all = every_node(net);
  for (const auto& fault : faults) {
    expect_matches_reference(net, rt, sources);
    expect_matches_reference(net, rt, all);
    fault(net);
    ASSERT_FALSE(rt.sync(net).full_rebuild);
  }
  expect_matches_reference(net, rt, sources);
  expect_matches_reference(net, rt, all);
}

TEST(RoutingReferenceTest, AFailedAndRestoredBridgeMatchesTheReference) {
  // Rows from inside domain 6 and from outside it, read before the gateway
  // link fails: the inside rows are evicted, and the outside rows re-settle
  // the domain, which a down bridge leaves at +inf.
  const TransitStubParams p = rooted_in_transit();
  Prng prng(111);
  Network net = make_transit_stub(p, prng);
  const NodeId gateway = gateway_of(net, p, 6);
  NodeId attach = kInvalidNode;
  for (const std::uint32_t idx : net.incident(gateway)) {
    const Link& l = net.links()[idx];
    if (domain_of(p, l.a == gateway ? l.b : l.a) < 0) {
      attach = l.a == gateway ? l.b : l.a;
    }
  }
  ASSERT_NE(attach, kInvalidNode);
  const std::vector<NodeId> sources{gateway, stub_domain_members(p, 6)[5], 0,
                                    attach, stub_domain_members(p, 11)[2]};
  expect_synced_reads_match_reference(
      net, sources,
      {[&](Network& n) { n.fail_link(gateway, attach); },
       [&](Network& n) { n.restore_link(gateway, attach); }});
}

TEST(RoutingReferenceTest, ADoubledGatewayLinkIsNoBridge) {
  // A twin of domain 3's gateway link leaves no bridge there: the gateway
  // joins the core, and a core source's first read pops it too.
  const TransitStubParams p = rooted_in_transit();
  Prng prng(112);
  Network net = make_transit_stub(p, prng);
  RoutingOptions opts;
  opts.mode = RoutingMode::kSparse;
  const auto first_read_pops = [&] {
    const RoutingTables rt = RoutingTables::build(net, opts);
    rt.cost(0, 1);
    return rt.work().row_pops;
  };
  const std::uint64_t single = first_read_pops();
  const NodeId gateway = gateway_of(net, p, 3);
  NodeId attach = kInvalidNode;
  for (const std::uint32_t idx : net.incident(gateway)) {
    const Link l = net.links()[idx];
    if (domain_of(p, l.a) < 0 || domain_of(p, l.b) < 0) {
      attach = l.a == gateway ? l.b : l.a;
      net.add_link(l.a, l.b, l.cost_per_byte * 1.5, l.delay_ms * 0.5, 1e6);
      break;
    }
  }
  ASSERT_NE(attach, kInvalidNode);
  EXPECT_GT(first_read_pops(), single);
  // Failing the adjacency takes both links down: a core event.
  expect_synced_reads_match_reference(
      net, {gateway, 0, stub_domain_members(p, 3)[6]},
      {[&](Network& n) { n.fail_link(gateway, attach); },
       [&](Network& n) { n.restore_link(gateway, attach); }});
}

TEST(RoutingReferenceTest, ANestedBridgeMatchesTheReference) {
  // A member with one link hangs inside its domain's region. Its failure is
  // the domain's event: rows from elsewhere re-settle the domain, the
  // member's own row and its domain's are evicted.
  const TransitStubParams p = rooted_in_transit();
  Prng prng(106);
  Network net = make_transit_stub(p, prng);
  NodeId pendant = kInvalidNode;
  int d = 0;
  for (; d < stub_domain_count(p) && pendant == kInvalidNode; ++d) {
    pendant = pendant_of(net, p, d);
  }
  ASSERT_NE(pendant, kInvalidNode);
  const Link bridge = net.links()[net.incident(pendant).front()];
  const NodeId other = bridge.a == pendant ? bridge.b : bridge.a;
  expect_synced_reads_match_reference(
      net, {pendant, other, gateway_of(net, p, d - 1), 1,
            stub_domain_members(p, (d + 3) % stub_domain_count(p))[0]},
      {[&](Network& n) { n.fail_link(bridge.a, bridge.b); },
       [&](Network& n) { n.restore_link(bridge.a, bridge.b); }});
}

TEST(RoutingReferenceTest, AWorldWithoutBridgesIsOneCore) {
  // A ring with chords has no bridge: every first read is a full pass, and
  // any fault evicts every row.
  Prng prng(113);
  Network ring;
  const NodeId n = 24;
  for (NodeId v = 0; v < n; ++v) ring.add_node();
  for (NodeId v = 0; v < n; ++v) {
    ring.add_link(v, (v + 1) % n, prng.uniform(1.0, 3.0),
                  prng.uniform(1.0, 9.0), 1e6);
    if (v % 5 == 0) {
      ring.add_link(v, (v + 7) % n, prng.uniform(2.0, 6.0),
                    prng.uniform(1.0, 9.0), 1e6);
    }
  }
  RoutingOptions opts;
  opts.mode = RoutingMode::kSparse;
  RoutingTables rt = RoutingTables::build(ring, opts);
  rt.cost(3, 4);
  EXPECT_EQ(rt.work().row_pops, n);
  rt.delay_ms(9, 4);
  ring.fail_link(10, 11);
  const RoutingSyncStats st = rt.sync(ring);
  EXPECT_EQ(st.rows_dropped, 2u);
  EXPECT_EQ(rt.cached_rows(), 0u);
  expect_synced_reads_match_reference(
      ring, {3, 9}, {[&](Network& net) { net.crash_node(17); },
                     [&](Network& net) { net.restore_link(10, 11); }});
}

TEST(RoutingTest, RegionPartsSettleFromPoolThreads) {
  // The pool's threads read a few shared rows for both metrics at random
  // nodes, so the parts are started and their regions settled by several
  // threads under the table's lock. Every value must equal a serial read's.
  Prng prng(95);
  const Network net = make_transit_stub(scale_to(528), prng);
  const std::size_t n = net.node_count();
  RoutingOptions opts;
  opts.mode = RoutingMode::kSparse;
  const RoutingTables serial = RoutingTables::build(net, opts);
  ThreadPool pool(4);
  for (int round = 0; round < 3; ++round) {
    const RoutingTables shared = RoutingTables::build(net, opts);
    std::vector<NodeId> sources(4);
    for (NodeId& a : sources) a = static_cast<NodeId>(prng.index(n));
    std::vector<std::pair<NodeId, NodeId>> reads(256);
    for (std::size_t i = 0; i < reads.size(); ++i) {
      reads[i] = {sources[i % sources.size()],
                  static_cast<NodeId>(prng.index(n))};
    }
    std::vector<double> got(reads.size());
    std::vector<std::vector<NodeId>> paths(reads.size());
    pool.parallel_blocks(reads.size(), [&](std::size_t begin,
                                           std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        const auto [a, b] = reads[i];
        if (i % 2 == 0) {
          got[i] = shared.delay_ms(a, b);
        } else {
          got[i] = shared.cost(a, b);
          paths[i] = shared.cost_path(a, b);
        }
      }
    });
    for (std::size_t i = 0; i < reads.size(); ++i) {
      const auto [a, b] = reads[i];
      const double want =
          i % 2 == 0 ? serial.delay_ms(a, b) : serial.cost(a, b);
      ASSERT_EQ(bits(got[i]), bits(want)) << a << "->" << b;
      if (i % 2 == 1) {
        ASSERT_EQ(paths[i], serial.cost_path(a, b)) << a << "->" << b;
      }
    }
  }
}

}  // namespace
}  // namespace iflow::net
