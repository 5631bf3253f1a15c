// Incremental routing repair must be observationally equivalent to a
// from-scratch rebuild after any seeded fail/restore script.
//
// A synced table is compared with a fresh build of the same tier on every
// pair: both distances (cost, delay) exactly and the cost path node by
// node. Every value was produced by the same expressions the fresh build
// evaluates, and sync() reproduces Dijkstra's choice of parent or
// recomputes (dense) or evicts (sparse) the row, so any difference is a
// stale-row bug. Both tiers walk the source row's predecessor tree, so the
// path a→b reads every predecessor on it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/prng.h"
#include "integer_weights.h"
#include "net/gtitm.h"
#include "net/network.h"
#include "net/routing.h"

namespace iflow::net {
namespace {

// Compares an incrementally synced table against a fresh build of the same
// tier on all pairs: distances, reachability and the cost path node by
// node. The path a→b ends with b's predecessor in row a, so this checks
// every predecessor of every row.
void expect_equivalent(const Network& net, const RoutingTables& inc) {
  ASSERT_EQ(inc.built_against(), net.version());
  RoutingOptions opts;
  opts.mode = inc.sparse() ? RoutingMode::kSparse : RoutingMode::kDense;
  const RoutingTables fresh = RoutingTables::build(net, opts);
  const auto n = static_cast<NodeId>(net.node_count());
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      ASSERT_EQ(inc.cost(a, b), fresh.cost(a, b)) << a << "->" << b;
      ASSERT_EQ(inc.delay_ms(a, b), fresh.delay_ms(a, b)) << a << "->" << b;
      ASSERT_EQ(inc.reachable(a, b), fresh.reachable(a, b));
      ASSERT_EQ(inc.cost_path(a, b), fresh.cost_path(a, b)) << a << "->" << b;
    }
  }
}

struct Event {
  enum Kind { kFailLink, kRestoreLink, kCrashNode, kRestoreNode } kind;
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
};

// Draws the next applicable fault/repair event. Fail/crash targets are
// checked against the tracked down-sets so every event is a real state
// change (the Network throws on double faults by contract).
Event next_event(const Network& net, Prng& prng,
                 std::vector<std::pair<NodeId, NodeId>>& down_links,
                 std::vector<NodeId>& down_nodes) {
  const auto norm = [](NodeId a, NodeId b) {
    return a < b ? std::pair{a, b} : std::pair{b, a};
  };
  for (;;) {
    const auto roll = prng.uniform_int(0, 99);
    if (roll < 40 || (down_links.empty() && down_nodes.empty())) {
      const Link& l = net.links()[prng.index(net.links().size())];
      const auto key = norm(l.a, l.b);
      if (std::find(down_links.begin(), down_links.end(), key) !=
          down_links.end()) {
        continue;
      }
      down_links.push_back(key);
      return {Event::kFailLink, key.first, key.second};
    }
    if (roll < 55) {
      const auto n = static_cast<NodeId>(prng.index(net.node_count()));
      if (std::find(down_nodes.begin(), down_nodes.end(), n) !=
          down_nodes.end()) {
        continue;
      }
      down_nodes.push_back(n);
      return {Event::kCrashNode, n, kInvalidNode};
    }
    if (roll < 85 && !down_links.empty()) {
      const std::size_t j = prng.index(down_links.size());
      const Event e{Event::kRestoreLink, down_links[j].first,
                    down_links[j].second};
      down_links.erase(down_links.begin() + static_cast<std::ptrdiff_t>(j));
      return e;
    }
    if (!down_nodes.empty()) {
      const std::size_t j = prng.index(down_nodes.size());
      const Event e{Event::kRestoreNode, down_nodes[j], kInvalidNode};
      down_nodes.erase(down_nodes.begin() + static_cast<std::ptrdiff_t>(j));
      return e;
    }
  }
}

void apply(Network& net, const Event& e) {
  switch (e.kind) {
    case Event::kFailLink:
      net.fail_link(e.a, e.b);
      break;
    case Event::kRestoreLink:
      net.restore_link(e.a, e.b);
      break;
    case Event::kCrashNode:
      net.crash_node(e.a);
      break;
    case Event::kRestoreNode:
      net.restore_node(e.a);
      break;
  }
}

// Replays `length` seeded events, one sync each, and checks the table
// against a fresh build after every sync. On the sparse tier `cached_rows`
// bounds the LRU (0 keeps every row resident).
void run_script(RoutingMode mode, std::uint64_t seed, int length,
                bool integer_weights = false, std::size_t cached_rows = 0) {
  Prng prng(seed);
  Network net = make_transit_stub(TransitStubParams{}, prng);
  if (integer_weights) net = with_integer_weights(net);
  RoutingOptions opts;
  opts.mode = mode;
  opts.max_cached_rows = cached_rows > 0 ? cached_rows : net.node_count();
  RoutingTables rt = RoutingTables::build(net, opts);
  std::vector<std::pair<NodeId, NodeId>> down_links;
  std::vector<NodeId> down_nodes;
  for (int i = 0; i < length; ++i) {
    apply(net, next_event(net, prng, down_links, down_nodes));
    const std::size_t resident =
        rt.sparse() ? rt.cached_rows() : net.node_count();
    const RoutingSyncStats st = rt.sync(net);
    // Faults and restores are repaired on both tiers: every resident row is
    // kept, repaired or (under a tie) recomputed or evicted.
    EXPECT_FALSE(st.full_rebuild);
    EXPECT_EQ(st.rows_retained + st.rows_patched + st.rows_dropped, resident);
    if (rt.sparse()) {
      EXPECT_EQ(rt.cached_rows(), resident - st.rows_dropped);
    }
    // expect_equivalent touches every pair, which on the sparse tier also
    // re-warms rows — all of them with an unbounded cache, the last
    // `cached_rows` sources otherwise, evicting and recomputing the rest —
    // so the next event repairs a populated cache.
    expect_equivalent(net, rt);
  }
}

TEST(IncrementalRoutingTest, DenseSyncMatchesRebuildAcrossSeededScripts) {
  for (const std::uint64_t seed : {11u, 29u, 47u}) {
    run_script(RoutingMode::kDense, seed, 20);
  }
}

TEST(IncrementalRoutingTest, DenseSyncMatchesRebuildWithIntegerWeights) {
  // Rows whose trees hold ties are recomputed, not repaired: a fault can
  // change the heap's pop order, and with it the parent a fresh build
  // picks, even at nodes the fault never reaches.
  for (const std::uint64_t seed : {7u, 19u}) {
    run_script(RoutingMode::kDense, seed, 20, /*integer_weights=*/true);
  }
}

// The sparse scripts also pin the in-place patch of the adjacency's usable
// bytes in sync(): with an 8-row cache, expect_equivalent evicts rows and
// recomputes them from the patched adjacency after every sync, and compares
// them with rows a fresh build computes from a fresh adjacency.
TEST(IncrementalRoutingTest, SparseSyncMatchesRebuildAcrossSeededScripts) {
  for (const std::uint64_t seed : {13u, 31u, 53u}) {
    run_script(RoutingMode::kSparse, seed, 20);
    run_script(RoutingMode::kSparse, seed, 20, /*integer_weights=*/false,
               /*cached_rows=*/8);
  }
}

TEST(IncrementalRoutingTest, SparseSyncMatchesRebuildWithIntegerWeights) {
  // As on the dense tier, a cached row whose cost tree holds a tie must be
  // evicted, not kept: a row kept across a fault can hold a path that a
  // fresh row no longer picks.
  for (const std::uint64_t seed : {7u, 19u}) {
    run_script(RoutingMode::kSparse, seed, 20, /*integer_weights=*/true);
  }
}

// Replays `length` seeded events on a sparse table whose rows are read
// only partly between events: both metrics from random sources to the end
// of short random walks, so most parts hold a few regions when the next
// sync comes. After every sync each pair read so far, and a sample of other
// pairs (cost, delay and cost path), must match a fresh build. Over the
// script some rows re-settle a region and some are left alone.
void run_region_script(std::uint64_t seed, int length, bool integer_weights) {
  Prng prng(seed);
  Network net = make_transit_stub(rooted_in_transit(), prng);
  if (integer_weights) net = with_integer_weights(net);
  const std::size_t n = net.node_count();
  RoutingOptions opts;
  opts.mode = RoutingMode::kSparse;
  opts.max_cached_rows = n;
  RoutingTables rt = RoutingTables::build(net, opts);
  std::vector<std::pair<NodeId, NodeId>> down_links;
  std::vector<NodeId> down_nodes;
  std::vector<std::pair<NodeId, NodeId>> read;
  std::size_t patched = 0, retained = 0;
  for (int i = 0; i < length; ++i) {
    for (int k = 0; k < 4; ++k) {
      const auto a = static_cast<NodeId>(prng.index(n));
      NodeId b = a;
      for (int hops = static_cast<int>(prng.index(5)); hops > 0; --hops) {
        const std::vector<std::uint32_t>& arcs = net.incident(b);
        const Link& l = net.links()[arcs[prng.index(arcs.size())]];
        b = l.a == b ? l.b : l.a;
      }
      rt.delay_ms(a, b);
      rt.cost(a, b);
      read.emplace_back(a, b);
    }
    apply(net, next_event(net, prng, down_links, down_nodes));
    const std::size_t resident = rt.cached_rows();
    const RoutingSyncStats st = rt.sync(net);
    EXPECT_FALSE(st.full_rebuild);
    EXPECT_EQ(st.rows_retained + st.rows_patched + st.rows_dropped, resident);
    EXPECT_EQ(rt.cached_rows(), resident - st.rows_dropped);
    patched += st.rows_patched;
    retained += st.rows_retained;
    const RoutingTables fresh = RoutingTables::build(net, opts);
    for (const auto& [a, b] : read) {
      ASSERT_EQ(rt.delay_ms(a, b), fresh.delay_ms(a, b)) << a << "->" << b;
      ASSERT_EQ(rt.cost(a, b), fresh.cost(a, b)) << a << "->" << b;
    }
    for (int k = 0; k < 8; ++k) {
      const auto a = static_cast<NodeId>(prng.index(n));
      const auto b = static_cast<NodeId>(prng.index(n));
      ASSERT_EQ(rt.delay_ms(a, b), fresh.delay_ms(a, b)) << a << "->" << b;
      ASSERT_EQ(rt.cost(a, b), fresh.cost(a, b)) << a << "->" << b;
      ASSERT_EQ(rt.cost_path(a, b), fresh.cost_path(a, b)) << a << "->" << b;
    }
  }
  EXPECT_GT(patched, 0u);
  EXPECT_GT(retained, 0u);
}

TEST(IncrementalRoutingTest, SparseSyncKeepsRegionPartsExact) {
  for (const std::uint64_t seed : {13u, 31u}) {
    run_region_script(seed, 30, /*integer_weights=*/false);
  }
  for (const std::uint64_t seed : {7u, 19u}) {
    run_region_script(seed, 30, /*integer_weights=*/true);
  }
}

TEST(IncrementalRoutingTest, SparseSyncRepairsRowsWhoseTreesCrossedTheLink) {
  // Line graph: the region search roots at node 1, so node 0 is a region of
  // its own behind link (0, 1), which every other row's trees cross. Its
  // failure and its restore change every cached row: the others re-settle
  // node 0 in place, and row 0, whose home region it is, is evicted.
  Network net;
  for (int i = 0; i < 6; ++i) net.add_node();
  for (NodeId i = 0; i + 1 < 6; ++i) net.add_link(i, i + 1, 1.0, 10.0, 1e6);
  RoutingOptions opts;
  opts.mode = RoutingMode::kSparse;
  opts.max_cached_rows = 6;
  RoutingTables rt = RoutingTables::build(net, opts);
  for (NodeId a = 0; a < 6; ++a) rt.cost(a, 0);
  ASSERT_EQ(rt.cached_rows(), 6u);

  for (const bool restore : {false, true}) {
    if (restore) {
      net.restore_link(0, 1);
    } else {
      net.fail_link(0, 1);
    }
    const RoutingSyncStats st = rt.sync(net);
    EXPECT_FALSE(st.full_rebuild);
    EXPECT_FALSE(st.quality_only);
    EXPECT_EQ(st.rows_patched, 5u);
    EXPECT_EQ(st.rows_dropped, 1u);
    EXPECT_EQ(st.rows_retained, 0u);
    EXPECT_EQ(rt.cached_rows(), 5u);
    expect_equivalent(net, rt);
  }
}

TEST(IncrementalRoutingTest, SparseSyncEmptiesTheCacheOnACostChange) {
  // The journal does not record a link's old cost, so a raise or a cut
  // takes the full fallback on the sparse tier as on the dense one.
  Network net;
  for (int i = 0; i < 3; ++i) net.add_node();
  net.add_link(0, 1, 1.0, 10.0, 1e6);
  net.add_link(1, 2, 1.0, 10.0, 1e6);
  net.add_link(0, 2, 5.0, 50.0, 1e6);
  RoutingOptions opts;
  opts.mode = RoutingMode::kSparse;
  RoutingTables rt = RoutingTables::build(net, opts);
  for (const double cost : {3.0, 0.5}) {
    for (NodeId a = 0; a < 3; ++a) rt.cost(a, 0);
    ASSERT_EQ(rt.cached_rows(), 3u);
    net.set_link_cost(0, 1, cost);
    const RoutingSyncStats st = rt.sync(net);
    EXPECT_TRUE(st.full_rebuild);
    EXPECT_EQ(rt.cached_rows(), 0u);
    expect_equivalent(net, rt);
  }
}

TEST(IncrementalRoutingTest, SparseSyncRetainsRowsOffTheFailedLink) {
  // A triangle core and a triangle region hung off node 2 by one link. The
  // cached rows read only the core, so failing a link inside the region
  // must retain every one of them unchanged.
  Network net;
  for (int i = 0; i < 6; ++i) net.add_node();
  net.add_link(0, 1, 1.0, 10.0, 1e6);
  net.add_link(1, 2, 1.0, 10.0, 1e6);
  net.add_link(0, 2, 5.0, 50.0, 1e6);
  net.add_link(2, 3, 1.0, 10.0, 1e6);
  net.add_link(3, 4, 1.0, 10.0, 1e6);
  net.add_link(4, 5, 1.0, 10.0, 1e6);
  net.add_link(3, 5, 5.0, 50.0, 1e6);
  RoutingOptions opts;
  opts.mode = RoutingMode::kSparse;
  opts.max_cached_rows = 3;
  RoutingTables rt = RoutingTables::build(net, opts);
  for (NodeId a = 0; a < 3; ++a) rt.cost(a, 0);
  ASSERT_EQ(rt.cached_rows(), 3u);

  net.fail_link(3, 5);
  const RoutingSyncStats st = rt.sync(net);
  EXPECT_FALSE(st.full_rebuild);
  EXPECT_EQ(st.rows_retained, 3u);
  EXPECT_EQ(st.rows_dropped, 0u);
  EXPECT_EQ(rt.cached_rows(), 3u);
  EXPECT_EQ(rt.work().sync_pops, 0u);
  expect_equivalent(net, rt);
}

TEST(IncrementalRoutingTest, JournalTruncationBoundaryIsExact) {
  // Pins the overflow boundary of the bounded mutation journal: at exactly
  // capacity every entry is retained and a version-0 reader replays the
  // whole history; one entry past it the oldest is dropped, version-0
  // readers get nullopt, and the replay window is exactly capacity wide.
  constexpr std::size_t kCapacity = 4096;  // network.cpp kMutationLogCapacity
  Network net;
  for (int i = 0; i < 3; ++i) net.add_node();
  net.add_link(0, 1, 1.0, 10.0, 1e6);
  net.add_link(1, 2, 1.0, 10.0, 1e6);
  RoutingTables rt = RoutingTables::build(net);

  // Quality-only churn up to EXACTLY capacity (the two add_link entries
  // already sit in the journal).
  auto logged = net.mutations_since(0);
  ASSERT_TRUE(logged.has_value());
  for (std::size_t i = logged->size(); i < kCapacity; ++i) {
    net.degrade_link(0, 1,
                     Degradation{1.0 + 0.001 * static_cast<double>(i % 7),
                                 0.0, 0.0});
  }
  logged = net.mutations_since(0);
  ASSERT_TRUE(logged.has_value());
  EXPECT_EQ(logged->size(), kCapacity);

  // Inside the window the whole batch replays as quality-only patches: no
  // rebuild (degradations never change link costs, so routes stand).
  RoutingSyncStats st = rt.sync(net);
  EXPECT_FALSE(st.full_rebuild);
  EXPECT_TRUE(st.quality_only);
  const double cost_before = rt.cost(0, 2);

  // One more entry crosses the boundary: the version-0 reader falls off,
  // the retained window is exactly kCapacity entries starting past the
  // dropped one, and the just-synced table still patches incrementally.
  net.degrade_link(1, 2, Degradation{2.0, 0.1, 0.0});
  EXPECT_FALSE(net.mutations_since(0).has_value());
  const auto tail = net.mutations_since(1);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->size(), kCapacity);
  st = rt.sync(net);
  EXPECT_FALSE(st.full_rebuild);
  EXPECT_TRUE(st.quality_only);
  EXPECT_EQ(rt.cost(0, 2), cost_before);

  // Slide the window entirely past the table's sync point: replay is no
  // longer possible and sync must fall back to a full rebuild.
  for (std::size_t i = 0; i <= kCapacity; ++i) {
    net.degrade_link(0, 1, Degradation{});
  }
  st = rt.sync(net);
  EXPECT_TRUE(st.full_rebuild);
  expect_equivalent(net, rt);
}

TEST(IncrementalRoutingTest, JournalWindowStaysExactAsItWraps) {
  // Past capacity the journal overwrites its oldest entry in place. At 5000
  // and 10000 mutations the window still holds exactly the last kCapacity
  // versions in order, with their own endpoints, and its boundary is where
  // it was: a reader at the oldest retained base replays, one version
  // older gets nullopt, and a table synced there patches or rebuilds.
  constexpr std::size_t kCapacity = 4096;  // network.cpp kMutationLogCapacity
  Network net;
  for (int i = 0; i < 3; ++i) net.add_node();
  net.add_link(0, 1, 1.0, 10.0, 1e6);
  net.add_link(1, 2, 1.0, 10.0, 1e6);
  const auto endpoint = [](std::uint64_t version) {
    return static_cast<NodeId>(version % 2);  // links (0, 1) and (1, 2)
  };
  for (const std::uint64_t total : {5000u, 10000u}) {
    RoutingTables behind, at_base;
    while (net.version() < total) {
      const std::uint64_t next = net.version() + 1;
      net.degrade_link(endpoint(next), endpoint(next) + 1, Degradation{});
      if (next == total - kCapacity - 1) behind = RoutingTables::build(net);
      if (next == total - kCapacity) at_base = RoutingTables::build(net);
    }
    const std::uint64_t base = total - kCapacity;
    EXPECT_FALSE(net.mutations_since(base - 1).has_value());
    const auto window = net.mutations_since(base);
    ASSERT_TRUE(window.has_value());
    ASSERT_EQ(window->size(), kCapacity);
    for (std::size_t i = 0; i < kCapacity; ++i) {
      const Mutation& m = (*window)[i];
      ASSERT_EQ(m.version, base + 1 + i);
      ASSERT_EQ(m.kind, MutationKind::kQuality);
      ASSERT_EQ(m.a, endpoint(m.version));
    }
    const auto tail = net.mutations_since(total - 3);
    ASSERT_TRUE(tail.has_value());
    ASSERT_EQ(tail->size(), 3u);
    EXPECT_EQ(tail->back().version, total);
    EXPECT_TRUE(net.mutations_since(total)->empty());
    EXPECT_TRUE(at_base.sync(net).quality_only);
    EXPECT_TRUE(behind.sync(net).full_rebuild);
  }
}

TEST(IncrementalRoutingTest, SparseSyncSurvivesLogTruncation) {
  // More mutations than the journal holds: sync must fall back to a clean
  // reset instead of applying a partial batch.
  Prng prng(17);
  Network net = make_transit_stub(TransitStubParams{}, prng);
  RoutingOptions opts;
  opts.mode = RoutingMode::kSparse;
  RoutingTables rt = RoutingTables::build(net, opts);
  rt.cost(0, 1);
  const Link l = net.links()[3];
  for (int i = 0; i < 3000; ++i) {
    net.fail_link(l.a, l.b);
    net.restore_link(l.a, l.b);
  }
  const RoutingSyncStats st = rt.sync(net);
  EXPECT_TRUE(st.full_rebuild);
  expect_equivalent(net, rt);
}

TEST(IncrementalRoutingTest, CrashedLeafNodeRowsArePatchedInPlace) {
  // A line graph: crashing the end node 0, a region of its own behind link
  // (0, 1), leaves every other node's rows otherwise intact, so cached rows
  // re-settle that region in place (to infinity) instead of being evicted.
  Network net;
  for (int i = 0; i < 6; ++i) net.add_node();
  for (NodeId i = 0; i + 1 < 6; ++i) net.add_link(i, i + 1, 1.0, 10.0, 1e6);
  RoutingOptions opts;
  opts.mode = RoutingMode::kSparse;
  opts.max_cached_rows = 6;
  RoutingTables rt = RoutingTables::build(net, opts);
  for (NodeId a = 1; a < 6; ++a) rt.cost(a, 0);  // warm rows 1..5
  net.crash_node(0);
  const RoutingSyncStats st = rt.sync(net);
  EXPECT_EQ(st.rows_dropped, 0u);
  EXPECT_EQ(st.rows_patched, 5u);
  EXPECT_FALSE(rt.reachable(5, 0));
  EXPECT_TRUE(std::isinf(rt.cost(2, 0)));
  expect_equivalent(net, rt);
}

TEST(IncrementalRoutingTest, DenseSyncOnAUnitLadderMatchesRebuild) {
  // A 2 x 5 ladder with unit costs and delays: almost every node has two
  // equal-cost parents, so Dijkstra's choice depends on heap order and the
  // rows cannot be repaired from distances alone: sync recomputes them.
  Network net;
  for (int i = 0; i < 10; ++i) net.add_node();
  for (NodeId i = 0; i + 1 < 5; ++i) {
    net.add_link(i, i + 1, 1.0, 1.0, 1e6);
    net.add_link(i + 5, i + 6, 1.0, 1.0, 1e6);
  }
  for (NodeId i = 0; i < 5; ++i) net.add_link(i, i + 5, 1.0, 1.0, 1e6);
  RoutingTables rt = RoutingTables::build(net);
  const std::vector<Event> script = {{Event::kFailLink, 1, 6},
                                     {Event::kCrashNode, 7, kInvalidNode},
                                     {Event::kRestoreLink, 1, 6},
                                     {Event::kRestoreNode, 7, kInvalidNode}};
  for (const Event& e : script) {
    apply(net, e);
    const RoutingSyncStats st = rt.sync(net);
    EXPECT_FALSE(st.full_rebuild);
    EXPECT_GT(st.rows_dropped, 0u);
    expect_equivalent(net, rt);
  }
}

TEST(IncrementalRoutingTest, DenseSyncRecomputesRowsWhereARestoreTies) {
  // Exactly representable costs. Restoring 2-3 gives node 3 a second path
  // from node 0 of the same cost (0.5 + 1.5 = 1 + 1), and a fresh Dijkstra
  // keeps whichever it pops first. Restoring 0-2 instead improves node 2,
  // whose relaxation then ties at node 3. Either way the tie-free row 0
  // must be recomputed rather than repaired.
  for (const auto& [a, b] : {std::pair<NodeId, NodeId>{2, 3}, {0, 2}}) {
    Network net;
    for (int i = 0; i < 5; ++i) net.add_node();
    net.add_link(0, 1, 1.0, 10.0, 1e6);
    net.add_link(1, 3, 1.0, 11.0, 1e6);
    net.add_link(0, 4, 1.0, 12.0, 1e6);
    net.add_link(4, 2, 1.0, 13.0, 1e6);
    net.add_link(0, 2, 0.5, 14.0, 1e6);
    net.add_link(2, 3, 1.5, 15.0, 1e6);
    net.fail_link(a, b);
    RoutingTables rt = RoutingTables::build(net);
    net.restore_link(a, b);
    const RoutingSyncStats st = rt.sync(net);
    EXPECT_FALSE(st.full_rebuild);
    EXPECT_GE(st.rows_dropped, 1u);
    expect_equivalent(net, rt);
  }
}

TEST(IncrementalRoutingTest, DenseSyncRepairsAStubBridgeFailureAndRestore) {
  // A stub domain is a spanning tree plus a few extra edges, so some of its
  // links are bridges: failing one cuts part of the domain off the network.
  Prng prng(5);
  Network net = make_transit_stub(TransitStubParams{}, prng);
  const Link* bridge = nullptr;
  for (const Link& l : net.links()) {
    if (net.kind(l.a) != NodeKind::kStub || net.kind(l.b) != NodeKind::kStub) {
      continue;
    }
    Network probe = net;
    probe.fail_link(l.a, l.b);
    if (!probe.connected()) {
      bridge = &l;
      break;
    }
  }
  ASSERT_NE(bridge, nullptr);
  const NodeId a = bridge->a;
  const NodeId b = bridge->b;
  RoutingTables rt = RoutingTables::build(net);

  net.fail_link(a, b);
  EXPECT_FALSE(rt.sync(net).full_rebuild);
  EXPECT_FALSE(rt.reachable(a, b));
  expect_equivalent(net, rt);

  net.restore_link(a, b);
  EXPECT_FALSE(rt.sync(net).full_rebuild);
  EXPECT_TRUE(rt.reachable(a, b));
  expect_equivalent(net, rt);
}

TEST(IncrementalRoutingTest, DenseSyncAbsorbsALinkFailureAndACrashInOneBatch) {
  Prng prng(23);
  Network net = make_transit_stub(TransitStubParams{}, prng);
  RoutingTables rt = RoutingTables::build(net);
  const Link l = net.links()[net.links().size() / 2];
  const NodeId crashed = (l.b + 17) % static_cast<NodeId>(net.node_count());
  ASSERT_NE(crashed, l.a);
  ASSERT_NE(crashed, l.b);

  net.fail_link(l.a, l.b);
  net.crash_node(crashed);
  EXPECT_FALSE(rt.sync(net).full_rebuild);
  expect_equivalent(net, rt);

  net.restore_node(crashed);
  net.restore_link(l.a, l.b);
  EXPECT_FALSE(rt.sync(net).full_rebuild);
  expect_equivalent(net, rt);
}

TEST(IncrementalRoutingTest, DenseSyncAbsorbsAFailAndRestoreOfTheSameLink) {
  // The batch's net effect is nil, but the restored link has to be found
  // again by the repair of the subtree the failure invalidated.
  Prng prng(41);
  Network net = make_transit_stub(TransitStubParams{}, prng);
  RoutingTables rt = RoutingTables::build(net);
  const Link l = net.links()[0];  // a transit link: on many trees
  net.fail_link(l.a, l.b);
  net.restore_link(l.a, l.b);
  EXPECT_FALSE(rt.sync(net).full_rebuild);
  expect_equivalent(net, rt);
}

TEST(IncrementalRoutingTest, DenseSyncRepairsStubFaultsAt528Nodes) {
  // The benchmark's world size: stub links fail and stub nodes crash, then
  // both come back, one sync per event. Every sync must repair rows in
  // place; a silent fallback to full rebuilds fails the test.
  Prng prng(7);
  Network net = make_transit_stub(scale_to(528), prng);
  ASSERT_EQ(net.node_count(), 528u);
  RoutingTables rt = RoutingTables::build(net);
  ASSERT_FALSE(rt.sparse());
  std::vector<std::uint32_t> stub_links;
  for (std::uint32_t i = 0; i < net.link_count(); ++i) {
    const Link& l = net.links()[i];
    if (net.kind(l.a) == NodeKind::kStub && net.kind(l.b) == NodeKind::kStub) {
      stub_links.push_back(i);
    }
  }
  std::vector<NodeId> stub_nodes;
  for (NodeId v = 0; v < net.node_count(); ++v) {
    if (net.kind(v) == NodeKind::kStub) stub_nodes.push_back(v);
  }
  for (int round = 0; round < 3; ++round) {
    const Link l = net.links()[stub_links[prng.index(stub_links.size())]];
    NodeId crashed = stub_nodes[prng.index(stub_nodes.size())];
    while (crashed == l.a || crashed == l.b) {
      crashed = stub_nodes[prng.index(stub_nodes.size())];
    }
    const std::vector<Event> script = {
        {Event::kFailLink, l.a, l.b},
        {Event::kCrashNode, crashed, kInvalidNode},
        {Event::kRestoreLink, l.a, l.b},
        {Event::kRestoreNode, crashed, kInvalidNode}};
    for (const Event& e : script) {
      apply(net, e);
      const RoutingSyncStats st = rt.sync(net);
      EXPECT_FALSE(st.full_rebuild);
      EXPECT_GE(st.rows_patched, 1u);
      EXPECT_EQ(st.rows_patched + st.rows_dropped + st.rows_retained,
                net.node_count());
      expect_equivalent(net, rt);
    }
  }
}

}  // namespace
}  // namespace iflow::net
