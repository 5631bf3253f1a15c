// Uniformly random workload generation (paper §3).
//
// "Our workload was generated using a uniformly random workload generator.
//  The workload generator generated stream rates, selectivities and source
//  placements for a specified number of streams according to a uniform
//  distribution. It also generated queries with the number of joins per
//  query varying within a specified range with random sink placements."
#pragma once

#include "common/prng.h"
#include "net/network.h"
#include "query/catalog.h"
#include "query/query.h"

namespace iflow::workload {

/// Tuple widths are uniform in [kTupleWidthMin, kTupleWidthMax] bytes.
inline constexpr double kTupleWidthMin = 50.0;
inline constexpr double kTupleWidthMax = 200.0;
/// A filtered source keeps a uniform fraction in [kFilterSelectivityMin,
/// kFilterSelectivityMax] of its tuples.
inline constexpr double kFilterSelectivityMin = 0.1;
inline constexpr double kFilterSelectivityMax = 0.9;

/// Workload knobs: stream count, joins per query, rate and selectivity
/// ranges, and how often queries filter. Tuple widths and filter
/// selectivities use the fixed ranges above.
struct WorkloadParams {
  int num_streams = 10;
  /// Joins per query, uniform in [min_joins, max_joins]; a query with j
  /// joins spans j + 1 sources.
  int min_joins = 2;
  int max_joins = 5;
  double tuple_rate_min = 10.0;     // tuples per second
  double tuple_rate_max = 100.0;
  /// Pairwise join selectivities; the range keeps two-way join rates in the
  /// same order of magnitude as base rates, so join ordering matters.
  double selectivity_min = 0.001;
  double selectivity_max = 0.02;

  /// Probability that a query filters any given source (select-project-join
  /// workloads; 0 = pure join workloads, the paper's figures).
  double filter_probability = 0.0;
};

struct Workload {
  query::Catalog catalog;
  std::vector<query::Query> queries;
};

/// Generates a catalog (streams placed at uniformly random network nodes)
/// and `num_queries` queries over distinct random source subsets with random
/// sinks. Deterministic given the Prng.
Workload make_workload(const net::Network& net, const WorkloadParams& params,
                       int num_queries, Prng& prng);

/// Dual-relay star world of the gray-failure and recovery harnesses: three
/// sources and a sink, each linked to a primary relay (cost 1.0) and a
/// backup relay (cost 1.3). The 3-way join of `query` (id 1) lands on the
/// primary for every optimizer — a relay that is no endpoint, with the
/// backup a complete detour once it is faulted. That needs exactly three
/// sources (wider worlds tip the heuristics toward endpoint placements) and
/// equal stream rates: with an unequal pair, shipping the lighter stream to
/// the heavier source is strictly cheaper (2·min < min+max). Every stream
/// carries `rate` 100-byte tuples per second; every pair joins with
/// `selectivity`.
struct RelayStar {
  net::Network net;
  query::Catalog catalog;
  query::Query query;
  net::NodeId primary = net::kInvalidNode;
  net::NodeId backup = net::kInvalidNode;
  net::NodeId sink = net::kInvalidNode;
};
RelayStar make_relay_star(double rate, double selectivity);

}  // namespace iflow::workload
