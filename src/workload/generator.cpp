#include "workload/generator.h"

#include <algorithm>
#include <string>

namespace iflow::workload {

Workload make_workload(const net::Network& net, const WorkloadParams& params,
                       int num_queries, Prng& prng) {
  IFLOW_CHECK(params.num_streams >= 1);
  IFLOW_CHECK(params.min_joins >= 1);
  IFLOW_CHECK(params.max_joins >= params.min_joins);
  IFLOW_CHECK_MSG(params.max_joins + 1 <= params.num_streams,
                  "queries need max_joins + 1 distinct streams");
  IFLOW_CHECK(net.node_count() > 0);

  Workload w;
  for (int s = 0; s < params.num_streams; ++s) {
    const auto node =
        static_cast<net::NodeId>(prng.index(net.node_count()));
    w.catalog.add_stream(
        std::string("S").append(std::to_string(s)), node,
        prng.uniform(params.tuple_rate_min, params.tuple_rate_max),
        prng.uniform(kTupleWidthMin, kTupleWidthMax));
  }
  for (int a = 0; a < params.num_streams; ++a) {
    for (int b = a + 1; b < params.num_streams; ++b) {
      w.catalog.set_selectivity(
          static_cast<query::StreamId>(a), static_cast<query::StreamId>(b),
          prng.uniform(params.selectivity_min, params.selectivity_max));
    }
  }

  std::vector<query::StreamId> all_streams(
      static_cast<std::size_t>(params.num_streams));
  for (std::size_t i = 0; i < all_streams.size(); ++i) {
    all_streams[i] = static_cast<query::StreamId>(i);
  }
  for (int qi = 0; qi < num_queries; ++qi) {
    const int joins = static_cast<int>(
        prng.uniform_int(params.min_joins, params.max_joins));
    const std::size_t k = static_cast<std::size_t>(joins) + 1;
    prng.shuffle(all_streams);
    query::Query q;
    q.id = static_cast<query::QueryId>(qi);
    q.name = std::string("Q").append(std::to_string(qi));
    q.sources.assign(all_streams.begin(),
                     all_streams.begin() + static_cast<std::ptrdiff_t>(k));
    std::sort(q.sources.begin(), q.sources.end());
    q.sink = static_cast<net::NodeId>(prng.index(net.node_count()));
    if (params.filter_probability > 0.0) {
      q.filter_selectivity.assign(k, 1.0);
      for (std::size_t i = 0; i < k; ++i) {
        if (prng.chance(params.filter_probability)) {
          q.filter_selectivity[i] =
              prng.uniform(kFilterSelectivityMin, kFilterSelectivityMax);
        }
      }
    }
    w.queries.push_back(std::move(q));
  }
  return w;
}

RelayStar make_relay_star(double rate, double selectivity) {
  RelayStar w;
  w.primary = w.net.add_node();
  w.backup = w.net.add_node();
  std::vector<net::NodeId> srcs;
  for (int i = 0; i < 3; ++i) srcs.push_back(w.net.add_node());
  w.sink = w.net.add_node();
  for (const net::NodeId n : srcs) {
    w.net.add_link(w.primary, n, 1.0, 1.0, 1e6);
    w.net.add_link(w.backup, n, 1.3, 1.0, 1e6);
  }
  w.net.add_link(w.primary, w.sink, 1.0, 1.0, 1e6);
  w.net.add_link(w.backup, w.sink, 1.3, 1.0, 1e6);
  for (int i = 0; i < 3; ++i) {
    w.query.sources.push_back(w.catalog.add_stream(
        std::string("S").append(std::to_string(i)),
        srcs[static_cast<std::size_t>(i)], rate, 100.0));
  }
  for (std::size_t i = 0; i < w.query.sources.size(); ++i) {
    for (std::size_t j = i + 1; j < w.query.sources.size(); ++j) {
      w.catalog.set_selectivity(w.query.sources[i], w.query.sources[j],
                                selectivity);
    }
  }
  w.query.id = 1;
  w.query.sink = w.sink;
  return w;
}

}  // namespace iflow::workload
