#include "advert/registry.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace iflow::advert {

namespace {

constexpr double kFilterTolerance = 1e-9;

bool nearly_equal(double a, double b) {
  return std::abs(a - b) <= kFilterTolerance * (1.0 + std::abs(a));
}

}  // namespace

void Registry::advertise(DerivedStream ds) {
  IFLOW_CHECK(!ds.streams.empty());
  IFLOW_CHECK(ds.filters.size() == ds.streams.size());
  IFLOW_CHECK(std::is_sorted(ds.streams.begin(), ds.streams.end()));
  IFLOW_CHECK(ds.location != net::kInvalidNode);
  for (double f : ds.filters) IFLOW_CHECK(f > 0.0 && f <= 1.0);
  for (const DerivedStream& existing : streams_) {
    if (existing.origin == ds.origin && existing.location == ds.location &&
        existing.streams == ds.streams &&
        std::equal(existing.filters.begin(), existing.filters.end(),
                   ds.filters.begin(), nearly_equal)) {
      return;
    }
  }
  streams_.push_back(std::move(ds));
}

Registry Registry::regrouped(
    const std::vector<query::QueryId>& origins,
    const std::function<bool(net::NodeId)>& drop) const {
  std::vector<std::pair<query::QueryId, std::size_t>> rank;  // origin, place
  rank.reserve(origins.size());
  for (std::size_t i = 0; i < origins.size(); ++i) {
    rank.emplace_back(origins[i], i);
  }
  std::sort(rank.begin(), rank.end());
  std::vector<std::pair<std::size_t, std::size_t>> picked;  // place, entry
  for (std::size_t e = 0; e < streams_.size(); ++e) {
    const DerivedStream& ds = streams_[e];
    const auto it = std::lower_bound(rank.begin(), rank.end(),
                                     std::make_pair(ds.origin, std::size_t{0}));
    if (it == rank.end() || it->first != ds.origin) continue;
    if (drop && drop(ds.location)) continue;
    picked.emplace_back(it->second, e);
  }
  std::sort(picked.begin(), picked.end());
  Registry out;
  out.streams_.reserve(picked.size());
  for (const auto& [place, e] : picked) out.streams_.push_back(streams_[e]);
  return out;
}

std::size_t Registry::remove_origin(query::QueryId q) {
  const std::size_t before = streams_.size();
  streams_.erase(
      std::remove_if(streams_.begin(), streams_.end(),
                     [&](const DerivedStream& ds) { return ds.origin == q; }),
      streams_.end());
  return before - streams_.size();
}

std::vector<ReuseMatch> Registry::reusable(
    const query::Query& q,
    const std::function<bool(net::NodeId)>& in_scope) const {
  std::vector<query::StreamId> wanted = q.sources;
  std::sort(wanted.begin(), wanted.end());
  std::vector<ReuseMatch> result;
  for (const DerivedStream& ds : streams_) {
    if (!std::includes(wanted.begin(), wanted.end(), ds.streams.begin(),
                       ds.streams.end())) {
      continue;
    }
    if (in_scope && !in_scope(ds.location)) continue;
    // Usable iff the advertisement's filters are weaker or equal on every
    // stream; the residual is what still has to be applied.
    double residual = 1.0;
    bool usable = true;
    for (std::size_t i = 0; i < ds.streams.size(); ++i) {
      const double advertised = ds.filters[i];
      const double needed = q.filter_on(ds.streams[i]);
      if (needed > advertised + kFilterTolerance) {
        usable = false;  // advertisement dropped tuples the query needs
        break;
      }
      if (!nearly_equal(advertised, needed)) residual *= needed / advertised;
    }
    if (!usable) continue;
    // A single unfiltered stream is just its base stream.
    if (ds.streams.size() < 2 && nearly_equal(residual, 1.0) &&
        nearly_equal(ds.filters.front(), 1.0)) {
      continue;
    }
    result.push_back(ReuseMatch{&ds, residual});
  }
  return result;
}

void advertise_deployment(Registry& registry, const query::Deployment& d,
                          const query::RateModel& rates) {
  auto make = [&](query::Mask m, net::NodeId location, double bytes,
                  double tuples) {
    DerivedStream ds;
    for (int i = 0; i < rates.k(); ++i) {
      if (m >> i & 1) {
        ds.streams.push_back(rates.stream(i));
        ds.filters.push_back(rates.query().filter(i));
      }
    }
    // Sort streams, keeping filters parallel.
    std::vector<std::size_t> order(ds.streams.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return ds.streams[a] < ds.streams[b];
    });
    DerivedStream sorted;
    for (std::size_t i : order) {
      sorted.streams.push_back(ds.streams[i]);
      sorted.filters.push_back(ds.filters[i]);
    }
    sorted.location = location;
    sorted.bytes_rate = bytes;
    sorted.tuple_rate = tuples;
    sorted.origin = d.query;
    registry.advertise(std::move(sorted));
  };

  for (const query::DeployedOp& op : d.ops) {
    make(op.mask, op.node, op.out_bytes_rate, op.out_tuple_rate);
  }
  // The sink itself is a derived source for the whole query result, unless
  // it aggregates: then it receives groups, not the join, and exports
  // nothing (the engine registers no producer there either).
  if (d.aggregate.enabled()) return;
  query::Mask all = 0;
  for (const query::LeafUnit& u : d.units) all |= u.mask;
  make(all, d.sink, d.root_bytes_rate(),
       d.ops.empty() ? d.units.front().tuple_rate
                     : d.ops.back().out_tuple_rate);
}

}  // namespace iflow::advert
