// Stream advertisements (paper §2.1.2) with containment-based reuse
// (paper §5, future work).
//
// Every deployed operator (and every non-aggregating sink) is a new *derived*
// stream source for the sub-query it computes. Advertisements are one-time messages
// aggregated up the coordinator hierarchy so that each coordinator knows all
// base and derived streams available in its underlying cluster; this is what
// enables operator reuse during planning. We model the aggregated state as a
// single registry queried with a scope predicate (the set of physical nodes
// under the asking coordinator).
//
// Identity and containment: a derived stream is the join of a set of base
// streams, each filtered by the originating query's selection predicates
// (recorded as per-stream selectivity factors). A new query can consume it
//   * exactly, when its filters match the advertisement's; or
//   * by containment, when its filters are strictly STRONGER — the derived
//     stream is a superset of what the query needs, and a residual filter
//     applied at the provider trims it down.
// A derived stream filtered more strongly than the query needs is unusable
// (tuples are missing) and is never returned.
#pragma once

#include <functional>
#include <vector>

#include "query/plan.h"
#include "query/query.h"

namespace iflow::advert {

/// A derived stream: the output of a deployed operator, identified by the
/// set of base catalog streams it joins and the filter factors applied to
/// them. Identity by (streams, filters) is sound because join selectivities
/// are global catalog properties.
struct DerivedStream {
  std::vector<query::StreamId> streams;  // sorted, >= 1 entries
  /// Filter selectivity already applied per stream (parallel to streams;
  /// 1.0 = unfiltered).
  std::vector<double> filters;
  net::NodeId location = net::kInvalidNode;
  double bytes_rate = 0.0;  // as produced (with `filters` applied)
  double tuple_rate = 0.0;
  query::QueryId origin = 0;

  friend bool operator==(const DerivedStream&, const DerivedStream&) = default;
};

/// A reuse opportunity resolved against a specific query's filters.
struct ReuseMatch {
  const DerivedStream* stream = nullptr;
  /// Residual filter factor (product over streams of query_filter /
  /// advertised_filter); 1.0 = exact match, < 1.0 = containment reuse with
  /// a residual selection applied at the provider.
  double residual_filter = 1.0;
};

/// Registry of advertised derived streams. Base streams are advertised via
/// the Catalog itself (their source nodes are public knowledge).
class Registry {
 public:
  /// Records a new derived stream. Duplicate (origin, streams, filters,
  /// location) entries are ignored — re-advertising an identical operator
  /// adds nothing. Identity includes the originating query so that two
  /// queries deploying identical operators each keep their own entry and
  /// `remove_origin` can retract exactly one query's advertisements (the
  /// warm-registry maintenance the churn plane relies on).
  void advertise(DerivedStream ds);

  /// Derived streams consumable by query `q` (exactly or by containment)
  /// that join a non-empty subset of its sources and whose provider
  /// satisfies `in_scope` (null = anywhere). Single-stream deriveds are
  /// returned only when they carry a filter (an unfiltered single stream is
  /// just the base stream).
  std::vector<ReuseMatch> reusable(
      const query::Query& q,
      const std::function<bool(net::NodeId)>& in_scope) const;

  /// The advertisements of `origins`, grouped origin by origin in that
  /// order (each origin's entries keep their order here), minus those whose
  /// provider matches `drop` (null = none; e.g. operators on a failed
  /// node). When each origin's entries come from one advertise_deployment
  /// call, as the middleware's warm registry keeps them, this equals
  /// re-advertising those origins' deployments in order into a fresh
  /// registry, entry order included (the order of reuse units decides
  /// planner ties).
  Registry regrouped(const std::vector<query::QueryId>& origins,
                     const std::function<bool(net::NodeId)>& drop) const;

  /// Retracts every advertisement originating from query `q` (undeploy,
  /// suspend, or pre-migration retraction). Returns how many were removed.
  /// Together with `advertise` this keeps a long-lived registry warm across
  /// churn without ever rebuilding it from the full active set.
  std::size_t remove_origin(query::QueryId q);

  /// Read-only view of every advertisement.
  const std::vector<DerivedStream>& entries() const { return streams_; }

  std::size_t size() const { return streams_.size(); }
  void clear() { streams_.clear(); }

 private:
  std::vector<DerivedStream> streams_;
};

/// Advertises every operator of a freshly deployed query as a derived
/// stream, translating query-local masks to catalog stream ids and recording
/// the query's filter factors. A non-aggregating sink is advertised too (it
/// re-exports the full result); an aggregating sink emits groups, not the
/// join, so it is not.
void advertise_deployment(Registry& registry, const query::Deployment& d,
                          const query::RateModel& rates);

}  // namespace iflow::advert
