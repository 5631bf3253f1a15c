#include "advert/registry.h"

#include <gtest/gtest.h>

namespace iflow::advert {
namespace {

DerivedStream make_ds(std::vector<query::StreamId> streams,
                      std::vector<double> filters, net::NodeId loc) {
  DerivedStream ds;
  ds.streams = std::move(streams);
  ds.filters = std::move(filters);
  ds.location = loc;
  ds.bytes_rate = 100.0;
  ds.tuple_rate = 10.0;
  return ds;
}

query::Query make_query(std::vector<query::StreamId> sources,
                        std::vector<double> filters = {}) {
  query::Query q;
  q.sources = std::move(sources);
  q.filter_selectivity = std::move(filters);
  q.sink = 0;
  return q;
}

TEST(RegistryTest, ExactMatchReturnsResidualOne) {
  Registry r;
  r.advertise(make_ds({1, 3}, {1.0, 1.0}, 5));
  const auto matches = r.reusable(make_query({1, 3, 7}), nullptr);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_DOUBLE_EQ(matches[0].residual_filter, 1.0);
  EXPECT_EQ(matches[0].stream->location, 5u);
}

TEST(RegistryTest, SubsetOnlyNeverSuperset) {
  Registry r;
  r.advertise(make_ds({1, 3, 9}, {1.0, 1.0, 1.0}, 5));
  EXPECT_TRUE(r.reusable(make_query({1, 3}), nullptr).empty());
  EXPECT_EQ(r.reusable(make_query({1, 3, 9}), nullptr).size(), 1u);
}

TEST(RegistryTest, ContainmentGivesResidualFilter) {
  // Advertised with weak filters (0.8 on stream 1); query wants 0.2.
  Registry r;
  r.advertise(make_ds({1, 3}, {0.8, 1.0}, 4));
  const auto matches =
      r.reusable(make_query({1, 3}, {0.2, 1.0}), nullptr);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_NEAR(matches[0].residual_filter, 0.25, 1e-12);
}

TEST(RegistryTest, StrongerAdvertisedFiltersAreUnusable) {
  // Advertised with 0.2, query needs 0.8: tuples are missing.
  Registry r;
  r.advertise(make_ds({1, 3}, {0.2, 1.0}, 4));
  EXPECT_TRUE(r.reusable(make_query({1, 3}, {0.8, 1.0}), nullptr).empty());
  // Unfiltered query cannot use a filtered advertisement either.
  EXPECT_TRUE(r.reusable(make_query({1, 3}), nullptr).empty());
}

TEST(RegistryTest, FilteredSingleStreamIsAdvertisable) {
  // A single filtered stream IS a useful derived stream (a pushed-down
  // selection); an unfiltered single stream is just the base stream.
  Registry r;
  r.advertise(make_ds({2}, {0.5}, 6));
  r.advertise(make_ds({3}, {1.0}, 7));
  const auto matches = r.reusable(make_query({2, 3}, {0.5, 1.0}), nullptr);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].stream->streams, std::vector<query::StreamId>{2});
}

TEST(RegistryTest, ScopeFiltersProviders) {
  Registry r;
  r.advertise(make_ds({1, 3}, {1.0, 1.0}, 4));
  r.advertise(make_ds({1, 3}, {1.0, 1.0}, 9));
  const auto all = r.reusable(make_query({1, 3}), nullptr);
  EXPECT_EQ(all.size(), 2u);
  const auto scoped = r.reusable(
      make_query({1, 3}), [](net::NodeId n) { return n < 5; });
  ASSERT_EQ(scoped.size(), 1u);
  EXPECT_EQ(scoped[0].stream->location, 4u);
}

TEST(RegistryTest, DuplicateAdvertisementsIgnored) {
  Registry r;
  r.advertise(make_ds({1, 3}, {0.5, 1.0}, 4));
  r.advertise(make_ds({1, 3}, {0.5, 1.0}, 4));
  EXPECT_EQ(r.size(), 1u);
  // Same streams, different filters: a distinct derived stream.
  r.advertise(make_ds({1, 3}, {0.7, 1.0}, 4));
  EXPECT_EQ(r.size(), 2u);
  // Same streams+filters, different provider: distinct.
  r.advertise(make_ds({1, 3}, {0.5, 1.0}, 8));
  EXPECT_EQ(r.size(), 3u);
}

TEST(RegistryTest, RegroupedOrdersByOriginAndDropsLocations) {
  Registry r;
  const auto add = [&r](query::QueryId origin, query::StreamId s,
                        net::NodeId loc) {
    DerivedStream ds = make_ds({1, s}, {0.5, 1.0}, loc);
    ds.origin = origin;
    r.advertise(ds);
  };
  add(7, 2, 4);
  add(3, 2, 5);
  add(7, 3, 6);
  add(9, 2, 4);
  add(3, 3, 4);
  // Origin 3 first, then 7; origin 9 is not asked for; node 6 is dropped.
  const Registry g =
      r.regrouped({3, 7}, [](net::NodeId n) { return n == 6; });
  ASSERT_EQ(g.size(), 3u);
  EXPECT_EQ(g.entries()[0], r.entries()[1]);
  EXPECT_EQ(g.entries()[1], r.entries()[4]);
  EXPECT_EQ(g.entries()[2], r.entries()[0]);
  EXPECT_EQ(r.regrouped({9, 3, 7}, nullptr).size(), 5u);
  EXPECT_EQ(r.regrouped({}, nullptr).size(), 0u);
}

TEST(RegistryTest, ValidatesAdvertisements) {
  Registry r;
  EXPECT_THROW(r.advertise(make_ds({}, {}, 1)), CheckError);
  EXPECT_THROW(r.advertise(make_ds({3, 1}, {1.0, 1.0}, 1)), CheckError);
  EXPECT_THROW(r.advertise(make_ds({1}, {0.0}, 1)), CheckError);
  EXPECT_THROW(r.advertise(make_ds({1}, {1.0, 1.0}, 1)), CheckError);
}

}  // namespace
}  // namespace iflow::advert
