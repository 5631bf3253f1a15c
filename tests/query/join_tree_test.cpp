#include "query/join_tree.h"

#include <gtest/gtest.h>

#include <set>

namespace iflow::query {
namespace {

std::vector<Mask> singleton_masks(int k) {
  std::vector<Mask> m;
  for (int i = 0; i < k; ++i) m.push_back(Mask{1} << i);
  return m;
}

/// Canonical string of a tree for duplicate detection: unordered children
/// are sorted by mask.
std::string canon(const JoinTree& t, int v) {
  const TreeNode& n = t.nodes[static_cast<std::size_t>(v)];
  if (n.unit >= 0) return std::string("u").append(std::to_string(n.unit));
  std::string l = canon(t, n.left);
  std::string r = canon(t, n.right);
  if (r < l) std::swap(l, r);
  return "(" + l + "," + r + ")";
}

class TreeCountTest : public ::testing::TestWithParam<int> {};

TEST_P(TreeCountTest, EnumerationMatchesDoubleFactorial) {
  const int k = GetParam();
  const auto trees = enumerate_join_trees(singleton_masks(k));
  EXPECT_EQ(trees.size(), unordered_tree_count(k));
}

TEST_P(TreeCountTest, AllTreesDistinctAndWellFormed) {
  const int k = GetParam();
  const auto trees = enumerate_join_trees(singleton_masks(k));
  std::set<std::string> seen;
  const Mask full = (Mask{1} << k) - 1;
  for (const JoinTree& t : trees) {
    EXPECT_TRUE(seen.insert(canon(t, t.root)).second) << "duplicate tree";
    EXPECT_EQ(t.nodes[static_cast<std::size_t>(t.root)].mask, full);
    EXPECT_EQ(t.internal_count(), k - 1);
    // Children precede parents (topological arena).
    for (std::size_t v = 0; v < t.nodes.size(); ++v) {
      const TreeNode& n = t.nodes[v];
      if (n.unit >= 0) continue;
      EXPECT_LT(n.left, static_cast<int>(v));
      EXPECT_LT(n.right, static_cast<int>(v));
      EXPECT_EQ(n.mask,
                t.nodes[static_cast<std::size_t>(n.left)].mask |
                    t.nodes[static_cast<std::size_t>(n.right)].mask);
      EXPECT_EQ(t.nodes[static_cast<std::size_t>(n.left)].mask &
                    t.nodes[static_cast<std::size_t>(n.right)].mask,
                Mask{0});
    }
  }
}

INSTANTIATE_TEST_SUITE_P(UpToSixLeaves, TreeCountTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(JoinTreeTest, CompositeUnitMasksPropagate) {
  // Two units covering {0,1} and {2}: only one tree.
  const auto trees = enumerate_join_trees({0b011, 0b100});
  ASSERT_EQ(trees.size(), 1u);
  EXPECT_EQ(trees[0].nodes[static_cast<std::size_t>(trees[0].root)].mask,
            Mask{0b111});
}

TEST(JoinTreeTest, RejectsOverlappingUnits) {
  EXPECT_THROW(enumerate_join_trees({0b011, 0b010}), CheckError);
  EXPECT_THROW(enumerate_join_trees({0b000}), CheckError);
}

TEST(JoinTreeTest, DoubleFactorialValues) {
  EXPECT_EQ(unordered_tree_count(1), 1u);
  EXPECT_EQ(unordered_tree_count(2), 1u);
  EXPECT_EQ(unordered_tree_count(3), 3u);
  EXPECT_EQ(unordered_tree_count(4), 15u);
  EXPECT_EQ(unordered_tree_count(5), 105u);
  EXPECT_EQ(unordered_tree_count(7), 10395u);
}

}  // namespace
}  // namespace iflow::query
