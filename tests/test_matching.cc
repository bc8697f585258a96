// Maximal matching: validity (disjoint + maximal) across the suite, seeds,
// and filter-step counts.
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/maximal_matching.h"
#include "graph/compression/compressed_graph.h"
#include "seq/reference.h"
#include "test_graphs.h"

namespace {

using gbbs::vertex_id;

class MatchingSuite : public ::testing::TestWithParam<std::string> {};
INSTANTIATE_TEST_SUITE_P(
    Graphs, MatchingSuite,
    ::testing::ValuesIn(gbbs::testing::symmetric_suite_names()));

TEST_P(MatchingSuite, IsValidMaximalMatching) {
  auto g = gbbs::testing::make_symmetric(GetParam());
  auto matching = gbbs::maximal_matching(g);
  EXPECT_TRUE(gbbs::seq::is_valid_maximal_matching(g, matching))
      << GetParam();
}

TEST_P(MatchingSuite, SeedsVaryButStayValid) {
  auto g = gbbs::testing::make_symmetric(GetParam());
  for (std::uint64_t seed : {2ull, 77ull}) {
    auto matching = gbbs::maximal_matching(g, parlib::random(seed));
    ASSERT_TRUE(gbbs::seq::is_valid_maximal_matching(g, matching)) << seed;
  }
}

TEST_P(MatchingSuite, FilterStepCountsAgree) {
  auto g = gbbs::testing::make_symmetric(GetParam());
  auto a = gbbs::maximal_matching(g, parlib::random(5), 0);  // no filtering
  auto b = gbbs::maximal_matching(g, parlib::random(5), 4);
  ASSERT_TRUE(gbbs::seq::is_valid_maximal_matching(g, a));
  ASSERT_TRUE(gbbs::seq::is_valid_maximal_matching(g, b));
  // Same priorities => same greedy matching regardless of filtering.
  EXPECT_EQ(a.size(), b.size());
}

// Priorities come from row-order edge ids, which every representation
// shares: the compressed CSR and a live base + overlay graph give the
// static CSR's matching exactly.
TEST_P(MatchingSuite, CompressedAndDynamicMatchStatic) {
  auto g = gbbs::testing::make_symmetric(GetParam());
  auto ends = [](const std::vector<gbbs::edge<gbbs::empty_weight>>& m) {
    std::vector<std::pair<vertex_id, vertex_id>> out;
    for (const auto& e : m) out.emplace_back(e.u, e.v);
    return out;
  };
  const auto want = ends(gbbs::maximal_matching(g, parlib::random(3)));
  const auto cg = gbbs::compressed_graph<gbbs::empty_weight>::compress(g);
  const auto dg = gbbs::testing::split_base_overlay(g);
  EXPECT_EQ(ends(gbbs::maximal_matching(cg, parlib::random(3))), want);
  EXPECT_EQ(ends(gbbs::maximal_matching(dg, parlib::random(3))), want);
}

TEST(Matching, PathAlternates) {
  auto g = gbbs::build_symmetric_graph<gbbs::empty_weight>(
      50, gbbs::path_edges(50));
  auto matching = gbbs::maximal_matching(g);
  ASSERT_TRUE(gbbs::seq::is_valid_maximal_matching(g, matching));
  // A maximal matching on a 50-path has between 17 and 25 edges.
  EXPECT_GE(matching.size(), 17u);
  EXPECT_LE(matching.size(), 25u);
}

TEST(Matching, CompleteGraphPairsEveryone) {
  auto g = gbbs::build_symmetric_graph<gbbs::empty_weight>(
      30, gbbs::complete_edges(30));
  auto matching = gbbs::maximal_matching(g);
  EXPECT_EQ(matching.size(), 15u);
}

TEST(Matching, StarMatchesExactlyOneEdge) {
  auto g = gbbs::build_symmetric_graph<gbbs::empty_weight>(
      64, gbbs::star_edges(64));
  auto matching = gbbs::maximal_matching(g);
  EXPECT_EQ(matching.size(), 1u);
  EXPECT_TRUE(matching[0].u == 0 || matching[0].v == 0);
}

TEST(Matching, EmptyGraphEmptyMatching) {
  auto g = gbbs::build_symmetric_graph<gbbs::empty_weight>(8, {});
  EXPECT_TRUE(gbbs::maximal_matching(g).empty());
}

TEST(Matching, GreedyOnSamePrioritiesIsDeterministic) {
  auto g = gbbs::testing::make_symmetric("rmat");
  auto a = gbbs::maximal_matching(g, parlib::random(11));
  auto b = gbbs::maximal_matching(g, parlib::random(11));
  ASSERT_EQ(a.size(), b.size());
  std::set<std::pair<vertex_id, vertex_id>> sa, sb;
  for (const auto& e : a) sa.insert({e.u, e.v});
  for (const auto& e : b) sb.insert({e.u, e.v});
  EXPECT_EQ(sa, sb);
}

}  // namespace
