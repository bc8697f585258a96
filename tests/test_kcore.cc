// k-core vs the Matula-Beck oracle; histogram and fetch-and-add variants
// must agree exactly (Table 6 compares only their performance).
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/kcore.h"
#include "graph/compression/compressed_graph.h"
#include "seq/reference.h"
#include "test_graphs.h"

namespace {

using gbbs::vertex_id;

class KcoreSuite : public ::testing::TestWithParam<std::string> {};
INSTANTIATE_TEST_SUITE_P(
    Graphs, KcoreSuite,
    ::testing::ValuesIn(gbbs::testing::symmetric_suite_names()));

TEST_P(KcoreSuite, HistogramMatchesMatulaBeck) {
  auto g = gbbs::testing::make_symmetric(GetParam());
  auto got = gbbs::kcore(g, gbbs::kcore_variant::histogram);
  auto expected = gbbs::seq::coreness(g);
  ASSERT_EQ(got.coreness.size(), expected.size());
  for (std::size_t v = 0; v < expected.size(); ++v) {
    ASSERT_EQ(got.coreness[v], expected[v]) << GetParam() << " v=" << v;
  }
}

TEST_P(KcoreSuite, FetchAndAddMatchesHistogram) {
  auto g = gbbs::testing::make_symmetric(GetParam());
  auto a = gbbs::kcore(g, gbbs::kcore_variant::histogram);
  auto b = gbbs::kcore(g, gbbs::kcore_variant::fetch_and_add);
  EXPECT_EQ(a.coreness, b.coreness);
  EXPECT_EQ(a.max_core, b.max_core);
}

TEST(Kcore, CompleteGraphCore) {
  auto g = gbbs::build_symmetric_graph<gbbs::empty_weight>(
      20, gbbs::complete_edges(20));
  auto res = gbbs::kcore(g);
  EXPECT_EQ(res.max_core, 19u);
  for (auto c : res.coreness) ASSERT_EQ(c, 19u);
}

TEST(Kcore, TorusIsUniform) {
  // The paper notes 3D-Torus peels in one round (all vertices degree 6).
  auto g = gbbs::torus3d_symmetric(6);
  auto res = gbbs::kcore(g);
  EXPECT_EQ(res.max_core, 6u);
  EXPECT_EQ(res.num_rounds, 1u);
  for (auto c : res.coreness) ASSERT_EQ(c, 6u);
}

TEST(Kcore, PathCoreIsOne) {
  auto g = gbbs::build_symmetric_graph<gbbs::empty_weight>(
      64, gbbs::path_edges(64));
  auto res = gbbs::kcore(g);
  EXPECT_EQ(res.max_core, 1u);
}

TEST(Kcore, TriangleWithTailPeelsInOrder) {
  // Tail vertices peel at 1, triangle at 2.
  std::vector<gbbs::edge<gbbs::empty_weight>> edges = {
      {0, 1, {}}, {1, 2, {}}, {0, 2, {}}, {2, 3, {}}, {3, 4, {}}};
  auto g = gbbs::build_symmetric_graph<gbbs::empty_weight>(5, edges);
  auto res = gbbs::kcore(g);
  EXPECT_EQ(res.coreness[0], 2u);
  EXPECT_EQ(res.coreness[1], 2u);
  EXPECT_EQ(res.coreness[2], 2u);
  EXPECT_EQ(res.coreness[3], 1u);
  EXPECT_EQ(res.coreness[4], 1u);
}

TEST(Kcore, CompressedMatchesUncompressed) {
  auto g = gbbs::testing::make_symmetric("rmat");
  auto cg = gbbs::compressed_graph<gbbs::empty_weight>::compress(g);
  auto a = gbbs::kcore(g);
  auto b = gbbs::kcore(cg);
  EXPECT_EQ(a.coreness, b.coreness);
}

TEST(Kcore, LargeSkewedGraphMatchesOracle) {
  // Regression for the bucket-overflow duplicate bug: needs a degree range
  // far wider than the 128-bucket window so vertices bounce through the
  // overflow repeatedly (first seen at R-MAT scale 16 in bench_stats).
  auto g = gbbs::rmat_symmetric(13, std::size_t{16} << 13, 107);
  auto got = gbbs::kcore(g);
  auto expected = gbbs::seq::coreness(g);
  gbbs::vertex_id refmax = 0;
  for (std::size_t v = 0; v < expected.size(); ++v) {
    ASSERT_EQ(got.coreness[v], expected[v]) << v;
    refmax = std::max(refmax, expected[v]);
  }
  EXPECT_EQ(got.max_core, refmax);
}

TEST(Kcore, RoundsOnBothSidesOfSequentialCutoff) {
  // R-MAT 13 plus a star hub whose degree alone exceeds the one-block
  // sequential cutoff: small rounds take the one-thread counting, the hub's
  // round and the big early rounds the range-partitioned one. Both must
  // agree with the oracle, with each other, and with themselves at 1
  // worker.
  const vertex_id base = vertex_id{1} << 13;
  const vertex_id leaves =
      static_cast<vertex_id>(gbbs::kcore_internal::kEdgeBlock);
  const vertex_id hub = base;
  const vertex_id n = base + 1 + leaves;
  auto edges = gbbs::rmat_symmetric(13, std::size_t{16} << 13, 211).edges();
  for (vertex_id v = 0; v < base; v += 3) edges.push_back({hub, v, {}});
  for (vertex_id j = 0; j < leaves; ++j) {
    edges.push_back({hub, base + 1 + j, {}});
  }
  auto g = gbbs::build_symmetric_graph<gbbs::empty_weight>(n, edges);
  ASSERT_GT(g.out_degree(hub), gbbs::kcore_internal::kEdgeBlock);

  const auto expected = gbbs::seq::coreness(g);
  gbbs::kcore_result one, one_fa;
  {
    parlib::active_workers_guard single(1);
    one = gbbs::kcore(g);
    one_fa = gbbs::kcore(g, gbbs::kcore_variant::fetch_and_add);
  }
  const auto all = gbbs::kcore(g);
  const auto all_fa = gbbs::kcore(g, gbbs::kcore_variant::fetch_and_add);
  EXPECT_EQ(all.coreness, expected);
  EXPECT_EQ(one.coreness, expected);
  EXPECT_EQ(all_fa.coreness, expected);
  EXPECT_EQ(one_fa.coreness, expected);
  EXPECT_EQ(all.num_rounds, one.num_rounds);
  EXPECT_EQ(all_fa.num_rounds, all.num_rounds);
  EXPECT_EQ(one_fa.num_rounds, all.num_rounds);
  EXPECT_EQ(all.max_core, one.max_core);
}

TEST(Kcore, RhoCountsPeelingRounds) {
  auto g = gbbs::testing::make_symmetric("rmat");
  auto res = gbbs::kcore(g);
  EXPECT_GT(res.num_rounds, 1u);
  EXPECT_LT(res.num_rounds, g.num_vertices());
}

}  // namespace
