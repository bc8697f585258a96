// MSF vs Kruskal: total weight equality (the MSF invariant), forest
// validity, filtering vs plain Boruvka agreement.
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/msf.h"
#include "graph/compression/compressed_graph.h"
#include "parlib/union_find.h"
#include "seq/reference.h"
#include "test_graphs.h"

namespace {

using gbbs::vertex_id;

class MsfSuite : public ::testing::TestWithParam<std::string> {};
INSTANTIATE_TEST_SUITE_P(
    Graphs, MsfSuite,
    ::testing::ValuesIn(gbbs::testing::symmetric_suite_names()));

TEST_P(MsfSuite, TotalWeightMatchesKruskal) {
  auto g = gbbs::testing::make_symmetric_weighted(GetParam());
  auto res = gbbs::msf(g);
  auto edges = g.edges();
  auto half = parlib::filter(edges, [](const auto& e) { return e.u < e.v; });
  const auto expected = gbbs::seq::msf_weight(g.num_vertices(), half);
  EXPECT_EQ(res.total_weight, expected) << GetParam();
}

TEST_P(MsfSuite, ForestIsSpanningAndAcyclic) {
  auto g = gbbs::testing::make_symmetric_weighted(GetParam());
  auto res = gbbs::msf(g);
  // Acyclic + edge count = n - #components.
  parlib::union_find uf(g.num_vertices());
  for (const auto& e : res.forest) {
    ASSERT_TRUE(uf.unite(e.u, e.v)) << "cycle";
    // Edge exists in g with this weight.
    bool found = false;
    g.map_out_neighbors_early_exit(e.u, [&](vertex_id, vertex_id ngh, std::uint32_t w) {
      if (ngh == e.v && w == e.w) found = true;
      return ngh < e.v;  // sorted adjacency: stop once past
    });
    ASSERT_TRUE(found) << e.u << "-" << e.v;
  }
  auto cc = gbbs::seq::connectivity(g);
  std::set<vertex_id> comps(cc.begin(), cc.end());
  EXPECT_EQ(res.forest.size(), g.num_vertices() - comps.size());
  // Spanning: forest connects whatever g connects.
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    for (vertex_id u : g.out_neighbors(v)) {
      ASSERT_TRUE(uf.same_set(v, u));
    }
  }
}

TEST_P(MsfSuite, FilteredAndPlainBoruvkaAgree) {
  auto g = gbbs::testing::make_symmetric_weighted(GetParam(), 9);
  auto filtered = gbbs::msf(g, /*use_filtering=*/true);
  auto plain = gbbs::msf(g, /*use_filtering=*/false);
  EXPECT_EQ(filtered.total_weight, plain.total_weight);
  EXPECT_EQ(filtered.forest.size(), plain.forest.size());
}

// The enumeration reads rows through the graph_view surface only, so the
// compressed CSR and a live base + overlay graph give the static CSR's
// forest exactly: same edges in the same order, same weight.
TEST_P(MsfSuite, CompressedAndDynamicMatchStatic) {
  auto g = gbbs::testing::make_symmetric_weighted(GetParam());
  auto ends = [](const gbbs::msf_result& r) {
    std::vector<std::tuple<vertex_id, vertex_id, std::uint32_t>> out;
    for (const auto& e : r.forest) out.emplace_back(e.u, e.v, e.w);
    return out;
  };
  const auto want = gbbs::msf(g);
  const auto cg = gbbs::compressed_graph<std::uint32_t>::compress(g);
  const auto dg = gbbs::testing::split_base_overlay(g);
  for (const auto& got : {gbbs::msf(cg), gbbs::msf(dg)}) {
    EXPECT_EQ(ends(got), ends(want));
    EXPECT_EQ(got.total_weight, want.total_weight);
    EXPECT_EQ(got.num_filter_steps, want.num_filter_steps);
  }
}

TEST(Msf, UniqueWeightsGiveUniqueForest) {
  // With all-distinct weights the MSF is unique: compare edge sets.
  std::vector<gbbs::edge<std::uint32_t>> edges;
  const vertex_id n = 64;
  std::uint32_t w = 1;
  for (vertex_id i = 0; i < n; ++i) {
    for (vertex_id j = i + 1; j < n; j += 3) {
      edges.push_back({i, j, w});
      w += 7;
    }
  }
  auto g = gbbs::build_symmetric_graph<std::uint32_t>(n, edges);
  auto res = gbbs::msf(g);
  // Kruskal reference edge set.
  auto flat = g.edges();
  auto half = parlib::filter(flat, [](const auto& e) { return e.u < e.v; });
  std::sort(half.begin(), half.end(),
            [](const auto& a, const auto& b) { return a.w < b.w; });
  parlib::union_find uf(n);
  std::set<std::pair<vertex_id, vertex_id>> expected;
  for (const auto& e : half) {
    if (uf.unite(e.u, e.v)) expected.insert({e.u, e.v});
  }
  std::set<std::pair<vertex_id, vertex_id>> got;
  for (const auto& e : res.forest) {
    got.insert({std::min(e.u, e.v), std::max(e.u, e.v)});
  }
  EXPECT_EQ(got, expected);
}

TEST(Msf, PathUsesAllEdges) {
  auto base = gbbs::path_edges(40);
  auto g = gbbs::build_symmetric_graph<std::uint32_t>(
      40, gbbs::with_random_weights(base, 10, 3));
  auto res = gbbs::msf(g);
  EXPECT_EQ(res.forest.size(), 39u);
}

TEST(Msf, EmptyGraph) {
  auto g = gbbs::build_symmetric_graph<std::uint32_t>(10, {});
  auto res = gbbs::msf(g);
  EXPECT_TRUE(res.forest.empty());
  EXPECT_EQ(res.total_weight, 0u);
}

TEST(Msf, FilterStepsReduceBoruvkaInput) {
  auto g = gbbs::testing::make_symmetric_weighted("rmat", 13);
  auto res = gbbs::msf(g, true);
  EXPECT_GT(res.num_filter_steps, 0u);  // rmat has m >> 3n
}

}  // namespace
