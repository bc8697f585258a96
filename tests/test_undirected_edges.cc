// The u < v edge enumeration (graph/undirected_edges.h): on every suite
// graph, and on the compressed and live dynamic representations of one, it
// must list exactly what edges() + filter(u < v) lists, in the same order,
// so an edge's id is its index in that list; undirected_edge_at must
// invert the id.
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "dynamic/dynamic_graph.h"
#include "graph/compression/compressed_graph.h"
#include "graph/graph_builder.h"
#include "graph/undirected_edges.h"
#include "parlib/sequence_ops.h"
#include "test_graphs.h"

namespace {

using gbbs::edge;
using gbbs::edge_id;
using gbbs::vertex_id;

template <typename W>
std::vector<std::tuple<vertex_id, vertex_id, W>> flat(
    const std::vector<edge<W>>& es) {
  std::vector<std::tuple<vertex_id, vertex_id, W>> out;
  for (const auto& e : es) out.emplace_back(e.u, e.v, e.w);
  return out;
}

// The reference list: every out-edge, then the u < v ones.
template <typename W>
std::vector<edge<W>> reference(const gbbs::graph<W>& g) {
  auto all = g.edges();
  return parlib::filter(all, [](const auto& e) { return e.u < e.v; });
}

// Enumeration, offsets and id inversion of `view` against `want`.
template <typename G, typename W>
void expect_enumerates(const G& view, const std::vector<edge<W>>& want) {
  const auto offsets = gbbs::undirected_edge_offsets(view);
  ASSERT_EQ(offsets.size(), std::size_t{view.num_vertices()} + 1);
  ASSERT_EQ(offsets.back(), want.size());
  EXPECT_EQ(flat(gbbs::undirected_edges(view)), flat(want));
  for (edge_id id = 0; id < want.size(); ++id) {
    // Each id lies in its own row's range and inverts to its edge.
    ASSERT_GE(id, offsets[want[id].u]);
    ASSERT_LT(id, offsets[want[id].u + 1]);
    const auto e = gbbs::undirected_edge_at(view, offsets, id);
    ASSERT_EQ(std::make_tuple(e.u, e.v, e.w),
              std::make_tuple(want[id].u, want[id].v, want[id].w))
        << id;
  }
}

class UndirectedEdgesSuite : public ::testing::TestWithParam<std::string> {};
INSTANTIATE_TEST_SUITE_P(
    Graphs, UndirectedEdgesSuite,
    ::testing::ValuesIn(gbbs::testing::symmetric_suite_names()));

TEST_P(UndirectedEdgesSuite, EqualsFilteredEdgeList) {
  auto g = gbbs::testing::make_symmetric(GetParam());
  expect_enumerates(g, reference(g));
}

TEST_P(UndirectedEdgesSuite, WeightedEqualsFilteredEdgeList) {
  auto g = gbbs::testing::make_symmetric_weighted(GetParam());
  expect_enumerates(g, reference(g));
}

TEST_P(UndirectedEdgesSuite, CompressedEqualsStatic) {
  auto g = gbbs::testing::make_symmetric_weighted(GetParam());
  auto cg = gbbs::compressed_graph<std::uint32_t>::compress(g);
  expect_enumerates(cg, reference(g));
}

TEST_P(UndirectedEdgesSuite, DynamicOverlayEqualsStatic) {
  // Half the edges compacted into the base, the rest in the overlay, and
  // every fifth base edge erased again: rows merge base and overlay.
  auto g = gbbs::testing::make_symmetric_weighted(GetParam());
  const auto half = reference(g);
  gbbs::dynamic::dynamic_graph<std::uint32_t> dg(g.num_vertices());
  std::vector<gbbs::dynamic::update<std::uint32_t>> first, second;
  std::vector<edge<std::uint32_t>> live;
  for (std::size_t i = 0; i < half.size(); ++i) {
    const auto& e = half[i];
    auto& to = i % 2 == 0 ? first : second;
    to.push_back({e.u, e.v, e.w, gbbs::dynamic::update_op::insert});
    if (i % 2 == 0 && i % 5 == 0) {
      second.push_back({e.u, e.v, e.w, gbbs::dynamic::update_op::erase});
    } else {
      live.push_back(e);
    }
  }
  dg.apply(std::move(first));
  dg.compact();
  dg.apply(std::move(second));
  auto rebuilt = gbbs::build_symmetric_graph<std::uint32_t>(
      g.num_vertices(), live);
  expect_enumerates(dg, reference(rebuilt));
}

TEST(UndirectedEdges, NoVertices) {
  auto g = gbbs::build_symmetric_graph<std::uint32_t>(0, {});
  const auto offsets = gbbs::undirected_edge_offsets(g);
  ASSERT_EQ(offsets.size(), 1u);
  EXPECT_EQ(offsets[0], 0u);
  EXPECT_TRUE(gbbs::undirected_edges(g).empty());
}

TEST(UndirectedEdges, IsolatedVerticesGetEmptyRanges) {
  // Vertices 0, 2, 4, 5 and 8 are isolated; 9 has only smaller neighbors.
  std::vector<edge<std::uint32_t>> es = {
      {1, 9, 4}, {3, 6, 1}, {7, 3, 2}, {6, 9, 8}, {1, 3, 5}};
  auto g = gbbs::build_symmetric_graph<std::uint32_t>(10, es);
  const auto offsets = gbbs::undirected_edge_offsets(g);
  EXPECT_EQ(offsets, (std::vector<edge_id>{0, 0, 2, 2, 4, 4, 4, 5, 5, 5, 5}));
  expect_enumerates(g, reference(g));
}

TEST(UndirectedEdges, StarHubOwnsEveryId) {
  // A star's hub has every edge; the leaves list none.
  auto g = gbbs::build_symmetric_graph<gbbs::empty_weight>(
      5000, gbbs::star_edges(5000));
  const auto offsets = gbbs::undirected_edge_offsets(g);
  EXPECT_EQ(offsets[1], 4999u);
  EXPECT_EQ(offsets.back(), 4999u);
  expect_enumerates(g, reference(g));
}

}  // namespace
