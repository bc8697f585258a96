// Tests for the synthetic graph generators (DESIGN.md §1 substitutions).
#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "parlib/random.h"

namespace {

using gbbs::vertex_id;

TEST(Generators, RmatDeterministicInSeed) {
  auto a = gbbs::rmat_edges(10, 5000, 42);
  auto b = gbbs::rmat_edges(10, 5000, 42);
  auto c = gbbs::rmat_edges(10, 5000, 43);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].u, b[i].u);
    ASSERT_EQ(a[i].v, b[i].v);
  }
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].u != c[i].u || a[i].v != c[i].v) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

// R-MAT edge i as the plain formula: the draw of level l is
// random(seed).fork(i).ith_uniform(l), compared against the cumulative
// quadrant probabilities in doubles.
std::pair<vertex_id, vertex_id> rmat_formula(std::uint32_t scale,
                                             std::size_t i,
                                             std::uint64_t seed, double a,
                                             double b, double c) {
  const parlib::random er = parlib::random(seed).fork(i);
  vertex_id u = 0, v = 0;
  for (std::uint32_t level = 0; level < scale; ++level) {
    const double p = er.ith_uniform(level);
    u <<= 1;
    v <<= 1;
    if (p < a) {
      // top-left: both bits 0
    } else if (p < a + b) {
      v |= 1;
    } else if (p < a + b + c) {
      u |= 1;
    } else {
      u |= 1;
      v |= 1;
    }
  }
  return {u, v};
}

TEST(Generators, RmatMatchesPerLevelForkedDraws) {
  for (std::uint32_t scale : {1u, 5u, 10u, 17u, 20u}) {
    for (std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{42},
                               (std::uint64_t{1} << 40) | 3}) {
      const auto edges = gbbs::rmat_edges(scale, 3000, seed);
      for (std::size_t i = 0; i < edges.size(); ++i) {
        const auto [u, v] = rmat_formula(scale, i, seed, 0.57, 0.19, 0.19);
        ASSERT_EQ(edges[i].u, u) << "scale " << scale << " seed " << seed
                                 << " edge " << i;
        ASSERT_EQ(edges[i].v, v) << "scale " << scale << " seed " << seed
                                 << " edge " << i;
      }
    }
  }
}

TEST(Generators, RmatMatchesFormulaForOtherQuadrantSplits) {
  // Uniform, skewed, and degenerate splits (an empty quadrant, and
  // probabilities summing past 1).
  const double splits[][3] = {
      {0.25, 0.25, 0.25}, {0.45, 0.15, 0.15}, {0.7, 0.0, 0.3}, {0.6, 0.3, 0.3}};
  for (const auto& q : splits) {
    const auto edges = gbbs::rmat_edges(12, 4000, 9, q[0], q[1], q[2]);
    for (std::size_t i = 0; i < edges.size(); ++i) {
      const auto [u, v] = rmat_formula(12, i, 9, q[0], q[1], q[2]);
      ASSERT_EQ(edges[i].u, u) << "a=" << q[0] << " edge " << i;
      ASSERT_EQ(edges[i].v, v) << "a=" << q[0] << " edge " << i;
    }
  }
}

TEST(Generators, RmatVerticesInRange) {
  const std::uint32_t scale = 8;
  auto edges = gbbs::rmat_edges(scale, 10000, 7);
  for (const auto& e : edges) {
    ASSERT_LT(e.u, 1u << scale);
    ASSERT_LT(e.v, 1u << scale);
  }
}

TEST(Generators, RmatIsSkewed) {
  // The max degree of an R-MAT graph must far exceed the average degree —
  // this skew is what the paper's histogram optimization is about.
  auto g = gbbs::rmat_symmetric(12, 40000, 3);
  vertex_id max_deg = 0;
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    max_deg = std::max(max_deg, g.out_degree(v));
  }
  const double avg = static_cast<double>(g.num_edges()) / g.num_vertices();
  EXPECT_GT(max_deg, 10 * avg);
}

TEST(Generators, ErdosRenyiIsNotSkewed) {
  auto g = gbbs::build_symmetric_graph<gbbs::empty_weight>(
      4096, gbbs::erdos_renyi_edges(4096, 40000, 5));
  vertex_id max_deg = 0;
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    max_deg = std::max(max_deg, g.out_degree(v));
  }
  const double avg = static_cast<double>(g.num_edges()) / g.num_vertices();
  EXPECT_LT(max_deg, 5 * avg + 10);
}

TEST(Generators, Torus3dDegreesAreSix) {
  auto g = gbbs::torus3d_symmetric(5);
  EXPECT_EQ(g.num_vertices(), 125u);
  EXPECT_EQ(g.num_edges(), 125u * 6);
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(g.out_degree(v), 6u) << v;
  }
}

TEST(Generators, Torus3dSide2HasNoDuplicates) {
  // side=2 wraps both directions onto the same neighbor; the builder must
  // dedupe, giving degree 3.
  auto g = gbbs::torus3d_symmetric(2);
  EXPECT_EQ(g.num_vertices(), 8u);
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(g.out_degree(v), 3u);
  }
}

TEST(Generators, Grid2dStructure) {
  auto g = gbbs::build_symmetric_graph<gbbs::empty_weight>(
      12, gbbs::grid2d_edges(3, 4));
  // Corner vertices have degree 2, edge vertices 3, interior 4.
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.out_degree(1), 3u);
  EXPECT_EQ(g.out_degree(5), 4u);
}

TEST(Generators, PathCycleStarCompleteTreeShapes) {
  auto path = gbbs::build_symmetric_graph<gbbs::empty_weight>(
      5, gbbs::path_edges(5));
  EXPECT_EQ(path.num_edges(), 8u);
  EXPECT_EQ(path.out_degree(0), 1u);
  EXPECT_EQ(path.out_degree(2), 2u);

  auto cycle = gbbs::build_symmetric_graph<gbbs::empty_weight>(
      5, gbbs::cycle_edges(5));
  for (vertex_id v = 0; v < 5; ++v) ASSERT_EQ(cycle.out_degree(v), 2u);

  auto star = gbbs::build_symmetric_graph<gbbs::empty_weight>(
      6, gbbs::star_edges(6));
  EXPECT_EQ(star.out_degree(0), 5u);
  for (vertex_id v = 1; v < 6; ++v) ASSERT_EQ(star.out_degree(v), 1u);

  auto complete = gbbs::build_symmetric_graph<gbbs::empty_weight>(
      6, gbbs::complete_edges(6));
  for (vertex_id v = 0; v < 6; ++v) ASSERT_EQ(complete.out_degree(v), 5u);

  auto tree = gbbs::build_symmetric_graph<gbbs::empty_weight>(
      7, gbbs::binary_tree_edges(7));
  EXPECT_EQ(tree.out_degree(0), 2u);
  EXPECT_EQ(tree.out_degree(1), 3u);
  EXPECT_EQ(tree.out_degree(3), 1u);
}

TEST(Generators, BipartiteCoverEdgesRespectSides) {
  const vertex_id sets = 50, elements = 200;
  auto edges = gbbs::bipartite_cover_edges(sets, elements, 10, 9);
  for (const auto& e : edges) {
    ASSERT_LT(e.u, sets);
    ASSERT_GE(e.v, sets);
    ASSERT_LT(e.v, sets + elements);
  }
}

TEST(Generators, WeightsInRangeAndSymmetricConsistent) {
  const vertex_id n = 1 << 10;
  auto edges = gbbs::rmat_edges(10, 8000, 21);
  const auto max_w = gbbs::weight_range(n);
  auto weighted = gbbs::with_random_weights(edges, max_w, 5);
  for (const auto& e : weighted) {
    ASSERT_GE(e.w, 1u);
    ASSERT_LE(e.w, max_w);
  }
  // Symmetric build: weight of (u,v) equals weight of (v,u).
  auto g = gbbs::build_symmetric_graph<std::uint32_t>(n, weighted);
  for (vertex_id v = 0; v < n; v += 17) {
    auto nghs = g.out_neighbors(v);
    for (std::size_t j = 0; j < nghs.size(); ++j) {
      const vertex_id u = nghs[j];
      const auto w_vu = g.out_weight(v, j);
      // find v in u's list
      auto unghs = g.out_neighbors(u);
      const auto it = std::lower_bound(unghs.begin(), unghs.end(), v);
      ASSERT_NE(it, unghs.end());
      const auto w_uv =
          g.out_weight(u, static_cast<std::size_t>(it - unghs.begin()));
      ASSERT_EQ(w_vu, w_uv);
    }
  }
}

TEST(Generators, WeightRangeIsFloorLog2) {
  EXPECT_EQ(gbbs::weight_range(2), 1u);
  EXPECT_EQ(gbbs::weight_range(1024), 10u);
  EXPECT_EQ(gbbs::weight_range(1 << 20), 20u);
}

}  // namespace
