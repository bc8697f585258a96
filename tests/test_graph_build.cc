// Tests for CSR construction: sorting, dedup, self-loop removal,
// symmetrization, in-CSR transposition, filter_graph, and the
// two-level builder against a sequential stable-sort reference.
#include <algorithm>
#include <numeric>
#include <set>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "parlib/atomics.h"
#include "parlib/random.h"
#include "parlib/scheduler.h"

namespace {

using gbbs::edge;
using gbbs::empty_weight;
using gbbs::vertex_id;

TEST(GraphBuild, TinyDirected) {
  std::vector<edge<empty_weight>> edges = {
      {0, 1, {}}, {0, 2, {}}, {1, 2, {}}, {2, 0, {}}};
  auto g = gbbs::build_asymmetric_graph<empty_weight>(3, edges);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_FALSE(g.symmetric());
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.out_degree(1), 1u);
  EXPECT_EQ(g.out_degree(2), 1u);
  EXPECT_EQ(g.in_degree(0), 1u);
  EXPECT_EQ(g.in_degree(2), 2u);
  auto n0 = g.out_neighbors(0);
  EXPECT_EQ(std::vector<vertex_id>(n0.begin(), n0.end()),
            (std::vector<vertex_id>{1, 2}));
}

TEST(GraphBuild, RemovesSelfLoopsAndDuplicates) {
  std::vector<edge<empty_weight>> edges = {
      {0, 1, {}}, {0, 1, {}}, {1, 1, {}}, {1, 0, {}}, {2, 2, {}}};
  auto g = gbbs::build_asymmetric_graph<empty_weight>(3, edges);
  EXPECT_EQ(g.num_edges(), 2u);  // (0,1) and (1,0)
  EXPECT_EQ(g.out_degree(2), 0u);
}

TEST(GraphBuild, SymmetrizeAddsReverseEdges) {
  std::vector<edge<empty_weight>> edges = {{0, 1, {}}, {1, 2, {}}};
  auto g = gbbs::build_symmetric_graph<empty_weight>(3, edges);
  EXPECT_TRUE(g.symmetric());
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.out_degree(1), 2u);
  EXPECT_EQ(g.in_degree(1), 2u);  // aliases out
}

TEST(GraphBuild, AdjacencyIsSorted) {
  auto g = gbbs::rmat_symmetric(10, 8000, 42);
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    auto nghs = g.out_neighbors(v);
    for (std::size_t j = 1; j < nghs.size(); ++j) {
      ASSERT_LT(nghs[j - 1], nghs[j]) << "vertex " << v;
    }
  }
}

TEST(GraphBuild, SymmetricGraphHasMatchingReverseEdges) {
  auto g = gbbs::rmat_symmetric(9, 4000, 7);
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    for (vertex_id u : g.out_neighbors(v)) {
      auto nghs = g.out_neighbors(u);
      ASSERT_TRUE(std::binary_search(nghs.begin(), nghs.end(), v))
          << "missing reverse of (" << v << "," << u << ")";
    }
  }
}

TEST(GraphBuild, InCsrIsTransposeOfOutCsr) {
  auto g = gbbs::rmat_directed(9, 4000, 11);
  std::set<std::pair<vertex_id, vertex_id>> out_edges, in_edges;
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    for (vertex_id u : g.out_neighbors(v)) out_edges.insert({v, u});
    for (vertex_id u : g.in_neighbors(v)) in_edges.insert({u, v});
  }
  EXPECT_EQ(out_edges, in_edges);
}

TEST(GraphBuild, WeightsFollowEdgesThroughBuild) {
  std::vector<edge<std::uint32_t>> edges = {
      {0, 1, 10}, {1, 2, 20}, {0, 2, 30}};
  auto g = gbbs::build_symmetric_graph<std::uint32_t>(3, edges);
  // Edge (1,0) must carry weight 10, (2,0) weight 30, (2,1) weight 20.
  bool found = false;
  g.map_out_neighbors_early_exit(2, [&](vertex_id, vertex_id ngh, std::uint32_t w) {
    if (ngh == 0) {
      EXPECT_EQ(w, 30u);
      found = true;
    }
    if (ngh == 1) {
      EXPECT_EQ(w, 20u);
    }
    return true;
  });
  EXPECT_TRUE(found);
}

TEST(GraphBuild, EdgesRoundTrip) {
  auto g = gbbs::rmat_directed(8, 2000, 3);
  auto edges = g.edges();
  ASSERT_EQ(edges.size(), g.num_edges());
  auto g2 = gbbs::build_asymmetric_graph<empty_weight>(g.num_vertices(),
                                                       std::move(edges));
  EXPECT_EQ(g2.num_edges(), g.num_edges());
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    auto a = g.out_neighbors(v);
    auto b = g2.out_neighbors(v);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }
}

TEST(GraphBuild, FilterGraphKeepsExactlyPredicateEdges) {
  auto g = gbbs::rmat_symmetric(9, 4000, 13);
  auto filtered = gbbs::filter_graph(
      g, [](vertex_id u, vertex_id v, empty_weight) { return u < v; });
  EXPECT_EQ(filtered.num_edges(), g.num_edges() / 2);
  std::uint64_t checked = 0;
  for (vertex_id v = 0; v < filtered.num_vertices(); ++v) {
    for (vertex_id u : filtered.out_neighbors(v)) {
      ASSERT_LT(v, u);
      ++checked;
    }
  }
  EXPECT_EQ(checked, filtered.num_edges());
}

TEST(GraphBuild, MapAndReduceOutAgree) {
  auto g = gbbs::rmat_symmetric(8, 3000, 17);
  for (vertex_id v = 0; v < g.num_vertices(); v += 37) {
    std::uint64_t sum_map = 0;
    g.map_out_neighbors(v, [&](vertex_id, vertex_id ngh, empty_weight) {
      parlib::fetch_and_add<std::uint64_t>(&sum_map, ngh);
    });
    const auto sum_red = g.reduce_out(
        v,
        [](vertex_id, vertex_id ngh, empty_weight) {
          return static_cast<std::uint64_t>(ngh);
        },
        parlib::plus_monoid<std::uint64_t>());
    ASSERT_EQ(sum_map, sum_red) << v;
  }
}

TEST(GraphBuild, IntersectOutCountsCommonNeighbors) {
  // Triangle 0-1-2 plus pendant 3 attached to 0.
  std::vector<edge<empty_weight>> edges = {
      {0, 1, {}}, {1, 2, {}}, {0, 2, {}}, {0, 3, {}}};
  auto g = gbbs::build_symmetric_graph<empty_weight>(4, edges);
  EXPECT_EQ(g.intersect_out(0, 1), 1u);  // common neighbor: 2
  EXPECT_EQ(g.intersect_out(1, 2), 1u);  // common neighbor: 0
  EXPECT_EQ(g.intersect_out(0, 3), 0u);
}

TEST(GraphBuild, MapOutRangeSubsetsAdjacency) {
  auto g = gbbs::rmat_symmetric(8, 3000, 19);
  vertex_id v = 0;
  for (vertex_id u = 0; u < g.num_vertices(); ++u) {
    if (g.out_degree(u) >= 5) {
      v = u;
      break;
    }
  }
  std::vector<vertex_id> got;
  g.map_out_neighbors_range(v, 1, 4, [&](vertex_id, vertex_id ngh, empty_weight) {
    got.push_back(ngh);
  });
  auto nghs = g.out_neighbors(v);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], nghs[1]);
  EXPECT_EQ(got[2], nghs[3]);
}

TEST(GraphBuild, EmptyGraph) {
  auto g = gbbs::build_symmetric_graph<empty_weight>(5, {});
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  for (vertex_id v = 0; v < 5; ++v) EXPECT_EQ(g.out_degree(v), 0u);
}

TEST(GraphBuild, ZeroVertexGraph) {
  auto g = gbbs::build_symmetric_graph<empty_weight>(0, {});
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  auto d = gbbs::build_asymmetric_graph<empty_weight>(0, {});
  EXPECT_EQ(d.num_edges(), 0u);
}

TEST(GraphBuild, OutOfRangeEndpointsAreDropped) {
  // Edges touching ids >= n must not corrupt the CSR (n-growing inputs
  // belong to the dynamic subsystem; the static builder drops them).
  std::vector<edge<empty_weight>> edges = {
      {0, 1, {}}, {1, 9, {}}, {12, 0, {}}, {1, 2, {}}};
  auto g = gbbs::build_symmetric_graph<empty_weight>(3, edges);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 4u);  // (0,1) and (1,2), both directions
  auto d = gbbs::build_asymmetric_graph<empty_weight>(3, edges);
  EXPECT_EQ(d.num_edges(), 2u);
  EXPECT_EQ(d.out_degree(0), 1u);
  EXPECT_EQ(d.out_degree(1), 1u);
}

// ---- builder equivalence ------------------------------------------------

using gbbs::edge_id;
using gbbs::internal::entries;

template <typename W>
struct csr_arrays {
  std::vector<edge_id> offsets;
  std::vector<vertex_id> nghs;
  std::vector<W> wghs;
};

template <typename W>
W weight_of(std::uint64_t i) {
  if constexpr (std::is_same_v<W, empty_weight>) {
    return {};
  } else {
    return static_cast<W>(parlib::hash64(i));
  }
}

// The builder's contract, sequentially: entries in the order "every
// forward entry, then every reversal", minus self-loops and out-of-range
// endpoints, stably sorted by (row, neighbor); of a repeated pair the
// first entry (and its weight) stays.
template <typename W>
csr_arrays<W> reference_csr(vertex_id n, const std::vector<edge<W>>& edges,
                            entries which) {
  std::vector<edge<W>> list;
  if (which != entries::reverse) list = edges;
  if (which != entries::forward) {
    for (const auto& e : edges) list.push_back({e.v, e.u, e.w});
  }
  std::erase_if(list, [n](const edge<W>& e) {
    return e.u >= n || e.v >= n || e.u == e.v;
  });
  std::stable_sort(list.begin(), list.end(),
                   [](const edge<W>& a, const edge<W>& b) {
                     return std::tie(a.u, a.v) < std::tie(b.u, b.v);
                   });
  list.erase(std::unique(list.begin(), list.end(),
                         [](const edge<W>& a, const edge<W>& b) {
                           return a.u == b.u && a.v == b.v;
                         }),
             list.end());
  csr_arrays<W> out;
  out.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& e : list) ++out.offsets[e.u + 1];
  std::partial_sum(out.offsets.begin(), out.offsets.end(),
                   out.offsets.begin());
  for (const auto& e : list) {
    out.nghs.push_back(e.v);
    if constexpr (!std::is_same_v<W, empty_weight>) out.wghs.push_back(e.w);
  }
  return out;
}

// Random endpoints in [0, n + 3) (so some fall outside [0, n)), every
// 7th edge a self-loop, every 5th a repeat of an earlier edge in either
// orientation with a different weight, then `hub` edges at vertex 0 in
// both orientations (with repeats among them).
template <typename W>
std::vector<edge<W>> messy_edges(vertex_id n, std::size_t m,
                                 std::size_t hub, std::uint64_t seed) {
  const parlib::random rng(seed);
  const std::uint64_t range = std::uint64_t{n} + 3;
  std::vector<edge<W>> edges;
  for (std::size_t i = 0; i < m; ++i) {
    const std::uint64_t r = rng.ith_rand(i);
    auto u = static_cast<vertex_id>(r % range);
    auto v = static_cast<vertex_id>((r >> 32) % range);
    if (i % 7 == 3) v = u;
    if (i % 5 == 4) {
      const auto& e = edges[r % i];
      u = (r & 1) ? e.v : e.u;
      v = (r & 1) ? e.u : e.v;
    }
    edges.push_back({u, v, weight_of<W>(i)});
  }
  for (std::size_t i = 0; i < hub && n > 1; ++i) {
    const std::uint64_t r = rng.ith_rand(m + i);
    const auto v = static_cast<vertex_id>(r % std::min<std::uint64_t>(n, hub));
    edges.push_back(i % 3 == 0 ? edge<W>{v, 0, weight_of<W>(m + i)}
                               : edge<W>{0, v, weight_of<W>(m + i)});
  }
  return edges;
}

template <typename W>
void expect_same(const csr_arrays<W>& got, const csr_arrays<W>& want) {
  ASSERT_EQ(got.offsets, want.offsets);
  ASSERT_EQ(got.nghs, want.nghs);
  ASSERT_EQ(got.wghs, want.wghs);
}

struct build_case {
  vertex_id n;
  std::size_t m;
  std::size_t hub;
};

// n = 0 and 1, a non-power of two, an id width of 14 bits and one of 23
// (past two neighbor-digit passes, and neither a multiple of the 11
// bucket bits), and a hub row that alone exceeds the parallel-bucket
// threshold in every orientation.
const build_case kCases[] = {
    {0, 50, 0},          {1, 50, 10},    {7, 200, 0},
    {(1u << 13) + 5, 20000, 0},          {(1u << 22) + 3, 5000, 0},
    {5000, 20000, 4 * gbbs::internal::kParallelBucket},
};

template <typename W>
void check_against_reference(std::size_t workers) {
  parlib::active_workers_guard guard(workers);
  std::uint64_t seed = 1;
  for (const auto& c : kCases) {
    const auto edges = messy_edges<W>(c.n, c.m, c.hub, seed++);
    for (entries which :
         {entries::forward, entries::reverse, entries::both}) {
      SCOPED_TRACE(::testing::Message()
                   << "n=" << c.n << " m=" << edges.size() << " entries="
                   << static_cast<int>(which) << " workers=" << workers);
      csr_arrays<W> got;
      gbbs::internal::csr_from_edges(edges, c.n, which, got.offsets,
                                     got.nghs, got.wghs);
      expect_same(got, reference_csr(c.n, edges, which));
    }
  }
}

TEST(GraphBuildEquivalence, UnweightedAtOneWorker) {
  check_against_reference<empty_weight>(1);
}

TEST(GraphBuildEquivalence, UnweightedAtAllWorkers) {
  check_against_reference<empty_weight>(parlib::num_workers());
}

TEST(GraphBuildEquivalence, WeightedAtOneWorker) {
  check_against_reference<std::uint32_t>(1);
}

TEST(GraphBuildEquivalence, WeightedAtAllWorkers) {
  check_against_reference<std::uint32_t>(parlib::num_workers());
}

TEST(GraphBuildEquivalence, FirstWeightWinsBetweenEdgeAndReversal) {
  // (0,1) appears as the original (1,0,5) and as the reversal of
  // (0,1,7), which comes later in the virtual order; (1,0) the opposite.
  std::vector<edge<std::uint32_t>> edges = {{1, 0, 5}, {0, 1, 7}, {0, 1, 9}};
  auto g = gbbs::build_symmetric_graph<std::uint32_t>(2, edges);
  ASSERT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.out_weight(0, 0), 7u);  // original (0,1,7) precedes reversals
  EXPECT_EQ(g.out_weight(1, 0), 5u);  // original (1,0,5)
}

template <typename W>
csr_arrays<W> out_arrays(const gbbs::graph<W>& g, bool in) {
  csr_arrays<W> a;
  a.offsets.push_back(0);
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    const auto nghs = in ? g.in_neighbors(v) : g.out_neighbors(v);
    for (std::size_t j = 0; j < nghs.size(); ++j) {
      a.nghs.push_back(nghs[j]);
      if constexpr (!std::is_same_v<W, empty_weight>) {
        a.wghs.push_back(in ? g.in_weight(v, j) : g.out_weight(v, j));
      }
    }
    a.offsets.push_back(a.nghs.size());
  }
  return a;
}

TEST(GraphBuildEquivalence, AsymmetricInCsrIsTransposeOfOutCsr) {
  for (std::size_t workers : {std::size_t{1}, parlib::num_workers()}) {
    parlib::active_workers_guard guard(workers);
    const vertex_id n = 5000;
    const auto edges = messy_edges<std::uint32_t>(
        n, 30000, 4 * gbbs::internal::kParallelBucket, 99);
    auto g = gbbs::build_asymmetric_graph<std::uint32_t>(n, edges);
    const auto out = out_arrays(g, /*in=*/false);
    const auto in = out_arrays(g, /*in=*/true);
    expect_same(out, reference_csr(n, edges, entries::forward));
    expect_same(in, reference_csr(n, edges, entries::reverse));
    std::vector<std::tuple<vertex_id, vertex_id, std::uint32_t>> fwd, bwd;
    for (vertex_id v = 0; v < n; ++v) {
      for (edge_id e = out.offsets[v]; e < out.offsets[v + 1]; ++e) {
        fwd.emplace_back(v, out.nghs[e], out.wghs[e]);
      }
      for (edge_id e = in.offsets[v]; e < in.offsets[v + 1]; ++e) {
        bwd.emplace_back(in.nghs[e], v, in.wghs[e]);
      }
    }
    std::sort(bwd.begin(), bwd.end());
    EXPECT_EQ(fwd, bwd);
    EXPECT_EQ(g.num_edges(), fwd.size());
  }
}

}  // namespace
