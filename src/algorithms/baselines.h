// Comparator baselines from the paper's Section 6 evaluation:
//  * connectivity_union_find — concurrent union-find connectivity (the
//    Patwary-Refsnes-Manne style comparator for Algorithm 6);
//  * msf_kruskal — parallel sort + union-find Kruskal (the PBBS comparator
//    for the filtered Boruvka MSF; the sort is parallel, the scan is the
//    classic sequential union-find pass).
// These are benchmarks-only code paths; the primary implementations live in
// connectivity.h and msf.h.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "graph/undirected_edges.h"
#include "parlib/parallel.h"
#include "parlib/sequence_ops.h"
#include "parlib/sort.h"
#include "parlib/union_find.h"

namespace gbbs {

template <typename Graph>
std::vector<vertex_id> connectivity_union_find(const Graph& g) {
  const vertex_id n = g.num_vertices();
  parlib::union_find uf(n);
  parlib::parallel_for(0, n, [&](std::size_t vi) {
    const auto v = static_cast<vertex_id>(vi);
    g.map_out_neighbors(v, [&](vertex_id, vertex_id u, auto) {
      if (u < v) uf.unite(v, u);
    });
  });
  return uf.labels();
}

struct kruskal_result {
  std::vector<edge<std::uint32_t>> forest;
  std::uint64_t total_weight = 0;
};

template <typename Graph>
kruskal_result msf_kruskal(const Graph& g) {
  const vertex_id n = g.num_vertices();
  auto half = undirected_edges(g);
  parlib::sort_inplace(half, [](const auto& a, const auto& b) {
    return a.w < b.w || (a.w == b.w && (a.u < b.u || (a.u == b.u && a.v < b.v)));
  });
  parlib::union_find uf(n);
  kruskal_result res;
  for (const auto& e : half) {
    if (uf.unite(e.u, e.v)) {
      res.forest.push_back(e);
      res.total_weight += e.w;
    }
  }
  return res;
}

}  // namespace gbbs
