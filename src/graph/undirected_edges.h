// The undirected edge list of a symmetric graph_view: each edge once, as
// (u, v) with u < v, read straight out of the rows. The edge-list problems
// (MSF, maximal matching, the Kruskal baseline, the dynamic stream) build
// their own per-edge records from it, so no whole-graph edges() copy, and
// no filtered copy of that copy, ever exists next to them.
//
// An edge's id is its position in row order: the index that edges() +
// filter(u < v) would give it. The enumeration takes two passes: count_out
// per row and a scan give every row its first id (the offsets), then each
// row fills its slots through map_out_neighbors_early_exit. Because a
// model's rows are neighbor-sorted, the u < v edges of row u are its last
// offsets[u + 1] - offsets[u] positions, which is what lets
// undirected_edge_at recover one edge from its id with a binary search and
// one map_out_neighbors_range call.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_view.h"
#include "parlib/parallel.h"
#include "parlib/sequence_ops.h"

namespace gbbs {

// offsets[u] = id of row u's first u < v edge; offsets[n] = the count.
template <graph_view G>
std::vector<edge_id> undirected_edge_offsets(const G& g) {
  using W = typename G::weight_type;
  const vertex_id n = g.num_vertices();
  std::vector<edge_id> offsets(static_cast<std::size_t>(n) + 1, 0);
  parlib::parallel_for(0, n, [&](std::size_t v) {
    offsets[v] = g.count_out(static_cast<vertex_id>(v),
                             [](vertex_id u, vertex_id ngh, W) {
                               return u < ngh;
                             });
  });
  parlib::scan_inplace(offsets);
  return offsets;
}

// out[id] = f(id, u, v, w) over the u < v edges, rows in parallel.
template <typename T, graph_view G, typename F>
std::vector<T> map_undirected_edges(const G& g,
                                    const std::vector<edge_id>& offsets,
                                    const F& f) {
  using W = typename G::weight_type;
  std::vector<T> out(offsets.back());
  parlib::parallel_for(0, g.num_vertices(), [&](std::size_t v) {
    edge_id id = offsets[v];
    if (id == offsets[v + 1]) return;
    g.map_out_neighbors_early_exit(static_cast<vertex_id>(v),
                                   [&](vertex_id u, vertex_id ngh, W w) {
                                     if (u < ngh) {
                                       out[id] = f(id, u, ngh, w);
                                       ++id;
                                     }
                                     return true;
                                   });
  });
  return out;
}

// The u < v edges as plain records, in id order.
template <graph_view G>
std::vector<edge<typename G::weight_type>> undirected_edges(const G& g) {
  using W = typename G::weight_type;
  return map_undirected_edges<edge<W>>(
      g, undirected_edge_offsets(g),
      [](edge_id, vertex_id u, vertex_id v, W w) { return edge<W>{u, v, w}; });
}

// The edge with id `id` (id < offsets[n]): its row is the last u with
// offsets[u] <= id, and it sits (offsets[u + 1] - id) positions from the
// end of that row.
template <graph_view G>
edge<typename G::weight_type> undirected_edge_at(
    const G& g, const std::vector<edge_id>& offsets, edge_id id) {
  using W = typename G::weight_type;
  const auto row = std::upper_bound(offsets.begin(), offsets.end(), id) - 1;
  const auto u = static_cast<vertex_id>(row - offsets.begin());
  const std::size_t j = g.out_degree(u) - (row[1] - id);
  edge<W> e{u, u, W{}};
  g.map_out_neighbors_range(u, j, j + 1, [&](vertex_id, vertex_id ngh, W w) {
    e.v = ngh;
    e.w = w;
  });
  return e;
}

}  // namespace gbbs
