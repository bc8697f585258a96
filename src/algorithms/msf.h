// Minimum spanning forest (Algorithm 9): Boruvka over an edge list with
// priority-writes and pointer-jumping, O(m log n) work and O(log^2 n) depth
// on the PW-MT-RAM.
//
// Following Section 4, a constant number of *filtering steps* each (a)
// select the ~3n/2 lightest remaining edges with an approximate k-th
// smallest pivot, (b) run Boruvka on that prefix, and (c) pack out edges
// whose endpoints are now in the same component. The remainder is solved
// by one final Boruvka call. Ties are broken by original edge index, which
// makes the chosen forest deterministic and total weight minimal.
//
// What is materialized: one m/2 list of indexed edges (u < v, built
// straight from the rows by undirected_edges.h, 24 bytes each), the
// filtering steps' light prefix and survivors, and per-round flags. There
// is no edges() copy and no table of original edges: a forest edge is
// recovered from its id (its row-order index) at the end.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/undirected_edges.h"
#include "parlib/atomics.h"
#include "parlib/parallel.h"
#include "parlib/random.h"
#include "parlib/sequence_ops.h"
#include "parlib/sort.h"

namespace gbbs {

namespace msf_internal {

struct indexed_edge {
  vertex_id u, v;
  std::uint32_t w;
  edge_id id;  // row-order index among the u < v edges (tie-breaker)
};

// (weight, id) packed for priority-writes: lower weight wins, then lower id.
inline std::uint64_t edge_priority(const indexed_edge& e, std::uint32_t idx) {
  return (static_cast<std::uint64_t>(e.w) << 32) | idx;
}

inline constexpr std::uint64_t kNoPriority =
    std::numeric_limits<std::uint64_t>::max();

// One Boruvka solve over `edges` whose endpoints are component ids in the
// global `parents` array (updated in place); appends chosen original edge
// ids to `forest`.
inline void boruvka(std::vector<vertex_id>& parents,
                    std::vector<indexed_edge> edges,
                    std::vector<std::uint64_t>& forest) {
  const std::size_t n = parents.size();
  std::vector<std::uint64_t> best(n, kNoPriority);
  while (!edges.empty()) {
    // Min-weight incident edge per live component root.
    parlib::parallel_for(0, edges.size(), [&](std::size_t i) {
      const auto pri = edge_priority(edges[i], static_cast<std::uint32_t>(i));
      parlib::write_min(&best[edges[i].u], pri);
      parlib::write_min(&best[edges[i].v], pri);
    });
    // An edge is chosen if it won on either endpoint. The endpoint it won
    // on hooks onto the other endpoint; a 2-cycle (edge won on both) is
    // broken by rooting the larger endpoint.
    std::vector<std::uint8_t> chosen(edges.size(), 0);
    parlib::parallel_for(0, edges.size(), [&](std::size_t i) {
      const auto& e = edges[i];
      const auto pri = edge_priority(e, static_cast<std::uint32_t>(i));
      const bool won_u = best[e.u] == pri;
      const bool won_v = best[e.v] == pri;
      if (!won_u && !won_v) return;
      chosen[i] = 1;
      if (won_u && won_v) {
        const vertex_id root = std::max(e.u, e.v);
        const vertex_id child = std::min(e.u, e.v);
        parents[child] = root;
      } else if (won_u) {
        parents[e.u] = e.v;
      } else {
        parents[e.v] = e.u;
      }
    });
    auto won = parlib::pack(edges, chosen);
    const std::size_t old_size = forest.size();
    forest.resize(old_size + won.size());
    parlib::parallel_for(0, won.size(), [&](std::size_t i) {
      forest[old_size + i] = won[i].id;
    });
    // Pointer-jump every touched vertex to its root.
    parlib::parallel_for(0, n, [&](std::size_t v) {
      vertex_id root = static_cast<vertex_id>(v);
      while (parents[root] != root) root = parents[root];
      parents[v] = root;
    });
    // Reset winners and relabel/filter the surviving edges.
    parlib::parallel_for(0, edges.size(), [&](std::size_t i) {
      best[edges[i].u] = kNoPriority;
      best[edges[i].v] = kNoPriority;
    });
    edges = parlib::filter(edges, [&](const indexed_edge& e) {
      return parents[e.u] != parents[e.v];
    });
    parlib::parallel_for(0, edges.size(), [&](std::size_t i) {
      edges[i].u = parents[edges[i].u];
      edges[i].v = parents[edges[i].v];
    });
  }
}

}  // namespace msf_internal

struct msf_result {
  std::vector<edge<std::uint32_t>> forest;  // original endpoints + weights
  std::uint64_t total_weight = 0;
  std::size_t num_filter_steps = 0;
};

// use_filtering=false runs plain edge-list Boruvka (the Zhou baseline the
// paper compares against in Section 6).
template <typename Graph>
msf_result msf(const Graph& g, bool use_filtering = true,
               std::size_t filter_steps = 3) {
  const vertex_id n = g.num_vertices();
  using W = typename Graph::weight_type;
  // Each undirected edge once (u < v), with its row-order index.
  const auto offsets = undirected_edge_offsets(g);
  auto edges = map_undirected_edges<msf_internal::indexed_edge>(
      g, offsets, [](edge_id id, vertex_id u, vertex_id v, W w) {
        return msf_internal::indexed_edge{u, v, w, id};
      });

  std::vector<vertex_id> parents(n);
  parlib::parallel_for(0, n, [&](std::size_t v) {
    parents[v] = static_cast<vertex_id>(v);
  });
  std::vector<std::uint64_t> forest;
  msf_result res;

  if (use_filtering) {
    const std::size_t target = 3 * static_cast<std::size_t>(n) / 2 + 1;
    for (std::size_t step = 0;
         step < filter_steps && edges.size() > 2 * target; ++step) {
      ++res.num_filter_steps;
      const std::uint32_t pivot = parlib::approximate_kth_smallest(
          edges.size(), [&](std::size_t i) { return edges[i].w; }, target,
          parlib::random(0x317 + step));
      auto light = parlib::filter(
          edges, [&](const auto& e) { return e.w <= pivot; });
      if (light.empty() || light.size() == edges.size()) break;
      msf_internal::boruvka(parents, std::move(light), forest);
      // Pack out: heavy edges whose endpoints merged are shortcut.
      auto survivors = parlib::filter(edges, [&](const auto& e) {
        return e.w > pivot && parents[e.u] != parents[e.v];
      });
      parlib::parallel_for(0, survivors.size(), [&](std::size_t i) {
        survivors[i].u = parents[survivors[i].u];
        survivors[i].v = parents[survivors[i].v];
      });
      edges.swap(survivors);
    }
  }
  msf_internal::boruvka(parents, std::move(edges), forest);

  res.forest = parlib::tabulate<edge<std::uint32_t>>(
      forest.size(), [&](std::size_t i) {
        return undirected_edge_at(g, offsets, forest[i]);
      });
  auto ws = parlib::map(res.forest, [](const auto& e) {
    return static_cast<std::uint64_t>(e.w);
  });
  res.total_weight = parlib::reduce_add(ws);
  return res;
}

}  // namespace gbbs
