// Shared graph suite for parameterized algorithm tests: a mix of skewed
// (R-MAT), uniform (Erdos-Renyi), high-diameter (torus/grid/path), and
// structured corner cases (star, complete, disconnected).
#pragma once

#include <string>
#include <vector>

#include "dynamic/dynamic_graph.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"

namespace gbbs::testing {

struct graph_case {
  std::string name;
  graph<empty_weight> g;
};

inline graph<empty_weight> two_components(vertex_id half) {
  // Two disjoint cycles.
  auto edges = cycle_edges(half);
  for (vertex_id i = 0; i < half; ++i) {
    edges.push_back({half + i, half + (i + 1) % half, {}});
  }
  return build_symmetric_graph<empty_weight>(2 * half, std::move(edges));
}

inline std::vector<std::string> symmetric_suite_names() {
  return {"rmat",   "erdos_renyi", "torus",    "grid",
          "path",   "star",        "complete", "binary_tree",
          "two_cc", "empty"};
}

inline graph<empty_weight> make_symmetric(const std::string& name) {
  if (name == "rmat") return rmat_symmetric(11, 16000, 42);
  if (name == "erdos_renyi") {
    return build_symmetric_graph<empty_weight>(
        2048, erdos_renyi_edges(2048, 12000, 7));
  }
  if (name == "torus") return torus3d_symmetric(9);
  if (name == "grid") {
    return build_symmetric_graph<empty_weight>(30 * 40,
                                               grid2d_edges(30, 40));
  }
  if (name == "path") {
    return build_symmetric_graph<empty_weight>(512, path_edges(512));
  }
  if (name == "star") {
    return build_symmetric_graph<empty_weight>(700, star_edges(700));
  }
  if (name == "complete") {
    return build_symmetric_graph<empty_weight>(60, complete_edges(60));
  }
  if (name == "binary_tree") {
    return build_symmetric_graph<empty_weight>(1023,
                                               binary_tree_edges(1023));
  }
  if (name == "two_cc") return two_components(300);
  if (name == "empty") return build_symmetric_graph<empty_weight>(64, {});
  return build_symmetric_graph<empty_weight>(1, {});
}

inline std::vector<std::string> directed_suite_names() {
  return {"rmat_dir", "er_dir", "dag", "dicycle"};
}

inline graph<empty_weight> make_directed(const std::string& name) {
  if (name == "rmat_dir") return rmat_directed(11, 16000, 21);
  if (name == "er_dir") {
    return build_asymmetric_graph<empty_weight>(
        1024, erdos_renyi_edges(1024, 8000, 9));
  }
  if (name == "dag") {
    // Random DAG: edges only forward.
    auto edges = erdos_renyi_edges(1024, 6000, 13);
    for (auto& e : edges) {
      if (e.u > e.v) std::swap(e.u, e.v);
    }
    return build_asymmetric_graph<empty_weight>(1024, std::move(edges));
  }
  if (name == "dicycle") {
    edge_list edges;
    for (vertex_id i = 0; i < 400; ++i) edges.push_back({i, (i + 1) % 400, {}});
    return build_asymmetric_graph<empty_weight>(400, std::move(edges));
  }
  return build_asymmetric_graph<empty_weight>(1, {});
}

// Weighted versions (weights in [1, weight_range(n)]).
inline graph<std::uint32_t> make_symmetric_weighted(const std::string& name,
                                                    std::uint64_t seed = 5) {
  auto g = make_symmetric(name);
  auto edges = g.edges();
  edge_list unweighted(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    unweighted[i] = {edges[i].u, edges[i].v, {}};
  }
  return build_symmetric_graph<std::uint32_t>(
      g.num_vertices(),
      with_random_weights(unweighted, weight_range(g.num_vertices() + 1),
                          seed));
}

// The same graph as g, live: every other u < v edge compacted into the
// base, the rest left in the overlay, so rows merge the two.
template <typename W>
dynamic::dynamic_graph<W> split_base_overlay(const graph<W>& g) {
  auto all = g.edges();
  std::vector<dynamic::update<W>> base, overlay;
  for (const auto& e : all) {
    if (e.u >= e.v) continue;
    auto& to = (base.size() + overlay.size()) % 2 == 0 ? base : overlay;
    to.push_back({e.u, e.v, e.w, dynamic::update_op::insert});
  }
  dynamic::dynamic_graph<W> dg(g.num_vertices());
  dg.apply(std::move(base));
  dg.compact();
  dg.apply(std::move(overlay));
  return dg;
}

}  // namespace gbbs::testing
