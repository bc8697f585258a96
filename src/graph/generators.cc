#include "graph/generators.h"

#include <cmath>

#include "parlib/parallel.h"

namespace gbbs {

namespace {

// The R-MAT draws below are p = k * 2^-53 for an integer k < 2^53, so
// p < x holds exactly when k < draw_threshold(x): the quadrant choice
// needs no int-to-double conversion.
std::uint64_t draw_threshold(double x) {
  if (!(x > 0)) return 0;
  if (x >= 1) return std::uint64_t{1} << 53;
  return static_cast<std::uint64_t>(std::ceil(std::ldexp(x, 53)));
}

// One R-MAT edge: descend `scale` levels of the quadrant recursion, choosing
// a quadrant per level from an independent hash draw. The draw of level l
// is rng.fork(index).ith_uniform(l); edge_seed = rng.ith_rand(index) is
// the forked stream's seed and level_hash[l] = hash64(l) its inner hash,
// the same for every edge, so it is computed once per call. Quadrants:
// p < a top-left, else p < a+b top-right (v bit), else p < a+b+c
// bottom-left (u bit), else bottom-right (both), evaluated without
// branches since the draws are random.
edge<empty_weight> rmat_one(std::uint32_t scale, std::uint64_t edge_seed,
                            const std::uint64_t* level_hash, std::uint64_t ta,
                            std::uint64_t tab, std::uint64_t tabc) {
  vertex_id u = 0, v = 0;
  for (std::uint32_t level = 0; level < scale; ++level) {
    const std::uint64_t k =
        parlib::hash64(edge_seed ^ level_hash[level]) >> 11;
    const vertex_id not_a = k >= ta;
    const vertex_id lt_ab = k < tab;
    const vertex_id lt_abc = k < tabc;
    u = (u << 1) | (not_a & (lt_ab ^ 1));
    v = (v << 1) | (not_a & (lt_ab | (lt_abc ^ 1)));
  }
  return {u, v, {}};
}

}  // namespace

edge_list rmat_edges(std::uint32_t scale, std::size_t num_edges,
                     std::uint64_t seed, double a, double b, double c) {
  const parlib::random rng(seed);
  std::vector<std::uint64_t> level_hash(scale);
  for (std::uint32_t l = 0; l < scale; ++l) level_hash[l] = parlib::hash64(l);
  const std::uint64_t ta = draw_threshold(a);
  const std::uint64_t tab = draw_threshold(a + b);
  const std::uint64_t tabc = draw_threshold(a + b + c);
  edge_list edges(num_edges);
  parlib::parallel_for(0, num_edges, [&](std::size_t i) {
    edges[i] =
        rmat_one(scale, rng.ith_rand(i), level_hash.data(), ta, tab, tabc);
  });
  return edges;
}

edge_list erdos_renyi_edges(vertex_id n, std::size_t num_edges,
                            std::uint64_t seed) {
  parlib::random rng(seed);
  edge_list edges(num_edges);
  parlib::parallel_for(0, num_edges, [&](std::size_t i) {
    edges[i] = {static_cast<vertex_id>(rng.ith_rand(2 * i) % n),
                static_cast<vertex_id>(rng.ith_rand(2 * i + 1) % n),
                {}};
  });
  return edges;
}

edge_list torus3d_edges(vertex_id side) {
  const std::size_t n = static_cast<std::size_t>(side) * side * side;
  auto id = [side](vertex_id x, vertex_id y, vertex_id z) {
    return (x * side + y) * side + z;
  };
  edge_list edges(3 * n);
  parlib::parallel_for(0, n, [&](std::size_t v) {
    const vertex_id z = static_cast<vertex_id>(v % side);
    const vertex_id y = static_cast<vertex_id>((v / side) % side);
    const vertex_id x = static_cast<vertex_id>(v / (static_cast<std::size_t>(side) * side));
    const vertex_id vv = static_cast<vertex_id>(v);
    edges[3 * v + 0] = {vv, id((x + 1) % side, y, z), {}};
    edges[3 * v + 1] = {vv, id(x, (y + 1) % side, z), {}};
    edges[3 * v + 2] = {vv, id(x, y, (z + 1) % side), {}};
  });
  return edges;
}

edge_list grid2d_edges(vertex_id rows, vertex_id cols) {
  edge_list edges;
  edges.reserve(static_cast<std::size_t>(rows) * cols * 2);
  for (vertex_id r = 0; r < rows; ++r) {
    for (vertex_id c = 0; c < cols; ++c) {
      const vertex_id v = r * cols + c;
      if (c + 1 < cols) edges.push_back({v, v + 1, {}});
      if (r + 1 < rows) edges.push_back({v, v + cols, {}});
    }
  }
  return edges;
}

edge_list path_edges(vertex_id n) {
  edge_list edges;
  for (vertex_id i = 0; i + 1 < n; ++i) edges.push_back({i, i + 1, {}});
  return edges;
}

edge_list cycle_edges(vertex_id n) {
  auto edges = path_edges(n);
  if (n >= 3) edges.push_back({n - 1, 0, {}});
  return edges;
}

edge_list star_edges(vertex_id n) {
  edge_list edges;
  for (vertex_id i = 1; i < n; ++i) edges.push_back({0, i, {}});
  return edges;
}

edge_list complete_edges(vertex_id n) {
  edge_list edges;
  for (vertex_id i = 0; i < n; ++i) {
    for (vertex_id j = i + 1; j < n; ++j) edges.push_back({i, j, {}});
  }
  return edges;
}

edge_list binary_tree_edges(vertex_id n) {
  edge_list edges;
  for (vertex_id i = 0; i < n; ++i) {
    if (2 * i + 1 < n) edges.push_back({i, 2 * i + 1, {}});
    if (2 * i + 2 < n) edges.push_back({i, 2 * i + 2, {}});
  }
  return edges;
}

edge_list bipartite_cover_edges(vertex_id sets, vertex_id elements,
                                std::size_t avg_degree, std::uint64_t seed) {
  parlib::random rng(seed);
  const std::size_t total = static_cast<std::size_t>(sets) * avg_degree;
  edge_list edges(total);
  parlib::parallel_for(0, total, [&](std::size_t i) {
    const vertex_id s = static_cast<vertex_id>(i / avg_degree);
    const vertex_id e = static_cast<vertex_id>(
        sets + rng.ith_rand(i) % elements);
    edges[i] = {s, e, {}};
  });
  return edges;
}

std::vector<edge<std::uint32_t>> with_random_weights(const edge_list& edges,
                                                     std::uint32_t max_weight,
                                                     std::uint64_t seed) {
  parlib::random rng(seed);
  std::vector<edge<std::uint32_t>> out(edges.size());
  parlib::parallel_for(0, edges.size(), [&](std::size_t i) {
    const auto [u, v, w] = edges[i];
    // Weight keyed by the unordered endpoint pair so that both directions of
    // a symmetrized edge agree.
    const std::uint64_t lo = std::min(u, v), hi = std::max(u, v);
    const std::uint32_t wt = static_cast<std::uint32_t>(
        rng.ith_rand((hi << 32) | lo) % max_weight + 1);
    out[i] = {u, v, wt};
  });
  return out;
}

}  // namespace gbbs
