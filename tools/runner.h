// Shared command-line runner for the per-problem tools (mirroring the
// layout of the paper's public benchmark suite, where each problem is a
// standalone binary run against a graph file or generator).
//
// Common flags:
//   -g <spec>    generated input: rmat:<scale>, er:<scale>, torus:<side>,
//                grid:<side>  (default rmat:14)
//   -f <path>    binary graph file (written by examples/graph_tool)
//   -a <path>    Ligra AdjacencyGraph text file
//   -src <v>     source vertex for rooted problems (default 0)
//   -rounds <k>  timed repetitions (default 3; median reported)
//   -seed <s>    generator / algorithm seed (default 1)
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/graph_io.h"
#include "parlib/scheduler.h"

namespace tools {

struct options {
  std::string gen = "rmat:14";
  std::string binary_file;
  std::string adj_file;
  gbbs::vertex_id src = 0;
  int rounds = 3;
  std::uint64_t seed = 1;
  bool verify = false;  // -verify: check against the sequential oracle
};

inline options parse(int argc, char** argv) {
  options o;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (!std::strcmp(argv[i], "-g")) {
      o.gen = next();
    } else if (!std::strcmp(argv[i], "-f")) {
      o.binary_file = next();
    } else if (!std::strcmp(argv[i], "-a")) {
      o.adj_file = next();
    } else if (!std::strcmp(argv[i], "-src")) {
      o.src = static_cast<gbbs::vertex_id>(std::atoll(next()));
    } else if (!std::strcmp(argv[i], "-rounds")) {
      o.rounds = std::atoi(next());
    } else if (!std::strcmp(argv[i], "-seed")) {
      o.seed = std::strtoull(next(), nullptr, 10);
    } else if (!std::strcmp(argv[i], "-verify")) {
      o.verify = true;
    } else if (!std::strcmp(argv[i], "-h") ||
               !std::strcmp(argv[i], "--help")) {
      std::printf(
          "flags: -g rmat:<scale>|er:<scale>|torus:<side>|grid:<side> | "
          "-f <binary> | -a <adjacency>  [-src v] [-rounds k] [-seed s] "
          "[-verify]\n");
      std::exit(0);
    }
  }
  return o;
}

// Values a shared flag takes (0 or 1), or -1 if `flag` is none of the
// flags above. Tools with flags of their own use it to reject an argument
// that neither parser knows.
inline int shared_flag_arity(const char* flag) {
  for (const char* f : {"-g", "-f", "-a", "-src", "-rounds", "-seed"}) {
    if (!std::strcmp(flag, f)) return 1;
  }
  for (const char* f : {"-verify", "-h", "--help"}) {
    if (!std::strcmp(flag, f)) return 0;
  }
  return -1;
}

inline std::pair<std::string, std::uint32_t> split_gen(
    const std::string& gen) {
  const auto colon = gen.find(':');
  if (colon == std::string::npos) return {gen, 14};
  return {gen.substr(0, colon),
          static_cast<std::uint32_t>(std::atoi(gen.c_str() + colon + 1))};
}

inline gbbs::graph<gbbs::empty_weight> load_symmetric(const options& o) {
  if (!o.binary_file.empty()) {
    return gbbs::read_binary_graph(o.binary_file, /*symmetric=*/true);
  }
  if (!o.adj_file.empty()) {
    return gbbs::read_adjacency_graph(o.adj_file, /*symmetric=*/true);
  }
  const auto [kind, size] = split_gen(o.gen);
  if (kind == "torus") return gbbs::torus3d_symmetric(size);
  if (kind == "grid") {
    return gbbs::build_symmetric_graph<gbbs::empty_weight>(
        size * size, gbbs::grid2d_edges(size, size));
  }
  if (kind == "er") {
    const gbbs::vertex_id n = gbbs::vertex_id{1} << size;
    return gbbs::build_symmetric_graph<gbbs::empty_weight>(
        n, gbbs::erdos_renyi_edges(n, std::size_t{16} << size, o.seed));
  }
  return gbbs::rmat_symmetric(size, std::size_t{16} << size, o.seed);
}

inline gbbs::graph<std::uint32_t> load_symmetric_weighted(const options& o) {
  if (!o.binary_file.empty()) {
    return gbbs::read_weighted_binary_graph(o.binary_file, true);
  }
  if (!o.adj_file.empty()) {
    return gbbs::read_weighted_adjacency_graph(o.adj_file, true);
  }
  const auto [kind, size] = split_gen(o.gen);
  if (kind == "torus") return gbbs::torus3d_symmetric_weighted(size, o.seed);
  if (kind == "grid") {
    const gbbs::vertex_id n = size * size;
    return gbbs::build_symmetric_graph<std::uint32_t>(
        n, gbbs::with_random_weights(gbbs::grid2d_edges(size, size),
                                     gbbs::weight_range(n), o.seed));
  }
  if (kind == "er") {
    const gbbs::vertex_id n = gbbs::vertex_id{1} << size;
    return gbbs::build_symmetric_graph<std::uint32_t>(
        n, gbbs::with_random_weights(
               gbbs::erdos_renyi_edges(n, std::size_t{16} << size, o.seed),
               gbbs::weight_range(n), o.seed + 1));
  }
  return gbbs::rmat_symmetric_weighted(size, std::size_t{16} << size,
                                       o.seed);
}

inline gbbs::graph<gbbs::empty_weight> load_directed(const options& o) {
  if (!o.binary_file.empty()) {
    return gbbs::read_binary_graph(o.binary_file, /*symmetric=*/false);
  }
  if (!o.adj_file.empty()) {
    return gbbs::read_adjacency_graph(o.adj_file, /*symmetric=*/false);
  }
  const auto [kind, size] = split_gen(o.gen);
  if (kind == "torus") {
    return gbbs::build_asymmetric_graph<gbbs::empty_weight>(
        size * size * size, gbbs::torus3d_edges(size));
  }
  if (kind == "er") {
    const gbbs::vertex_id n = gbbs::vertex_id{1} << size;
    return gbbs::build_asymmetric_graph<gbbs::empty_weight>(
        n, gbbs::erdos_renyi_edges(n, std::size_t{16} << size, o.seed));
  }
  return gbbs::rmat_directed(size, std::size_t{16} << size, o.seed);
}

// Run f `rounds` times; print per-round and median time plus the summary
// string f returns for the last round.
template <typename F>
void run_rounds(const char* problem, const options& o, const F& f) {
  std::vector<double> times;
  std::string summary;
  for (int r = 0; r < std::max(1, o.rounds); ++r) {
    const auto start = std::chrono::steady_clock::now();
    summary = f();
    const auto end = std::chrono::steady_clock::now();
    const double t = std::chrono::duration<double>(end - start).count();
    times.push_back(t);
    std::printf("%s: round %d: %.6f s\n", problem, r, t);
  }
  std::sort(times.begin(), times.end());
  std::printf("%s: median of %zu: %.6f s  [workers=%zu]\n", problem,
              times.size(), times[times.size() / 2], parlib::num_workers());
  std::printf("%s: %s\n", problem, summary.c_str());
}

// Report a -verify outcome; exits non-zero on failure so the tools can be
// scripted as correctness checks.
inline void report_verification(const char* problem, bool ok) {
  std::printf("%s: verification %s\n", problem, ok ? "PASSED" : "FAILED");
  if (!ok) std::exit(1);
}

}  // namespace tools
