// paper_suite: the paper's 15 problems (Tables 2/4) on three inputs:
//   rmat20  R-MAT scale 20 (134 MB CSR, larger than a large L3), at P =
//           all workers only, every problem but TC;
//   rmat16  R-MAT scale 16 (in cache), at P and at 1 worker;
//   torus   a 64^3 3D torus (high diameter), at P and at 1 worker.
// rmat20 puts the P column in the paper's out-of-cache regime; the two
// smaller inputs carry the 1-worker column (the paper's (1) and (SU)),
// which at scale 20 would take longer than a run may. TC on rmat20 takes
// ~13 s at P, more than the rest of its suite, so it runs on the two
// smaller inputs only. Every output of the first round
// of each phase is checked against the sequential references in
// seq/reference.h.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "algorithms/bellman_ford.h"
#include "algorithms/betweenness.h"
#include "algorithms/bfs.h"
#include "algorithms/biconnectivity.h"
#include "algorithms/coloring.h"
#include "algorithms/connectivity.h"
#include "algorithms/kcore.h"
#include "algorithms/ldd.h"
#include "algorithms/maximal_matching.h"
#include "algorithms/mis.h"
#include "algorithms/msf.h"
#include "algorithms/scc.h"
#include "algorithms/set_cover.h"
#include "algorithms/triangle.h"
#include "algorithms/wbfs.h"
#include "graph/generators.h"
#include "parlib/union_find.h"
#include "seq/reference.h"
#include "workloads.h"

namespace perfbench {
namespace {

using gbbs::empty_weight;
using gbbs::vertex_id;

constexpr std::uint32_t kLargeRmatScale = 20;
constexpr std::uint32_t kSmallRmatScale = 16;
constexpr vertex_id kTorusSide = 64;

struct suite_input {
  std::string name;
  bool at_one_worker = true;  // also timed at 1 worker (speedup reported)
  bool report_p_times = true;  // algorithms.<problem>.<name>_s reported
  bool with_tc = true;
  gbbs::graph<empty_weight> sym;
  gbbs::graph<std::uint32_t> symw;
  gbbs::graph<empty_weight> dir;
  gbbs::graph<empty_weight> cover;  // set-cover instance
  vertex_id cover_sets = 0;
  vertex_id src = 0;
};

// Set cover over closed neighborhoods: set v covers element n + u for
// every u in N(v) ∪ {v}.
gbbs::graph<empty_weight> neighborhood_cover(
    const gbbs::graph<empty_weight>& g) {
  const vertex_id n = g.num_vertices();
  auto flat = g.edges();
  std::vector<gbbs::edge<empty_weight>> edges(flat.size() + n);
  parlib::parallel_for(0, flat.size(), [&](std::size_t i) {
    edges[i] = {flat[i].u, static_cast<vertex_id>(n + flat[i].v), {}};
  });
  parlib::parallel_for(0, n, [&](std::size_t v) {
    edges[flat.size() + v] = {static_cast<vertex_id>(v),
                              static_cast<vertex_id>(n + v), {}};
  });
  return gbbs::build_symmetric_graph<empty_weight>(2 * n, std::move(edges));
}

// A seed-chosen source vertex with at least one edge.
vertex_id pick_source(const gbbs::graph<empty_weight>& g, std::uint64_t seed) {
  const parlib::random rng(seed);
  for (std::uint64_t i = 0;; ++i) {
    const auto v = static_cast<vertex_id>(rng.ith_rand(i) % g.num_vertices());
    if (g.out_degree(v) > 0) return v;
  }
}

void finish_input(suite_input& in, const gbbs::edge_list& edges,
                  std::uint64_t seed) {
  const vertex_id n = in.sym.num_vertices();
  in.symw = gbbs::build_symmetric_graph<std::uint32_t>(
      n, gbbs::with_random_weights(edges, gbbs::weight_range(n), seed + 1));
  in.dir = gbbs::build_asymmetric_graph<empty_weight>(n, edges);
  in.cover = neighborhood_cover(in.sym);
  in.cover_sets = n;
  in.src = pick_source(in.sym, seed);
}

suite_input make_rmat(std::uint32_t scale, std::uint64_t seed) {
  span s("graph.generate.rmat");
  suite_input in;
  in.name = "rmat" + std::to_string(scale);
  const vertex_id n = vertex_id{1} << scale;
  auto edges = gbbs::rmat_edges(scale, std::size_t{16} << scale, seed);
  in.sym = gbbs::build_symmetric_graph<empty_weight>(n, edges);
  finish_input(in, edges, seed);
  return in;
}

suite_input make_torus(std::uint64_t seed) {
  span s("graph.generate.torus");
  suite_input in;
  in.name = "torus";
  const vertex_id n = kTorusSide * kTorusSide * kTorusSide;
  auto edges = gbbs::torus3d_edges(kTorusSide);
  in.sym = gbbs::build_symmetric_graph<empty_weight>(n, edges);
  finish_input(in, edges, seed);
  return in;
}

enum class family { traversal, bucketed, edgewise };

struct problem {
  const char* name;  // as in the per-layer metric names
  family fam;
};

const std::vector<problem>& problems() {
  static const std::vector<problem> p = {
      {"bfs", family::traversal},          {"bc", family::traversal},
      {"bellman_ford", family::traversal}, {"ldd", family::traversal},
      {"connectivity", family::traversal}, {"biconnectivity", family::traversal},
      {"scc", family::traversal},          {"mis", family::traversal},
      {"coloring", family::traversal},     {"wbfs", family::bucketed},
      {"kcore", family::bucketed},         {"set_cover", family::bucketed},
      {"msf", family::edgewise},           {"mm", family::edgewise},
      {"tc", family::edgewise}};
  return p;
}

constexpr std::size_t kTriangleCount = 14;  // index of "tc" in problems()

const char* const kFamilyNames[] = {"traversal", "bucketed", "edgewise"};

// Sequential triangle count over the degree-ordered orientation: each
// triangle is found once, at its lowest-ranked vertex, by merging the
// sorted higher-ranked neighbor lists of an edge's endpoints.
std::uint64_t ordered_triangle_count(const gbbs::graph<empty_weight>& g) {
  const vertex_id n = g.num_vertices();
  auto below = [&](vertex_id a, vertex_id b) {
    const auto da = g.out_degree(a), db = g.out_degree(b);
    return da < db || (da == db && a < b);
  };
  std::vector<std::vector<vertex_id>> up(n);
  for (vertex_id v = 0; v < n; ++v) {
    for (vertex_id u : g.out_neighbors(v)) {
      if (below(v, u)) up[v].push_back(u);
    }
  }
  std::uint64_t count = 0;
  for (vertex_id v = 0; v < n; ++v) {
    for (vertex_id u : up[v]) {
      const auto& a = up[v];
      const auto& b = up[u];
      std::size_t i = 0, j = 0;
      while (i < a.size() && j < b.size()) {
        if (a[i] < b[j]) {
          ++i;
        } else if (b[j] < a[i]) {
          ++j;
        } else {
          ++count;
          ++i;
          ++j;
        }
      }
    }
  }
  return count;
}

// Runs one problem on one input (timed), keeps its output, and checks the
// kept output against the sequential reference on demand. References are
// computed once per input, on first use, outside every timed region.
class problem_runner {
 public:
  explicit problem_runner(const suite_input& in) : in_(in) {}

  double run(std::size_t p) {
    const std::string span_name = std::string("algorithms.") + problems()[p].name;
    const auto& g = in_.sym;
    const auto t0 = steady::now();
    {
      span s(span_name.c_str());
      switch (p) {
        case 0: bfs_ = gbbs::bfs(g, in_.src); break;
        case 1: bc_ = gbbs::betweenness(g, in_.src); break;
        case 2: bf_ = gbbs::bellman_ford(in_.symw, in_.src); break;
        case 3: ldd_ = gbbs::ldd(g, 0.2); break;
        case 4: cc_ = gbbs::connectivity(g); break;
        case 5: bicc_ = gbbs::biconnectivity(g); break;
        case 6: scc_ = gbbs::scc(in_.dir); break;
        case 7: mis_ = gbbs::mis_rootset(g); break;
        case 8: color_ = gbbs::color_graph(g); break;
        case 9: wbfs_ = gbbs::wbfs(in_.symw, in_.src); break;
        case 10: kcore_ = gbbs::kcore(g); break;
        case 11: cover_ = gbbs::set_cover(in_.cover, in_.cover_sets); break;
        case 12: msf_ = gbbs::msf(in_.symw); break;
        case 13: mm_ = gbbs::maximal_matching(g); break;
        case 14: tc_ = gbbs::triangle_count(g); break;
      }
    }
    return seconds_since(t0);
  }

  bool check(std::size_t p) {
    const auto& g = in_.sym;
    const vertex_id n = g.num_vertices();
    switch (p) {
      case 0:
        return bfs_ == ref(ref_bfs_, [&] { return gbbs::seq::bfs(g, in_.src); });
      case 1: {
        const auto& want = ref(ref_bc_, [&] {
          return gbbs::seq::betweenness(g, in_.src);
        });
        if (bc_.size() != want.size()) return false;
        for (std::size_t v = 0; v < want.size(); ++v) {
          if (std::abs(bc_[v] - want[v]) > 1e-6 * std::max(1.0, std::abs(want[v]))) {
            return false;
          }
        }
        return true;
      }
      case 2: return bf_ == dijkstra();
      case 3: return valid_ldd();
      case 4:
        return gbbs::same_partition(
            cc_, ref(ref_cc_, [&] { return gbbs::seq::connectivity(g); }));
      case 5: return valid_biconnectivity();
      case 6:
        return gbbs::same_partition(
            scc_.labels, ref(ref_scc_, [&] { return gbbs::seq::scc(in_.dir); }));
      case 7: return gbbs::seq::is_valid_mis(g, mis_);
      case 8: {
        vertex_id max_deg = 0;
        for (vertex_id v = 0; v < n; ++v) max_deg = std::max(max_deg, g.out_degree(v));
        return gbbs::seq::is_valid_coloring(g, color_, max_deg + 1);
      }
      case 9: {
        const auto& want = dijkstra();
        if (wbfs_.dist.size() != want.size()) return false;
        for (std::size_t v = 0; v < want.size(); ++v) {
          const bool inf = wbfs_.dist[v] == gbbs::kInfDist;
          if (inf != (want[v] == gbbs::seq::kInfDist64)) return false;
          if (!inf && static_cast<std::int64_t>(wbfs_.dist[v]) != want[v]) return false;
        }
        return true;
      }
      case 10:
        return kcore_.coreness ==
               ref(ref_core_, [&] { return gbbs::seq::coreness(g); });
      case 11: return gbbs::seq::covers_all(in_.cover, in_.cover_sets, cover_.cover);
      case 12: {
        const auto want = ref(ref_msf_, [&] {
          auto all = in_.symw.edges();
          std::vector<gbbs::edge<std::uint32_t>> half;
          for (const auto& e : all) {
            if (e.u < e.v) half.push_back(e);
          }
          return gbbs::seq::msf_weight(n, std::move(half));
        });
        return msf_.total_weight == want;
      }
      case 13: return gbbs::seq::is_valid_maximal_matching(g, mm_);
      case 14:
        // seq::triangle_count scans every neighbor pair (sum of deg^2):
        // seconds on R-MAT's hubs, so skewed inputs get an independent
        // sequential rank-ordered count instead.
        return tc_ == ref(ref_tc_, [&] {
          return in_.name == "torus" ? gbbs::seq::triangle_count(g)
                                     : ordered_triangle_count(g);
        });
    }
    return false;
  }

 private:
  template <typename T, typename F>
  const T& ref(std::optional<T>& slot, F&& compute) {
    if (!slot) slot = compute();
    return *slot;
  }

  const std::vector<std::int64_t>& dijkstra() {
    return ref(ref_sssp_, [&] { return gbbs::seq::dijkstra(in_.symw, in_.src); });
  }

  // Every vertex's cluster is a center labelled by itself, and every
  // cluster is connected through its own edges.
  bool valid_ldd() const {
    const vertex_id n = in_.sym.num_vertices();
    if (ldd_.size() != n) return false;
    parlib::union_find uf(n);
    for (vertex_id v = 0; v < n; ++v) {
      if (ldd_[v] >= n || ldd_[ldd_[v]] != ldd_[v]) return false;
      for (vertex_id u : in_.sym.out_neighbors(v)) {
        if (ldd_[u] == ldd_[v]) uf.unite(u, v);
      }
    }
    for (vertex_id v = 0; v < n; ++v) {
      if (uf.find(v) != uf.find(ldd_[v])) return false;
    }
    return true;
  }

  // The edge partition equals the reference's, up to renaming labels.
  // Edges are visited as (v, u > v) in row order, which is the order of
  // the reference's sorted keys, so the two lists are walked in step.
  bool valid_biconnectivity() {
    const auto& want = ref(ref_bicc_, [&] {
      auto labels = gbbs::seq::biconnectivity_edge_labels(in_.sym);
      std::sort(labels.begin(), labels.end());
      return labels;
    });
    constexpr vertex_id kNone = ~vertex_id{0};
    vertex_id max_ref = 0;
    for (const auto& [key, label] : want) max_ref = std::max(max_ref, label);
    std::vector<vertex_id> ours2ref(in_.sym.num_vertices(), kNone);
    std::vector<vertex_id> ref2ours(std::size_t{max_ref} + 1, kNone);
    std::size_t next = 0;
    for (vertex_id v = 0; v < in_.sym.num_vertices(); ++v) {
      for (vertex_id u : in_.sym.out_neighbors(v)) {
        if (u < v) continue;
        if (next == want.size() ||
            want[next].first != ((std::uint64_t{v} << 32) | u)) {
          return false;
        }
        const vertex_id theirs = want[next++].second;
        const vertex_id mine = bicc_.edge_label(v, u);
        if (mine >= ours2ref.size()) return false;
        if (ours2ref[mine] == kNone) ours2ref[mine] = theirs;
        if (ref2ours[theirs] == kNone) ref2ours[theirs] = mine;
        if (ours2ref[mine] != theirs || ref2ours[theirs] != mine) return false;
      }
    }
    return next == want.size();
  }

  const suite_input& in_;
  std::vector<std::uint32_t> bfs_;
  std::vector<double> bc_;
  std::vector<std::int64_t> bf_;
  std::vector<vertex_id> ldd_, cc_, color_;
  gbbs::biconnectivity_result bicc_;
  gbbs::scc_result scc_;
  std::vector<std::uint8_t> mis_;
  gbbs::wbfs_result wbfs_;
  gbbs::kcore_result kcore_;
  gbbs::set_cover_result cover_;
  gbbs::msf_result msf_;
  std::vector<gbbs::edge<empty_weight>> mm_;
  std::uint64_t tc_ = 0;

  std::optional<std::vector<std::uint32_t>> ref_bfs_;
  std::optional<std::vector<double>> ref_bc_;
  std::optional<std::vector<std::int64_t>> ref_sssp_;
  std::optional<std::vector<vertex_id>> ref_cc_, ref_scc_, ref_core_;
  std::optional<std::vector<std::pair<std::uint64_t, vertex_id>>> ref_bicc_;
  std::optional<std::uint64_t> ref_msf_, ref_tc_;
};

// Per (input, problem): every timed run of one phase (at P or at 1 worker).
struct phase_samples {
  std::vector<std::vector<std::vector<double>>> times;  // [input][problem]
  cpu_usage by_family[3];
  double wall_by_family[3] = {0, 0, 0};
  std::uint64_t edges_by_family[3] = {0, 0, 0};
  program_counters counters;
  int rounds = 0;
  double spent = 0;  // timed seconds
  double check_s = 0;

  bool ran(std::size_t in, std::size_t p) const { return !times[in][p].empty(); }
  double median_time(std::size_t in, std::size_t p) const {
    return median(times[in][p]);
  }
  std::vector<double> all_medians() const {
    std::vector<double> out;
    for (std::size_t in = 0; in < times.size(); ++in) {
      for (std::size_t p = 0; p < times[in].size(); ++p) {
        if (ran(in, p)) out.push_back(median_time(in, p));
      }
    }
    return out;
  }
  double total_of_medians() const {
    double t = 0;
    for (double m : all_medians()) t += m;
    return t;
  }
};

// One round over every (input, problem) of the phase at `workers`
// workers; the 1-worker phase (`one_worker_column`) runs only the inputs
// marked for it. The first round's outputs are checked.
void run_round(phase_samples& ph, const std::vector<suite_input>& inputs,
               std::vector<problem_runner>& runners, std::size_t workers,
               bool one_worker_column, tally& outcome) {
  parlib::active_workers_guard guard(workers);
  if (ph.times.empty()) {
    ph.times.assign(runners.size(),
                    std::vector<std::vector<double>>(problems().size()));
  }
  const auto before = program_counters::now();
  for (std::size_t in = 0; in < runners.size(); ++in) {
    if (one_worker_column && !inputs[in].at_one_worker) continue;
    for (std::size_t p = 0; p < problems().size(); ++p) {
      if (p == kTriangleCount && !inputs[in].with_tc) continue;
      const auto fam = static_cast<std::size_t>(problems()[p].fam);
      const auto c0 = program_counters::now();
      const auto u0 = cpu_usage::now();
      const double t = runners[in].run(p);
      ph.by_family[fam] += cpu_usage::now() - u0;
      ph.edges_by_family[fam] +=
          (program_counters::now() - c0).ec.edgemap_edges_examined;
      ph.wall_by_family[fam] += t;
      ph.times[in][p].push_back(t);
      ph.spent += t;
      if (ph.rounds == 0) {
        const std::string what = std::string("paper_suite ") +
                                 problems()[p].name + " on " +
                                 inputs[in].name + " at " +
                                 std::to_string(workers) + " workers";
        ph.check_s += timed(
            [&] { outcome.check(runners[in].check(p), what.c_str()); });
      }
    }
  }
  ph.counters += program_counters::now() - before;
  ++ph.rounds;
}

struct suite_measurement {
  phase_samples at_p;
  phase_samples at_1;
};

// 70% of the time at P workers, 30% at 1 worker, and at least 3 and 4
// rounds, so each median drops the first, colder round when it is the
// slowest (a round at P takes ~9 s, most of it on rmat20; one at 1 worker
// ~4 s; at 30 s a run measures ~40 s). The two phases take turns, the next round going to the phase that has
// used the smaller share of its time, so each samples the whole run and
// not one stretch of it: the host's load drifts over tens of seconds.
constexpr int kMinRoundsAtP = 3;
constexpr int kMinRoundsAt1 = 4;

suite_measurement measure(const std::vector<suite_input>& inputs,
                          std::vector<problem_runner>& runners, double seconds,
                          tally& outcome) {
  const double budget_p = seconds * 0.7, budget_1 = seconds * 0.3;
  suite_measurement m;
  for (;;) {
    const bool more_p = m.at_p.rounds < kMinRoundsAtP || m.at_p.spent < budget_p;
    const bool more_1 = m.at_1.rounds < kMinRoundsAt1 || m.at_1.spent < budget_1;
    if (!more_p && !more_1) break;
    if (more_p &&
        (!more_1 || m.at_p.spent / budget_p <= m.at_1.spent / budget_1)) {
      run_round(m.at_p, inputs, runners, parlib::num_workers(), false, outcome);
    } else {
      run_round(m.at_1, inputs, runners, 1, true, outcome);
    }
  }
  return m;
}

void fill_per_layer(const suite_measurement& m,
                    const std::vector<suite_input>& inputs, metrics& out) {
  for (std::size_t in = 0; in < inputs.size(); ++in) {
    for (std::size_t p = 0; p < problems().size(); ++p) {
      if (!m.at_p.ran(in, p)) continue;
      const std::string base = std::string("algorithms.") + problems()[p].name +
                               "." + inputs[in].name;
      const double tp = m.at_p.median_time(in, p);
      if (inputs[in].report_p_times) out.set(base + "_s", tp, "s");
      if (m.at_1.ran(in, p)) {
        out.set(base + ".speedup", m.at_1.median_time(in, p) / tp, "x");
      }
    }
  }
  const double rp = m.at_p.rounds, r1 = m.at_1.rounds;
  for (std::size_t f = 0; f < 3; ++f) {
    const std::string fam = kFamilyNames[f];
    out.set("algorithms." + fam + ".cpu_s", m.at_p.by_family[f].cpu_s() / rp, "s");
    out.set("algorithms." + fam + ".sys_s", m.at_p.by_family[f].sys_s / rp, "s");
    out.set("algorithms." + fam + ".minor_faults",
            m.at_p.by_family[f].minor_faults / rp, "count");
    out.set("algorithms." + fam + ".cpu_s_1w", m.at_1.by_family[f].cpu_s() / r1,
            "s");
    const double edges = static_cast<double>(m.at_p.edges_by_family[f]);
    out.set("graph.edge_map.edges_examined." + fam, edges / rp, "count");
    out.set("graph.edge_map.ns_per_edge." + fam,
            edges > 0 ? m.at_p.wall_by_family[f] * 1e9 / edges : 0.0, "ns");
  }
  const auto& c = m.at_p.counters;
  out.set("parlib.sched.forks", static_cast<double>(c.forks) / rp, "count");
  out.set("parlib.sched.steals", static_cast<double>(c.steals) / rp, "count");
  out.set("parlib.sched.inline_fallbacks",
          static_cast<double>(c.ec.sched_inline_fallbacks) / rp, "count");
  out.set("parlib.fetch_add_ops", static_cast<double>(c.ec.fetch_add_ops) / rp,
          "count");
  out.set("parlib.histogram_calls",
          static_cast<double>(c.ec.histogram_calls) / rp, "count");
}

void print_summary(const suite_measurement& m,
                   const std::vector<suite_input>& inputs) {
  double fam_total[3] = {0, 0, 0};
  for (std::size_t in = 0; in < inputs.size(); ++in) {
    std::printf("# %s: n=%u m=%llu csr_bytes=%zu (P=%zu)\n",
                inputs[in].name.c_str(), inputs[in].sym.num_vertices(),
                static_cast<unsigned long long>(inputs[in].sym.num_edges()),
                inputs[in].sym.size_in_bytes(), parlib::num_workers());
    std::printf("#   %-16s %10s %10s %8s\n", "problem", "(1) s", "(P) s", "(SU)");
    for (std::size_t p = 0; p < problems().size(); ++p) {
      if (!m.at_p.ran(in, p)) continue;
      const double tp = m.at_p.median_time(in, p);
      fam_total[static_cast<std::size_t>(problems()[p].fam)] += tp;
      if (m.at_1.ran(in, p)) {
        const double t1 = m.at_1.median_time(in, p);
        std::printf("#   %-16s %10.4f %10.4f %8.2f\n", problems()[p].name, t1,
                    tp, t1 / tp);
      } else {
        std::printf("#   %-16s %10s %10.4f %8s\n", problems()[p].name, "-", tp,
                    "-");
      }
    }
  }
  std::printf("metric traversal_s %.6f s\n", fam_total[0]);
  std::printf("metric bucketed_s %.6f s\n", fam_total[1]);
  std::printf("metric edgewise_s %.6f s\n", fam_total[2]);
  std::printf("metric suite_1w_s %.6f s\n", m.at_1.total_of_medians());
  std::printf("# rounds: %d at P, %d at 1 worker; output checks %.1f s\n",
              m.at_p.rounds, m.at_1.rounds, m.at_p.check_s + m.at_1.check_s);
}

}  // namespace

void run_paper_suite(const run_options& opt, run_result& res) {
  // One set-up: generating rmat20's four graphs dominates it (~15 s).
  std::vector<suite_input> inputs;
  const double setup_s = timed([&] {
    inputs.push_back(make_rmat(kLargeRmatScale, opt.seed));
    inputs.push_back(make_rmat(kSmallRmatScale, opt.seed + 1));
    inputs.push_back(make_torus(opt.seed));
  });
  inputs[0].at_one_worker = false;
  inputs[0].with_tc = false;
  // rmat16's P times feed its speedups; BENCHMARK.json holds at most 128
  // per-layer metrics.
  inputs[1].report_p_times = false;
  std::vector<problem_runner> runners;
  for (const auto& in : inputs) runners.emplace_back(in);

  if (!opt.trace) {
    const auto m = measure(inputs, runners, opt.seconds, res.outcome);
    print_summary(m, inputs);
    const auto meds_p = m.at_p.all_medians();
    res.e2e.set("setup_s", setup_s, "s");
    res.e2e.set("typical_ms", geometric_mean(meds_p) * 1e3, "ms");
    res.e2e.set("secondary_ms", geometric_mean(m.at_1.all_medians()) * 1e3,
                "ms");
    res.e2e.set("rate",
                static_cast<double>(meds_p.size()) / m.at_p.total_of_medians(),
                "1/s");
    return;
  }
  // Untraced rounds at P only: obs.trace_overhead compares the P column.
  tracer::global().disable();
  phase_samples plain;
  for (int r = 0; r < kMinRoundsAtP; ++r) {
    run_round(plain, inputs, runners, parlib::num_workers(), false, res.outcome);
  }
  tracer::global().enable(kSpanCapacity);
  const auto traced = measure(inputs, runners, opt.seconds / 2, res.outcome);
  print_summary(traced, inputs);
  fill_per_layer(traced, inputs, res.layer);
  res.layer.set("obs.trace_overhead",
                traced.at_p.total_of_medians() / plain.total_of_medians(),
                "ratio");
}

}  // namespace perfbench
