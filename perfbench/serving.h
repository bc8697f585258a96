// Helpers shared by the two serving workloads (serve_mixed, ingest_churn):
// Zipf-skewed keys, the open-loop query generator, the reference graph
// rebuilt from the seed plus the write stream, and the final-state checks.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/connectivity.h"
#include "bench.h"
#include "dynamic/update_batch.h"
#include "parlib/random.h"
#include "serve/query.h"
#include "serve/result_cache.h"

namespace perfbench {

using gbbs::empty_weight;
using gbbs::vertex_id;
using gbbs::serve::query;
using gbbs::serve::query_kind;
using gbbs::serve::query_result;
using update = gbbs::dynamic::update<empty_weight>;
using update_list = std::vector<update>;

// Vertex keys drawn from a Zipf(s) distribution over ranks, with ranks
// mapped to `candidates` by a seeded permutation (so the hot keys are not
// simply R-MAT's low, high-degree ids).
class zipf_keys {
 public:
  zipf_keys(std::vector<vertex_id> candidates, double s, std::uint64_t seed)
      : rng_(seed), cdf_(candidates.size()), perm_(std::move(candidates)) {
    double total = 0;
    for (std::size_t k = 0; k < cdf_.size(); ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = total;
    }
    for (auto& c : cdf_) c /= total;
    const parlib::random shuffle = rng_.fork(1);
    for (std::size_t k = perm_.size(); k > 1; --k) {
      std::swap(perm_[k - 1], perm_[shuffle.ith_rand(k) % k]);
    }
  }

  vertex_id ith(std::uint64_t i) const {
    const double u = rng_.ith_uniform(i);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    const auto rank = static_cast<std::size_t>(
        std::min<std::ptrdiff_t>(it - cdf_.begin(),
                                 static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
    return perm_[rank];
  }

 private:
  parlib::random rng_;
  std::vector<double> cdf_;
  std::vector<vertex_id> perm_;
};

// A query mix over Zipf keys. `bfs_per_mille` of the queries are
// bfs_distance; the rest are point reads split degree 1/3, neighbors 1/3,
// connected 2/9, component 1/9.
inline std::vector<query> make_queries(const zipf_keys& keys, std::size_t count,
                                       unsigned bfs_per_mille,
                                       std::uint64_t seed) {
  const parlib::random dice(seed);
  std::vector<query> qs(count);
  for (std::size_t i = 0; i < count; ++i) {
    const vertex_id u = keys.ith(2 * i);
    const vertex_id v = keys.ith(2 * i + 1);
    const auto d = static_cast<unsigned>(dice.ith_rand(i) % 1000);
    if (d < bfs_per_mille) {
      qs[i] = {query_kind::bfs_distance, u, v};
      continue;
    }
    const unsigned p = (d - bfs_per_mille) * 9 / (1000 - bfs_per_mille);
    if (p < 3) {
      qs[i] = {query_kind::degree, u, 0};
    } else if (p < 6) {
      qs[i] = {query_kind::neighbors, u, 0};
    } else if (p < 8) {
      qs[i] = {query_kind::connected, u, v};
    } else {
      qs[i] = {query_kind::component, u, 0};
    }
  }
  return qs;
}

// One query of an open-loop run, resolved.
struct resolved_query {
  bool point = true;
  gbbs::serve::query_status status = gbbs::serve::query_status::ok;
  double latency_ms = 0;  // from its due time: (submit - due) + engine latency
  double lag_ms = 0;      // how late the generator submitted it
};

// Submit qs[i] at t0 + i / rate (sleep_until on the precomputed schedule,
// never waiting on replies) until all are submitted or `stop` is set, then
// collect every reply. In a traced run each query becomes one span from
// its submit to its completion.
template <typename Engine, typename Stop>
std::vector<resolved_query> run_open_loop(Engine& engine,
                                          const std::vector<query>& qs,
                                          double rate, steady::time_point t0,
                                          Stop&& stop) {
  struct issued {
    steady::time_point due, submitted;
    bool point;
    std::future<query_result> reply;
  };
  std::vector<issued> sent;
  sent.reserve(qs.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const auto due =
        t0 + std::chrono::duration_cast<steady::duration>(
                 std::chrono::duration<double>(static_cast<double>(i) / rate));
    std::this_thread::sleep_until(due);
    if (stop()) break;
    const auto submitted = steady::now();
    sent.push_back({due, submitted, gbbs::serve::is_point_read(qs[i].kind),
                    engine.submit(qs[i])});
  }
  std::vector<resolved_query> out;
  out.reserve(sent.size());
  for (auto& s : sent) {
    const query_result r = s.reply.get();
    resolved_query q;
    q.point = s.point;
    q.status = r.status;
    q.lag_ms = seconds_between(s.due, s.submitted) * 1e3;
    q.latency_ms = q.lag_ms + r.latency_s * 1e3;
    tracer::global().record(
        s.point ? "serve.query.point" : "serve.query.bfs", s.submitted,
        s.submitted + std::chrono::duration_cast<steady::duration>(
                          std::chrono::duration<double>(r.latency_s)));
    out.push_back(q);
  }
  return out;
}

inline std::vector<double> latencies(const std::vector<resolved_query>& rs,
                                     bool point) {
  std::vector<double> out;
  for (const auto& r : rs) {
    if (r.point == point) out.push_back(r.latency_ms);
  }
  return out;
}

// Samples per window of windowed_p99: enough that each window's 99th
// percentile has ten samples beyond it.
inline constexpr std::size_t kP99Window = 1000;

// The median, over consecutive windows of kP99Window samples (in arrival
// order), of each window's 99th percentile: one scheduling hiccup moves
// one window, not the result. With fewer samples than two windows, the
// plain 99th percentile.
inline double windowed_p99(const std::vector<double>& in_order) {
  const std::size_t windows = in_order.size() / kP99Window;
  if (windows < 2) return quantile(in_order, 0.99);
  std::vector<double> p99s;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = in_order.begin() + static_cast<std::ptrdiff_t>(w * kP99Window);
    p99s.push_back(quantile(std::vector<double>(first, first + kP99Window), 0.99));
  }
  return median(p99s);
}

inline std::vector<double> generator_lags(const std::vector<resolved_query>& rs) {
  std::vector<double> out;
  for (const auto& r : rs) out.push_back(r.lag_ms);
  return out;
}

inline void count_queries(const std::vector<resolved_query>& rs, tally& t) {
  for (const auto& r : rs) {
    t.check(r.status == gbbs::serve::query_status::ok, "query resolved ok");
  }
}

inline double count_status(const std::vector<resolved_query>& rs,
                           gbbs::serve::query_status s) {
  double n = 0;
  for (const auto& r : rs) n += r.status == s ? 1 : 0;
  return n;
}

inline std::uint64_t undirected_key(vertex_id a, vertex_id b) {
  return (std::uint64_t{std::min(a, b)} << 32) | std::max(a, b);
}

// The undirected edges, as sorted undirected_key()s, of the graph on n
// vertices after applying `batches` in order to the undirected `initial`
// edges. Each batch is all inserts or all erases (the workloads never mix
// them), so the last batch that names an edge decides its final state.
// Every update is packed into one word and sorted in place, and the
// result reuses that storage: the check's memory stays well below the
// program's, so the run's peak RSS is the program's.
inline std::vector<std::uint64_t> expected_edges(
    vertex_id n, const std::vector<gbbs::edge<empty_weight>>& initial,
    const std::vector<const update_list*>& batches) {
  // (smaller id, larger id, batch number, is insert), high bits first.
  const int vb = std::bit_width(std::max<vertex_id>(n, 1) - 1);
  const int sb = std::bit_width(batches.size()) + 1;
  if (2 * vb + sb > 64) throw std::length_error("expected_edges: n too large");
  std::size_t total = initial.size();
  for (const auto* b : batches) total += b->size();
  std::vector<std::uint64_t> ops;
  ops.reserve(total);
  auto push = [&](vertex_id a, vertex_id b, std::uint64_t seq, bool insert) {
    if (a == b) return;
    if (a >= n || b >= n) throw std::out_of_range("expected_edges: id >= n");
    const std::uint64_t edge = (std::uint64_t{std::min(a, b)} << vb) | std::max(a, b);
    ops.push_back((edge << sb) | (seq << 1) | (insert ? 1 : 0));
  };
  for (const auto& e : initial) push(e.u, e.v, 0, true);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    for (const auto& up : *batches[b]) {
      push(up.u, up.v, b + 1, up.op == gbbs::dynamic::update_op::insert);
    }
  }
  std::sort(ops.begin(), ops.end());
  // Keep each edge whose last update inserts it, as its undirected_key().
  const std::uint64_t low = (std::uint64_t{1} << vb) - 1;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const std::uint64_t edge = ops[i] >> sb;
    if (i + 1 < ops.size() && ops[i + 1] >> sb == edge) continue;
    if (ops[i] & 1) ops[kept++] = ((edge >> vb) << 32) | (edge & low);
  }
  ops.resize(kept);
  return ops;
}

// Row-for-row equality with the symmetric graph on n vertices whose edges
// are `keys` (as expected_edges() returns them), read sequentially
// through out_neighbors() spans. (graph::map_out_neighbors forks above
// degree 1024, so a comparison that advances a shared cursor inside it is
// not a sequential scan.) Every row must be strictly increasing; its
// entries above the diagonal, in row order, must be exactly `keys`, and
// each entry below it must name one of `keys`. With 2 |keys| entries in
// all, every edge then appears in both its endpoints' rows and nothing
// else does.
template <typename View>
bool same_rows(const View& got, vertex_id n,
               const std::vector<std::uint64_t>& keys) {
  if (got.num_vertices() != n) return false;
  std::size_t next = 0, entries = 0;
  for (vertex_id v = 0; v < n; ++v) {
    const auto row = got.out_neighbors(v);
    entries += row.size();
    for (std::size_t i = 0; i < row.size(); ++i) {
      const vertex_id w = row[i];
      if (w == v || (i > 0 && !(row[i - 1] < w))) return false;
      if (v < w) {
        if (next == keys.size() || keys[next++] != undirected_key(v, w)) return false;
      } else if (!std::binary_search(keys.begin(), keys.end(), undirected_key(v, w))) {
        return false;
      }
    }
  }
  return next == keys.size() && entries == 2 * keys.size() &&
         got.num_edges() == entries;
}

// The final published version against the edges rebuilt from the seed
// plus the write stream, its components against a from-scratch
// connectivity(), and every cached answer among `sample` against a
// cache-free re-execution on that version.
template <typename Pinned>
void check_final_state(const Pinned& pin, vertex_id n,
                       const std::vector<std::uint64_t>& want,
                       gbbs::serve::result_cache& cache,
                       const std::vector<query>& sample, tally& t,
                       const char* workload) {
  const auto& view = pin.view();
  t.check(same_rows(view, n, want),
          (std::string(workload) + ": final version equals the reference")
              .c_str());
  const auto labels = pin.components().materialize(pin.num_vertices());
  t.check(gbbs::same_partition(labels, gbbs::connectivity(view)),
          (std::string(workload) + ": components equal connectivity()").c_str());
  std::size_t compared = 0;
  for (const auto& q : sample) {
    query_result cached;
    if (!cache.lookup(q, &cached)) continue;
    const query_result fresh = gbbs::serve::execute_query(pin, q);
    ++compared;
    t.check(cached.value == fresh.value && cached.list == fresh.list,
            (std::string(workload) + ": cached answer equals re-execution")
                .c_str());
  }
  std::printf("# %s: %zu cached answers re-executed without the cache\n",
              workload, compared);
  t.check(compared > 0,
          (std::string(workload) + ": some cached answers compared").c_str());
}

// Point-read kinds as named in the engine's serve.query.* histograms.
inline std::vector<std::string> query_histograms(const char* stage, bool point) {
  if (!point) return {std::string("serve.query.") + stage + ".bfs_distance"};
  std::vector<std::string> out;
  for (const char* k : {"degree", "neighbors", "connected", "component"}) {
    out.push_back(std::string("serve.query.") + stage + "." + k);
  }
  return out;
}

}  // namespace perfbench
