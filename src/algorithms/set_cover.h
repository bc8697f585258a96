// Approximate set cover (Algorithm 14, Blelloch-Peng-Tangwongsan via
// Julienne): O(m) expected work, O(log^3 n) depth w.h.p. on the PW-MT-RAM,
// producing an O(log n)-approximation.
//
// The instance is a bipartite graph: sets are vertices [0, num_sets),
// elements are [num_sets, n). Sets are bucketed by floor(log_{1+eps} deg)
// and processed from the highest bucket. The routine reads the caller's
// graph once, to pack the set rows (only those: element rows are never
// read) into its own element array, filled in parallel into an
// uninitialized buffer; the caller's graph is not modified. Each round
// packs covered elements out of the popped sets' rows in place, splits the
// sets into those still at the bucket's threshold (SC) and those to
// rebucket (SR), and runs one MaNIS step on SC: every set writes a random
// priority to its remaining elements with priority-write(min); sets that
// win at least ceil((1+eps)^(b-1)) elements join the cover.
//
// Per Section 4/6, the priorities of the active sets are REGENERATED every
// round (a fresh random permutation). The `regenerate_priorities = false`
// baseline reuses static vertex-id priorities, reproducing the pathology
// the paper reports on meshes/tori (up to 56x slower on 3D-Torus).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "graph/bucketing.h"
#include "graph/graph.h"
#include "parlib/atomics.h"
#include "parlib/parallel.h"
#include "parlib/random.h"
#include "parlib/sequence_ops.h"

namespace gbbs {

struct set_cover_options {
  double epsilon = 0.01;
  bool regenerate_priorities = true;  // the paper's fix; false = baseline
  parlib::random rng = parlib::random(0x5e7c);
};

struct set_cover_result {
  std::vector<vertex_id> cover;  // chosen set ids
  std::size_t num_rounds = 0;
};

template <typename Graph>
set_cover_result set_cover(const Graph& g, vertex_id num_sets,
                           set_cover_options opts = {}) {
  const vertex_id n = g.num_vertices();
  const double one_eps = 1.0 + opts.epsilon;
  auto bucket_of_deg = [&](vertex_id d) -> bucket_id {
    if (d == 0) return kNullBucket;
    return static_cast<bucket_id>(
        std::ceil(std::log(static_cast<double>(d)) / std::log(one_eps)));
  };
  auto threshold_of_bucket = [&](bucket_id b) -> vertex_id {
    const double t = std::pow(one_eps, b > 0 ? b - 1 : 0);
    return static_cast<vertex_id>(std::ceil(t));
  };

  // Set s's uncovered elements are elems[first[s], first[s] + deg[s]);
  // packing shrinks deg[s].
  auto deg = parlib::tabulate<vertex_id>(num_sets, [&](std::size_t s) {
    return g.out_degree(static_cast<vertex_id>(s));
  });
  std::vector<edge_id> first(num_sets);
  const edge_id total =
      parlib::scan_into(deg, first, parlib::plus_monoid<edge_id>());
  auto elems = std::make_unique_for_overwrite<vertex_id[]>(total);
  parlib::parallel_for(0, num_sets, [&](std::size_t s) {
    vertex_id* row = elems.get() + first[s];
    g.map_out_neighbors_early_exit(
        static_cast<vertex_id>(s), [&](vertex_id, vertex_id e, auto) {
          *row++ = e;
          return true;
        });
  });
  // f(e) over set s's elements; in parallel for long rows.
  auto map_elems = [&](vertex_id s, const auto& f) {
    const vertex_id* row = elems.get() + first[s];
    const vertex_id d = deg[s];
    if (d > 1024) {
      parlib::parallel_for(0, d, [&](std::size_t j) { f(row[j]); });
    } else {
      for (vertex_id j = 0; j < d; ++j) f(row[j]);
    }
  };

  // covered[e] for elements; elt_winner[e] = priority-packed winning set.
  constexpr std::uint64_t kNoWinner = ~std::uint64_t{0};
  std::vector<std::uint8_t> covered(n, 0);
  std::vector<std::uint8_t> in_cover(num_sets, 0);
  std::vector<std::uint64_t> elt_winner(n, kNoWinner);

  std::vector<bucket_id> set_bucket(num_sets);
  parlib::parallel_for(0, num_sets, [&](std::size_t s) {
    set_bucket[s] = bucket_of_deg(deg[s]);
  });
  auto bucket_of = [&](vertex_id s) -> bucket_id { return set_bucket[s]; };
  auto buckets = make_buckets(num_sets, bucket_of, bucket_order::decreasing);

  set_cover_result res;
  std::size_t round_id = 0;
  while (true) {
    auto [bkt, sets] = buckets.next_bucket();
    if (bkt == kNullBucket) break;
    ++res.num_rounds;
    ++round_id;

    // Pack out covered elements; recompute degrees.
    parlib::parallel_for(0, sets.size(), [&](std::size_t i) {
      const vertex_id s = sets[i];
      vertex_id* row = elems.get() + first[s];
      vertex_id kept = 0;
      for (vertex_id j = 0; j < deg[s]; ++j) {
        if (!covered[row[j]]) row[kept++] = row[j];
      }
      deg[s] = kept;
    });
    const vertex_id thresh = threshold_of_bucket(static_cast<bucket_id>(bkt));
    auto still_high = parlib::tabulate<std::uint8_t>(
        sets.size(), [&](std::size_t i) {
          return static_cast<std::uint8_t>(deg[sets[i]] >= thresh);
        });
    auto sc = parlib::pack(sets, still_high);
    auto sr = parlib::pack(sets, parlib::map(still_high, [](std::uint8_t b) {
                             return static_cast<std::uint8_t>(!b);
                           }));

    // MaNIS step over SC with (optionally regenerated) random priorities.
    std::vector<std::uint64_t> pri(sc.size());
    if (opts.regenerate_priorities) {
      auto perm = parlib::random_permutation(
          sc.size(), opts.rng.fork(round_id));
      parlib::parallel_for(0, sc.size(), [&](std::size_t i) {
        pri[i] = (static_cast<std::uint64_t>(perm[i]) << 32) | sc[i];
      });
    } else {
      parlib::parallel_for(0, sc.size(), [&](std::size_t i) {
        pri[i] = (static_cast<std::uint64_t>(sc[i]) << 32) | sc[i];
      });
    }
    parlib::parallel_for(0, sc.size(), [&](std::size_t i) {
      map_elems(sc[i], [&](vertex_id e) {
        parlib::write_min(&elt_winner[e], pri[i]);
      });
    });
    // Sets that acquired >= thresh elements join the cover.
    std::vector<std::uint8_t> won(sc.size(), 0);
    parlib::parallel_for(0, sc.size(), [&](std::size_t i) {
      const vertex_id* row = elems.get() + first[sc[i]];
      const std::size_t acquired = static_cast<std::size_t>(
          std::count_if(row, row + deg[sc[i]],
                        [&](vertex_id e) { return elt_winner[e] == pri[i]; }));
      if (acquired >= thresh) won[i] = 1;
    });
    parlib::parallel_for(0, sc.size(), [&](std::size_t i) {
      if (!won[i]) return;
      in_cover[sc[i]] = 1;
      set_bucket[sc[i]] = kNullBucket;  // done
      map_elems(sc[i], [&](vertex_id e) {
        if (elt_winner[e] == pri[i]) covered[e] = 1;
      });
    });
    // Reset priority slots of elements that stayed uncovered.
    parlib::parallel_for(0, sc.size(), [&](std::size_t i) {
      map_elems(sc[i], [&](vertex_id e) {
        if (!covered[e]) parlib::atomic_store(&elt_winner[e], kNoWinner);
      });
    });
    // Rebucket losers and shrunken sets.
    auto losers = parlib::pack(
        sc, parlib::map(won, [](std::uint8_t w) {
          return static_cast<std::uint8_t>(!w);
        }));
    std::vector<std::pair<vertex_id, bucket_id>> updates;
    updates.reserve(losers.size() + sr.size());
    auto add_updates = [&](const std::vector<vertex_id>& vs) {
      const std::size_t old = updates.size();
      updates.resize(old + vs.size());
      parlib::parallel_for(0, vs.size(), [&](std::size_t i) {
        const vertex_id s = vs[i];
        // Losers keep their degree but must re-run (possibly same bucket):
        // clamp to one below the current bucket to guarantee progress.
        bucket_id nb = bucket_of_deg(deg[s]);
        if (nb != kNullBucket && nb >= static_cast<bucket_id>(bkt) &&
            bkt > 0) {
          nb = static_cast<bucket_id>(bkt);
        }
        set_bucket[s] = nb;
        updates[old + i] = {s, nb};
      });
    };
    add_updates(losers);
    add_updates(sr);
    buckets.update_buckets(updates);
  }

  res.cover = parlib::pack_index<vertex_id>(in_cover);
  return res;
}

}  // namespace gbbs
