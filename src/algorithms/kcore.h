// k-core decomposition (Algorithm 13, Julienne): O(m + n) expected work and
// O(rho log n) depth w.h.p., where rho is the graph's peeling complexity.
//
// Vertices are bucketed by induced degree; each round peels the minimum
// bucket, assigns those vertices their coreness, and decreases the induced
// degree of surviving neighbors. Two implementations of the degree-update
// step (the subject of Table 6):
//   * kcore_variant::histogram — the low-contention histogram of Section 5,
//     specialised to k-core's keys. The round writes its peeled vertices'
//     surviving neighbor ids (4 bytes each) and partitions them by id range
//     (at most 2^8 ranges) in one counting pass. The task that owns a range
//     counts its ids into a persistent n-sized counter array, sets
//     deg = max(deg - removed, k), zeroes the counters it used and emits
//     the vertices that moved. No location is written by two tasks, so
//     nothing is atomic, and a round costs O(its peeled edges): no n-sized
//     pass, no (key, value) pairs, no sort. Rounds whose peeled edges fit
//     in one kEdgeBlock-edge block do the same counting on one thread.
//   * kcore_variant::fetch_and_add — the contended baseline: a direct
//     fetch-and-add per removed edge on the neighbor's degree counter, and
//     a test-and-set on persistent per-vertex flags to collect each touched
//     vertex once (the flags are reset after the round).
// Both variants read the peeled edges through the same blocked traversal,
// so Table 6 compares only the counting step.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "graph/bucketing.h"
#include "graph/graph.h"
#include "parlib/atomics.h"
#include "parlib/counters.h"
#include "parlib/parallel.h"
#include "parlib/sequence_ops.h"

namespace gbbs {

enum class kcore_variant { histogram, fetch_and_add };

struct kcore_result {
  std::vector<vertex_id> coreness;
  std::size_t num_rounds = 0;  // rho: number of peeling rounds
  vertex_id max_core = 0;      // kmax: degeneracy
};

namespace kcore_internal {

inline constexpr std::size_t kEdgeBlock = 4096;
inline constexpr std::size_t kMaxRanges = std::size_t{1} << 8;

// Scratch reused across rounds: grows to the largest round, never
// value-initialized (every round writes what it reads).
class round_buffer {
 public:
  vertex_id* get(std::size_t n) {
    if (n > cap_) {
      cap_ = std::max(n, 2 * cap_);
      buf_ = std::make_unique_for_overwrite<vertex_id[]>(cap_);
    }
    return buf_.get();
  }

 private:
  std::unique_ptr<vertex_id[]> buf_;
  std::size_t cap_ = 0;
};

// One round's peeled out-edges as one sequence (ids[i]'s edges at
// [offsets[i], offsets[i] + deg)), cut into kEdgeBlock-edge blocks as in
// the blocked edgeMap (Algorithm 15).
template <typename Graph>
class peeled_edges {
 public:
  peeled_edges(const Graph& g, const std::vector<vertex_id>& ids)
      : g_(g), ids_(ids), offsets_(parlib::map(ids, [&](vertex_id v) {
          return static_cast<std::uint64_t>(g.out_degree(v));
        })) {
    total_ = parlib::scan_inplace(offsets_);
  }

  std::uint64_t total() const { return total_; }
  std::size_t num_blocks() const {
    return parlib::num_blocks(total_, kEdgeBlock);
  }

  // f(u) for every edge of block b, in sequence order.
  template <typename F>
  void map_block(std::size_t b, const F& f) const {
    const std::uint64_t lo = b * kEdgeBlock;
    const std::uint64_t hi = std::min<std::uint64_t>(total_, lo + kEdgeBlock);
    std::size_t vi = static_cast<std::size_t>(
        std::upper_bound(offsets_.begin(), offsets_.end(), lo) -
        offsets_.begin() - 1);
    for (std::uint64_t e = lo; e < hi; ++vi) {
      const vertex_id v = ids_[vi];
      const std::uint64_t start = offsets_[vi];
      const std::uint64_t end = std::min<std::uint64_t>(
          hi, start + g_.out_degree(v));
      g_.map_out_neighbors_range(
          v, e - start, end - start,
          [&](vertex_id, vertex_id u, auto) { f(u); });
      e = end;
    }
  }

 private:
  const Graph& g_;
  const std::vector<vertex_id>& ids_;
  std::vector<std::uint64_t> offsets_;
  std::uint64_t total_ = 0;
};

}  // namespace kcore_internal

template <typename Graph>
kcore_result kcore(const Graph& g,
                   kcore_variant variant = kcore_variant::histogram) {
  using namespace kcore_internal;
  const vertex_id n = g.num_vertices();
  auto deg = parlib::tabulate<vertex_id>(n, [&](std::size_t v) {
    return g.out_degree(static_cast<vertex_id>(v));
  });
  std::vector<std::uint8_t> finished(n, 0);
  // Per-vertex scratch that is all-zero between rounds: removed-edge
  // counts (histogram) or touched flags (fetch_and_add).
  const bool histogram = variant == kcore_variant::histogram;
  std::vector<vertex_id> removed(histogram ? n : 0, 0);
  std::vector<std::uint8_t> touched(histogram ? 0 : n, 0);
  round_buffer nghs, part;
  // Id ranges of the histogram's partition: vertex u is in range u >> shift.
  unsigned shift = 0;
  while (n > 0 && static_cast<std::size_t>((n - 1) >> shift) >= kMaxRanges) {
    ++shift;
  }
  const std::size_t ranges = n > 0 ? ((n - 1) >> shift) + 1 : 0;

  auto bucket_of = [&](vertex_id v) -> bucket_id {
    return finished[v] ? kNullBucket : static_cast<bucket_id>(deg[v]);
  };
  auto buckets = make_buckets(n, bucket_of, bucket_order::increasing);

  kcore_result res;
  res.coreness.assign(n, 0);
  vertex_id k = 0;
  auto& ctr = parlib::event_counters::global();

  // Applies the `removed[u]` edges counted this round to u's induced
  // degree (clamped at k, the paper's max(newD, k)) and zeroes the count.
  // True iff u changes bucket.
  auto apply_removed = [&](vertex_id u) {
    const vertex_id c = removed[u];
    removed[u] = 0;
    const vertex_id induced = deg[u];
    if (induced <= k) return false;
    const vertex_id nd = std::max<vertex_id>(induced - c, k);
    deg[u] = nd;
    return buckets.get_bucket(induced, nd) != kNullBucket;
  };

  while (true) {
    auto [bkt, ids] = buckets.next_bucket();
    if (bkt == kNullBucket) break;
    ++res.num_rounds;
    k = std::max(k, static_cast<vertex_id>(bkt));
    parlib::parallel_for(0, ids.size(), [&](std::size_t i) {
      finished[ids[i]] = 1;
      res.coreness[ids[i]] = k;
    });
    const peeled_edges<Graph> edges(g, ids);
    const std::size_t nb = edges.num_blocks();

    // The vertices that change bucket: moved[0, num_moved).
    const vertex_id* moved = nullptr;
    std::size_t num_moved = 0;
    if (histogram) ctr.histogram_calls.fetch_add(1, std::memory_order_relaxed);
    if (histogram && nb <= 1) {
      // Distinct touched survivors into `out` in first-touch order, then
      // compacted in place to the ones that moved.
      vertex_id* out = part.get(edges.total());
      std::size_t touched_count = 0;
      for (std::size_t b = 0; b < nb; ++b) {
        edges.map_block(b, [&](vertex_id u) {
          if (!finished[u] && removed[u]++ == 0) out[touched_count++] = u;
        });
      }
      for (std::size_t i = 0; i < touched_count; ++i) {
        if (apply_removed(out[i])) out[num_moved++] = out[i];
      }
      moved = out;
    } else if (histogram) {
      // (1) Each block writes its surviving neighbor ids to its own
      // stretch of `nbr` and counts them per range.
      vertex_id* nbr = nghs.get(edges.total());
      auto counts = std::make_unique_for_overwrite<std::size_t[]>(nb * ranges);
      std::vector<std::size_t> live(nb);
      parlib::parallel_for(
          0, nb,
          [&](std::size_t b) {
            std::size_t* c = counts.get() + b * ranges;
            std::fill(c, c + ranges, std::size_t{0});
            vertex_id* o = nbr + b * kEdgeBlock;
            std::size_t kept = 0;
            edges.map_block(b, [&](vertex_id u) {
              if (finished[u]) return;
              o[kept++] = u;
              ++c[u >> shift];
            });
            live[b] = kept;
          },
          1);
      // (2) Per range, each block's offset inside the range's segment;
      // a scan over the range totals places the segments.
      std::vector<std::size_t> range_start(ranges + 1, 0);
      parlib::parallel_for(
          0, ranges,
          [&](std::size_t r) {
            std::size_t sum = 0;
            for (std::size_t b = 0; b < nb; ++b) {
              const std::size_t c = counts[b * ranges + r];
              counts[b * ranges + r] = sum;
              sum += c;
            }
            range_start[r] = sum;
          },
          1);
      const std::size_t num_live = parlib::scan_inplace(range_start);
      // (3) Scatter: stable, so each segment lists its ids block by block.
      vertex_id* seg = part.get(num_live);
      parlib::parallel_for(
          0, nb,
          [&](std::size_t b) {
            std::size_t* c = counts.get() + b * ranges;
            const vertex_id* in = nbr + b * kEdgeBlock;
            for (std::size_t i = 0; i < live[b]; ++i) {
              const std::size_t r = in[i] >> shift;
              seg[range_start[r] + c[r]++] = in[i];
            }
          },
          1);
      // (4) The owner of range r counts its segment, keeping each distinct
      // id once (in place), then applies the counts, keeping the movers.
      std::vector<std::size_t> moved_at(ranges + 1, 0);
      parlib::parallel_for(
          0, ranges,
          [&](std::size_t r) {
            const std::size_t lo = range_start[r], hi = range_start[r + 1];
            std::size_t distinct = lo;
            for (std::size_t i = lo; i < hi; ++i) {
              if (removed[seg[i]]++ == 0) seg[distinct++] = seg[i];
            }
            std::size_t kept = lo;
            for (std::size_t i = lo; i < distinct; ++i) {
              if (apply_removed(seg[i])) seg[kept++] = seg[i];
            }
            moved_at[r] = kept - lo;
          },
          1);
      num_moved = parlib::scan_inplace(moved_at);
      // `nbr` is free again: concatenate the movers there.
      vertex_id* out = nbr;
      parlib::parallel_for(
          0, ranges,
          [&](std::size_t r) {
            std::copy(seg + range_start[r],
                      seg + range_start[r] + (moved_at[r + 1] - moved_at[r]),
                      out + moved_at[r]);
          },
          1);
      moved = out;
    } else {
      // Contended baseline: FA per edge; the test-and-set winner of each
      // touched survivor records it in its block's stretch of `nbr`.
      vertex_id* nbr = nghs.get(edges.total());
      std::vector<std::size_t> live(nb + 1, 0);
      parlib::parallel_for(
          0, nb,
          [&](std::size_t b) {
            vertex_id* o = nbr + b * kEdgeBlock;
            std::size_t kept = 0;
            edges.map_block(b, [&](vertex_id u) {
              if (finished[u]) return;
              parlib::fetch_and_add<vertex_id>(&deg[u], vertex_id(-1));
              if (parlib::test_and_set(&touched[u])) o[kept++] = u;
            });
            live[b] = kept;
          },
          1);
      ctr.fetch_add_ops.fetch_add(edges.total(), std::memory_order_relaxed);
      num_moved = parlib::scan_inplace(live);
      vertex_id* out = part.get(num_moved);
      parlib::parallel_for(
          0, nb,
          [&](std::size_t b) {
            std::copy(nbr + b * kEdgeBlock,
                      nbr + b * kEdgeBlock + (live[b + 1] - live[b]),
                      out + live[b]);
          },
          1);
      parlib::parallel_for(0, num_moved, [&](std::size_t i) {
        const vertex_id v = out[i];
        touched[v] = 0;
        // FA may have driven deg below k; clamp (paper's max(newD, k)).
        deg[v] = std::max(deg[v], k);
      });
      moved = out;
    }
    buckets.update_buckets(num_moved, [&](std::size_t i) {
      return std::make_pair(moved[i], static_cast<bucket_id>(deg[moved[i]]));
    });
  }
  res.max_core = k;
  return res;
}

}  // namespace gbbs
