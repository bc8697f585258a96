// Parallel CSR construction from edge lists: O(m) work on word-sized
// vertex ids (the integer-sort builder of Section 3), with no comparison
// sort of the whole list and no materialized reversal.
//
// A build turns each edge (u, v, w) into *entries* (row, neighbor, weight):
// the edge itself (forward), its reversal (reverse), or both. Symmetric
// builds take both, in the virtual order "every forward entry, then every
// reversal"; asymmetric builds run forward for the out-CSR and reverse
// for the in-CSR. The CSR is the entries stably sorted by (row, neighbor),
// minus self-loops, entries with an endpoint outside [0, n) and repeated
// (row, neighbor) pairs. Of a repeat, the first entry in virtual order
// keeps its weight ("first weight wins"). Three steps:
//   1. Count and scatter. A row's bucket is the row id without its low
//      row_bits bits: at most 2^11 buckets, ~16K entries each on average.
//      One blocked pass counts each block's entries per bucket. A
//      bucket-major scan of the block x bucket counts, parallel over
//      buckets, gives every block stable offsets. A second pass scatters
//      the entries into one key array. Both passes generate reversals on
//      the fly and skip self-loops and out-of-range endpoints.
//   2. Sort within each bucket. A bucket's entries fit in cache. A stable
//      LSD radix sort through a bucket-sized scratch takes two passes on
//      the neighbor's bits, then a counting sort on the row's low bits.
//      One pass per row then drops repeats, records the degree and
//      compacts the survivors to the front of the bucket's range. Buckets
//      run in parallel. A bucket above kParallelBucket entries (R-MAT's
//      first bucket holds millions, hub rows included) runs each radix
//      pass blocked in parallel and its rows in parallel. A bucket of at
//      most kSmallBucket entries is insertion-sorted instead.
//   3. Lay out. A parallel scan of the degrees gives the offsets, and each
//      bucket copies its survivors into the neighbor and weight arrays in
//      parallel. No step is sequential over n.
//
// Transient memory: the key array (one entry per in-range non-loop
// entry, 8 bytes plus the weight), O(blocks x buckets) counts, one
// bucket-sized scratch per bucket being sorted, and the output CSR. The
// input list is released right after the scatter when it is passed by
// value.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "parlib/parallel.h"
#include "parlib/sequence_ops.h"

namespace gbbs {

namespace internal {

// Which entries a build takes from each input edge.
enum class entries { forward, reverse, both };

inline constexpr std::size_t kMaxBucketBits = 11;     // see row_bits_for
inline constexpr std::size_t kMaxRowBits = 12;
inline constexpr std::size_t kBucketEntriesLog = 14;
// Blocked passes: at least kScatterBlock entries a block, and the input
// split into at most kMaxScatterBlocks blocks per orientation.
inline constexpr std::size_t kScatterBlock = std::size_t{1} << 14;
inline constexpr std::size_t kMaxScatterBlocks = 128;
// Buckets above kParallelBucket entries sort in parallel; buckets of at
// most kSmallBucket entries are insertion-sorted.
inline constexpr std::size_t kParallelBucket = std::size_t{1} << 16;
inline constexpr std::size_t kSmallBucket = 32;

// Bits of the largest vertex id, n - 1.
inline std::size_t id_bits_of(vertex_id n) {
  return n <= 1 ? 0 : std::bit_width(std::uint64_t{n} - 1);
}

// log2 of the rows per bucket: about 2^kBucketEntriesLog entries per
// bucket on average, but never more than 2^kMaxBucketBits buckets, and
// never more than 2^kMaxRowBits rows a bucket unless that bound forces it
// (sparse builds such as contraction's quotients then still spread their
// O(n) per-row work over many parallel buckets).
inline std::size_t row_bits_for(vertex_id n, std::size_t num_entries) {
  const std::size_t id_bits = id_bits_of(n);
  const std::size_t min_bits =
      id_bits > kMaxBucketBits ? id_bits - kMaxBucketBits : 0;
  std::size_t bits = std::min(id_bits, kMaxRowBits);
  while (bits > min_bits && (std::uint64_t{num_entries} << bits) >
                                (std::uint64_t{n} << kBucketEntriesLog)) {
    --bits;
  }
  return std::max(bits, min_bits);
}

// Stable counting sort of the entries for_each(b, f) yields (f(x) for each
// entry x of block b, blocks in order) by key(x) < num_keys. The counts
// are stored key-major, so both scans over them run in parallel over
// keys. alloc(total) returns the destination. Returns where each key's
// range starts (num_keys + 1 entries, the last the total).
template <typename ForEach, typename Key, typename Alloc>
std::vector<std::size_t> counting_scatter(std::size_t num_blocks,
                                          std::size_t num_keys,
                                          const ForEach& for_each,
                                          const Key& key,
                                          const Alloc& alloc) {
  // One block means the caller is already one task of a parallel loop.
  const std::size_t key_grain = num_blocks > 1 ? 0 : num_keys;
  std::vector<std::size_t> counts(num_keys * num_blocks);
  parlib::parallel_for(
      0, num_blocks,
      [&](std::size_t b) {
        // A lone block counts straight into the (then block-free) matrix.
        std::vector<std::size_t> local(num_blocks > 1 ? num_keys : 0, 0);
        std::size_t* c = num_blocks > 1 ? local.data() : counts.data();
        for_each(b, [&](const auto& x) { ++c[key(x)]; });
        for (std::size_t k = 0; k < local.size(); ++k) {
          counts[k * num_blocks + b] = c[k];
        }
      },
      1);
  std::vector<std::size_t> starts(num_keys + 1, 0);
  parlib::parallel_for(
      0, num_keys,
      [&](std::size_t k) {
        std::size_t total = 0;
        for (std::size_t b = 0; b < num_blocks; ++b) {
          total += counts[k * num_blocks + b];
        }
        starts[k] = total;
      },
      key_grain);
  auto* out = alloc(parlib::scan_inplace(starts));
  parlib::parallel_for(
      0, num_keys,
      [&](std::size_t k) {
        std::size_t next = starts[k];
        for (std::size_t b = 0; b < num_blocks; ++b) {
          const std::size_t c = counts[k * num_blocks + b];
          counts[k * num_blocks + b] = next;
          next += c;
        }
      },
      key_grain);
  parlib::parallel_for(
      0, num_blocks,
      [&](std::size_t b) {
        std::vector<std::size_t> local(num_blocks > 1 ? num_keys : 0);
        for (std::size_t k = 0; k < local.size(); ++k) {
          local[k] = counts[k * num_blocks + b];
        }
        std::size_t* next = num_blocks > 1 ? local.data() : counts.data();
        for_each(b, [&](const auto& x) { out[next[key(x)]++] = x; });
      },
      1);
  return starts;
}

// Copies the first entry of each neighbor of the sorted row a[0, d) to
// out, which may be a itself; returns how many.
template <typename W>
std::size_t unique_row(const edge<W>* a, std::size_t d, edge<W>* out) {
  std::size_t k = 0;
  for (std::size_t j = 0; j < d; ++j) {
    if (k == 0 || out[k - 1].v != a[j].v) out[k++] = a[j];
  }
  return k;
}

// Sorts the bucket a[0, s) of rows [r0, r0 + rows) by (row, neighbor),
// drops repeats, writes each row's degree to deg[0, rows) (zero on
// entry) and compacts the survivors to a[0, kept); returns kept. The sort is a stable LSD
// radix sort through a bucket-sized scratch: two passes on the
// neighbor's bits (four above 22 bits), then a counting sort on the row,
// whose ranges the repeat-dropping pass walks row by row.
template <typename W>
std::size_t sort_bucket(edge<W>* a, std::size_t s, vertex_id r0,
                        std::size_t rows, std::size_t id_bits,
                        edge_id* deg) {
  if (s <= kSmallBucket) {
    // A few entries (a sparse build's bucket): insertion sort by
    // (row, neighbor) in place, then drop repeats in place.
    for (std::size_t i = 1; i < s; ++i) {
      const edge<W> x = a[i];
      std::size_t j = i;
      for (; j > 0 && (x.u < a[j - 1].u ||
                       (x.u == a[j - 1].u && x.v < a[j - 1].v));
           --j) {
        a[j] = a[j - 1];
      }
      a[j] = x;
    }
    std::size_t kept = 0;
    for (std::size_t i = 0; i < s; ++i) {
      if (kept > 0 && a[kept - 1].u == a[i].u && a[kept - 1].v == a[i].v) {
        continue;
      }
      a[kept++] = a[i];
      ++deg[a[i].u - r0];
    }
    return kept;
  }
  std::unique_ptr<edge<W>[]> tmp(new edge<W>[s]);
  const bool par = s > kParallelBucket;
  // Blocks of at least `rows` entries keep the row pass's block x row
  // counts within O(s).
  const std::size_t block = par ? std::max(kScatterBlock, rows) : s;
  const std::size_t nb = parlib::num_blocks(s, block);
  auto pass = [&](const edge<W>* src, edge<W>* dst, std::size_t num_keys,
                  const auto& key) {
    return counting_scatter(
        nb, num_keys,
        [&](std::size_t b, auto&& f) {
          const std::size_t hi = std::min(s, (b + 1) * block);
          for (std::size_t i = b * block; i < hi; ++i) f(src[i]);
        },
        key, [&](std::size_t) { return dst; });
  };
  // An even number of neighbor passes leaves the entries back in a.
  const std::size_t ngh_passes = id_bits <= 22 ? 2 : 4;
  const std::size_t digit = (id_bits + ngh_passes - 1) / ngh_passes;
  edge<W>* src = a;
  edge<W>* dst = tmp.get();
  for (std::size_t p = 0; p < ngh_passes; ++p) {
    const std::size_t shift = p * digit;
    pass(src, dst, std::size_t{1} << digit, [shift, digit](const edge<W>& x) {
      return (x.v >> shift) & ((std::size_t{1} << digit) - 1);
    });
    std::swap(src, dst);
  }
  const auto row_start = pass(a, tmp.get(), rows, [r0](const edge<W>& x) {
    return static_cast<std::size_t>(x.u - r0);
  });
  if (!par) {
    // Survivors of rows before r end at or before row r's start.
    std::size_t kept = 0;
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t lo = row_start[r];
      deg[r] = unique_row(tmp.get() + lo, row_start[r + 1] - lo, a + kept);
      kept += deg[r];
    }
    return kept;
  }
  parlib::parallel_for(
      0, rows,
      [&](std::size_t r) {
        edge<W>* row = tmp.get() + row_start[r];
        deg[r] = unique_row(row, row_start[r + 1] - row_start[r], row);
      },
      1);
  std::vector<std::size_t> out(deg, deg + rows);
  out.push_back(0);
  const std::size_t kept = parlib::scan_inplace(out);
  parlib::parallel_for(
      0, rows,
      [&](std::size_t r) {
        const edge<W>* row = tmp.get() + row_start[r];
        std::copy(row, row + deg[r], a + out[r]);
      },
      1);
  return kept;
}

// Step 1's output: the entries grouped by bucket, in virtual order within
// each bucket.
template <typename W>
struct bucketed_entries {
  std::unique_ptr<edge<W>[]> keys;
  std::vector<std::size_t> starts;  // bucket k is keys[starts[k], starts[k+1])
  std::size_t row_bits = 0;
};

template <typename W>
bucketed_entries<W> scatter_entries(const std::vector<edge<W>>& edges,
                                    vertex_id n, entries which) {
  const std::size_t m = edges.size();
  const std::size_t passes = which == entries::both ? 2 : 1;
  bucketed_entries<W> out;
  out.row_bits = row_bits_for(n, passes * m);
  const std::size_t shift = out.row_bits;
  const std::size_t num_buckets =
      n == 0 ? 0 : ((std::size_t{n} - 1) >> shift) + 1;
  const std::size_t block = std::max(
      kScatterBlock, (m + kMaxScatterBlocks - 1) / kMaxScatterBlocks);
  const std::size_t nb = parlib::num_blocks(m, block);
  // Virtual block vb yields input block vb % nb: forward for vb < nb
  // unless which == reverse, reversed for the second pass of both.
  auto for_each = [&](std::size_t vb, auto&& f) {
    const bool rev = which == entries::reverse || vb >= nb;
    const std::size_t lo = (vb % nb) * block;
    const std::size_t hi = std::min(m, lo + block);
    for (std::size_t i = lo; i < hi; ++i) {
      const edge<W>& e = edges[i];
      if (e.u >= n || e.v >= n || e.u == e.v) continue;
      f(rev ? edge<W>{e.v, e.u, e.w} : e);
    }
  };
  out.starts = counting_scatter(
      passes * nb, num_buckets, for_each,
      [shift](const edge<W>& x) { return x.u >> shift; },
      [&](std::size_t total) {
        out.keys.reset(new edge<W>[total]);
        return out.keys.get();
      });
  return out;
}

// Steps 2 and 3: the CSR arrays of scattered entries; returns the number
// of edges.
template <typename W>
edge_id csr_from_entries(bucketed_entries<W> b, vertex_id n,
                         std::vector<edge_id>& offsets,
                         std::vector<vertex_id>& nghs,
                         std::vector<W>& wghs) {
  const std::size_t num_buckets = b.starts.size() - 1;
  const std::size_t bucket_rows = std::size_t{1} << b.row_bits;
  const std::size_t id_bits = id_bits_of(n);
  // Degrees first; the scan turns them into offsets in place.
  offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  std::vector<std::size_t> kept(num_buckets, 0);
  parlib::parallel_for(
      0, num_buckets,
      [&](std::size_t k) {
        const std::size_t lo = b.starts[k];
        const std::size_t r0 = k << b.row_bits;
        if (b.starts[k + 1] == lo) return;
        kept[k] = sort_bucket(b.keys.get() + lo, b.starts[k + 1] - lo,
                              static_cast<vertex_id>(r0),
                              std::min(bucket_rows, std::size_t{n} - r0),
                              id_bits, offsets.data() + r0);
      },
      1);
  const edge_id m = parlib::scan_inplace(offsets);
  nghs.resize(m);
  if constexpr (!std::is_same_v<W, empty_weight>) wghs.resize(m);
  parlib::parallel_for(
      0, num_buckets,
      [&](std::size_t k) {
        const edge<W>* src = b.keys.get() + b.starts[k];
        const edge_id dst = offsets[k << b.row_bits];
        parlib::parallel_for(
            0, kept[k],
            [&](std::size_t i) {
              nghs[dst + i] = src[i].v;
              if constexpr (!std::is_same_v<W, empty_weight>) {
                wghs[dst + i] = src[i].w;
              }
            },
            kParallelBucket);
      },
      1);
  return m;
}

// Scatter, release the input, sort and lay out.
template <typename W>
edge_id csr_from_edges(std::vector<edge<W>> edges, vertex_id n,
                       entries which, std::vector<edge_id>& offsets,
                       std::vector<vertex_id>& nghs, std::vector<W>& wghs) {
  auto b = scatter_entries(edges, n, which);
  std::vector<edge<W>>().swap(edges);
  return csr_from_entries(std::move(b), n, offsets, nghs, wghs);
}

}  // namespace internal

// Build an undirected (symmetric) graph: every input edge is inserted in
// both directions, then cleaned. m counts directed edge slots (2x the number
// of undirected edges), matching the paper's convention for -Sym graphs.
template <typename W>
graph<W> build_symmetric_graph(vertex_id n, std::vector<edge<W>> edges) {
  std::vector<edge_id> offsets;
  std::vector<vertex_id> nghs;
  std::vector<W> wghs;
  const edge_id m = internal::csr_from_edges(
      std::move(edges), n, internal::entries::both, offsets, nghs, wghs);
  return graph<W>(n, m, /*symmetric=*/true, std::move(offsets),
                  std::move(nghs), std::move(wghs));
}

// Build a directed (asymmetric) graph with both out- and in-CSR: the
// out-CSR keyed by source, the in-CSR by target, from the same list.
template <typename W>
graph<W> build_asymmetric_graph(vertex_id n, std::vector<edge<W>> edges) {
  std::vector<edge_id> out_off, in_off;
  std::vector<vertex_id> out_ngh, in_ngh;
  std::vector<W> out_w, in_w;
  const edge_id m = internal::csr_from_entries(
      internal::scatter_entries(edges, n, internal::entries::forward), n,
      out_off, out_ngh, out_w);
  internal::csr_from_edges(std::move(edges), n, internal::entries::reverse,
                           in_off, in_ngh, in_w);
  return graph<W>(n, m, /*symmetric=*/false, std::move(out_off),
                  std::move(out_ngh), std::move(out_w), std::move(in_off),
                  std::move(in_ngh), std::move(in_w));
}

// Keep edges (u, ngh, w) with pred(u, ngh, w); returns a static CSR graph.
// This is the rebuild form of Ligra+'s pack (Section B) — used to direct
// graphs by degree for triangle counting and to drop matched / shortcut
// edges in MM and MSF. The source may be any graph_view model (a live
// dynamic graph or an overlay-fused serving view included): filtering
// reads only out-neighborhoods, so e.g. triangle counting on a dynamic
// view builds its rank-directed DAG straight from base ⊕ overlay without
// ever materializing the merged CSR.
template <typename G, typename F>
graph<typename G::weight_type> filter_graph(const G& g, const F& pred) {
  using W = typename G::weight_type;
  const vertex_id n = g.num_vertices();
  auto degs = parlib::tabulate<edge_id>(n, [&](std::size_t v) {
    return g.count_out(static_cast<vertex_id>(v), pred);
  });
  std::vector<edge_id> offsets(static_cast<std::size_t>(n) + 1);
  edge_id total = 0;
  {
    std::vector<edge_id> tmp = degs;
    total = parlib::scan_inplace(tmp);
    parlib::parallel_for(0, n, [&](std::size_t v) { offsets[v] = tmp[v]; });
    offsets[n] = total;
  }
  std::vector<vertex_id> nghs(total);
  std::vector<W> wghs;
  if constexpr (!std::is_same_v<W, empty_weight>) wghs.resize(total);
  parlib::parallel_for(0, n, [&](std::size_t v) {
    std::size_t k = offsets[v];
    g.map_out_neighbors_early_exit(static_cast<vertex_id>(v),
                       [&](vertex_id u, vertex_id ngh, W w) {
                         if (pred(u, ngh, w)) {
                           nghs[k] = ngh;
                           if constexpr (!std::is_same_v<W, empty_weight>) {
                             wghs[k] = w;
                           }
                           ++k;
                         }
                         return true;
                       });
  });
  // The filtered graph is generally not symmetric even if g was; we build it
  // as out-CSR-only and mark it symmetric so in_* calls alias out_*.
  // Callers (TC) only use out-neighborhoods.
  return graph<W>(n, total, /*symmetric=*/true, std::move(offsets),
                  std::move(nghs), std::move(wghs));
}

}  // namespace gbbs
