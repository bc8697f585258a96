// The parallel sequence primitives of Section 3: scan, reduce, map/tabulate,
// filter, pack, pack_index, map_maybe and flatten. All are work-efficient
// (O(n) work) and low-depth: they use the standard blocked two-pass scheme
// — a parallel pass computing per-block summaries, a (short) scan over the
// block summaries, and a parallel pass writing block-local results. With
// block count ~ n / BLOCK the summary scan is negligible, giving O(n) work
// and O(BLOCK + n/BLOCK) ~ polylog effective depth for the sizes we run.
//
// What is materialized: every compaction (filter, pack, pack_index,
// map_maybe) keeps only its output plus one count per block as scratch,
// never an n-sized index or flag array; map_maybe also stages each
// block's kept values before concatenating them.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "parlib/monoid.h"
#include "parlib/parallel.h"

namespace parlib {

template <typename T>
using sequence = std::vector<T>;

inline constexpr std::size_t kSeqBlockSize = 2048;

inline std::size_t num_blocks(std::size_t n, std::size_t block) {
  return n == 0 ? 0 : (n - 1) / block + 1;
}

// ---------------------------------------------------------------- tabulate

template <typename T, typename F>
sequence<T> tabulate(std::size_t n, const F& f) {
  sequence<T> out(n);
  parallel_for(0, n, [&](std::size_t i) { out[i] = f(i); });
  return out;
}

template <typename In, typename F>
auto map(const In& in, const F& f) {
  using T = std::decay_t<decltype(f(in[0]))>;
  return tabulate<T>(in.size(), [&](std::size_t i) { return f(in[i]); });
}

// ------------------------------------------------------------------ reduce

template <typename In, typename Monoid>
typename Monoid::value_type reduce(const In& in, const Monoid& m) {
  using T = typename Monoid::value_type;
  const std::size_t n = in.size();
  if (n == 0) return m.identity;
  const std::size_t nb = num_blocks(n, kSeqBlockSize);
  if (nb == 1) {
    T acc = m.identity;
    for (std::size_t i = 0; i < n; ++i) acc = m.combine(acc, in[i]);
    return acc;
  }
  sequence<T> sums(nb);
  parallel_for(
      0, nb,
      [&](std::size_t b) {
        const std::size_t lo = b * kSeqBlockSize;
        const std::size_t hi = std::min(n, lo + kSeqBlockSize);
        T acc = m.identity;
        for (std::size_t i = lo; i < hi; ++i) acc = m.combine(acc, in[i]);
        sums[b] = acc;
      },
      1);
  T acc = m.identity;
  for (std::size_t b = 0; b < nb; ++b) acc = m.combine(acc, sums[b]);
  return acc;
}

template <typename In>
auto reduce_add(const In& in) {
  using T = std::decay_t<decltype(in[0])>;
  return reduce(in, plus_monoid<T>());
}

template <typename In, typename F>
std::size_t count_if(const In& in, const F& pred) {
  const std::size_t n = in.size();
  const std::size_t nb = num_blocks(n, kSeqBlockSize);
  if (nb <= 1) {
    std::size_t c = 0;
    for (std::size_t i = 0; i < n; ++i) c += pred(in[i]) ? 1 : 0;
    return c;
  }
  sequence<std::size_t> sums(nb);
  parallel_for(
      0, nb,
      [&](std::size_t b) {
        const std::size_t lo = b * kSeqBlockSize;
        const std::size_t hi = std::min(n, lo + kSeqBlockSize);
        std::size_t c = 0;
        for (std::size_t i = lo; i < hi; ++i) c += pred(in[i]) ? 1 : 0;
        sums[b] = c;
      },
      1);
  std::size_t c = 0;
  for (std::size_t b = 0; b < nb; ++b) c += sums[b];
  return c;
}

// -------------------------------------------------------------------- scan

// Exclusive scan of `in` into `out` (which may alias `in`); returns the
// total. out[i] = id (+) in[0] (+) ... (+) in[i-1].
template <typename In, typename Out, typename Monoid>
typename Monoid::value_type scan_into(const In& in, Out& out,
                                      const Monoid& m) {
  using T = typename Monoid::value_type;
  const std::size_t n = in.size();
  if (n == 0) return m.identity;
  const std::size_t nb = num_blocks(n, kSeqBlockSize);
  if (nb == 1) {
    T acc = m.identity;
    for (std::size_t i = 0; i < n; ++i) {
      const T v = in[i];
      out[i] = acc;
      acc = m.combine(acc, v);
    }
    return acc;
  }
  sequence<T> sums(nb);
  parallel_for(
      0, nb,
      [&](std::size_t b) {
        const std::size_t lo = b * kSeqBlockSize;
        const std::size_t hi = std::min(n, lo + kSeqBlockSize);
        T acc = m.identity;
        for (std::size_t i = lo; i < hi; ++i) acc = m.combine(acc, in[i]);
        sums[b] = acc;
      },
      1);
  T total = m.identity;
  for (std::size_t b = 0; b < nb; ++b) {
    const T s = sums[b];
    sums[b] = total;
    total = m.combine(total, s);
  }
  parallel_for(
      0, nb,
      [&](std::size_t b) {
        const std::size_t lo = b * kSeqBlockSize;
        const std::size_t hi = std::min(n, lo + kSeqBlockSize);
        T acc = sums[b];
        for (std::size_t i = lo; i < hi; ++i) {
          const T v = in[i];
          out[i] = acc;
          acc = m.combine(acc, v);
        }
      },
      1);
  return total;
}

// Exclusive plus-scan in place; returns the total.
template <typename T>
T scan_inplace(sequence<T>& seq) {
  return scan_into(seq, seq, plus_monoid<T>());
}

template <typename In, typename Monoid>
std::pair<sequence<typename Monoid::value_type>,
          typename Monoid::value_type>
scan(const In& in, const Monoid& m) {
  sequence<typename Monoid::value_type> out(in.size());
  auto total = scan_into(in, out, m);
  return {std::move(out), total};
}

// --------------------------------------------------------------- flatten

template <typename T>
sequence<T> flatten(const sequence<sequence<T>>& seqs) {
  const std::size_t k = seqs.size();
  sequence<std::size_t> offsets(k);
  parallel_for(0, k, [&](std::size_t i) { offsets[i] = seqs[i].size(); });
  const std::size_t total = scan_inplace(offsets);
  sequence<T> out(total);
  parallel_for(0, k, [&](std::size_t i) {
    const auto& s = seqs[i];
    std::size_t off = offsets[i];
    for (std::size_t j = 0; j < s.size(); ++j) out[off + j] = s[j];
  });
  return out;
}

// ------------------------------------------------------------ filter/pack

// get(i) for every index i < n with keep(i), in order: the blocked
// compaction behind filter, pack and pack_index. A parallel pass counts
// the kept slots of each kSeqBlockSize block, a scan over the per-block
// counts gives each block its output offset, and a second parallel pass
// writes get(i) for every kept slot i. The only scratch is the
// n / kSeqBlockSize block counts. keep(i) runs twice per slot, so it must
// be pure.
template <typename T, typename Keep, typename Get>
sequence<T> compact(std::size_t n, const Keep& keep, const Get& get) {
  const std::size_t nb = num_blocks(n, kSeqBlockSize);
  if (nb <= 1) {
    sequence<T> out;
    for (std::size_t i = 0; i < n; ++i)
      if (keep(i)) out.push_back(get(i));
    return out;
  }
  sequence<std::size_t> counts(nb);
  parallel_for(
      0, nb,
      [&](std::size_t b) {
        const std::size_t lo = b * kSeqBlockSize;
        const std::size_t hi = std::min(n, lo + kSeqBlockSize);
        std::size_t c = 0;
        for (std::size_t i = lo; i < hi; ++i) c += keep(i) ? 1 : 0;
        counts[b] = c;
      },
      1);
  const std::size_t total = scan_inplace(counts);
  sequence<T> out(total);
  parallel_for(
      0, nb,
      [&](std::size_t b) {
        const std::size_t lo = b * kSeqBlockSize;
        const std::size_t hi = std::min(n, lo + kSeqBlockSize);
        std::size_t k = counts[b];
        for (std::size_t i = lo; i < hi; ++i)
          if (keep(i)) out[k++] = get(i);
      },
      1);
  return out;
}

// Returns elements of `in` satisfying `pred`, preserving order. pred runs
// twice per element.
template <typename In, typename F>
auto filter(const In& in, const F& pred) {
  using T = std::decay_t<decltype(in[0])>;
  return compact<T>(
      in.size(), [&](std::size_t i) { return pred(in[i]); },
      [&](std::size_t i) { return in[i]; });
}

// Keep in[i] where flags[i] is truthy.
template <typename In, typename Flags>
auto pack(const In& in, const Flags& flags) {
  using T = std::decay_t<decltype(in[0])>;
  assert(flags.size() == in.size());
  return compact<T>(
      in.size(), [&](std::size_t i) { return static_cast<bool>(flags[i]); },
      [&](std::size_t i) { return in[i]; });
}

// Indices i (as IdxT) where flags[i] is truthy.
template <typename IdxT, typename Flags>
sequence<IdxT> pack_index(const Flags& flags) {
  return compact<IdxT>(
      flags.size(),
      [&](std::size_t i) { return static_cast<bool>(flags[i]); },
      [](std::size_t i) { return static_cast<IdxT>(i); });
}

// Map f over in, keeping only engaged optionals. f runs exactly once per
// element (callers may update state in it), so each block stages its
// engaged results locally and flatten concatenates the blocks: the
// scratch is the staged kept values and one vector per block, never an
// n-sized array.
template <typename In, typename F>
auto map_maybe(const In& in, const F& f) {
  using Opt = std::decay_t<decltype(f(in[0]))>;
  using T = typename Opt::value_type;
  const std::size_t n = in.size();
  const std::size_t nb = num_blocks(n, kSeqBlockSize);
  if (nb <= 1) {
    sequence<T> out;
    for (std::size_t i = 0; i < n; ++i)
      if (Opt r = f(in[i])) out.push_back(std::move(*r));
    return out;
  }
  sequence<sequence<T>> blocks(nb);
  parallel_for(
      0, nb,
      [&](std::size_t b) {
        const std::size_t lo = b * kSeqBlockSize;
        const std::size_t hi = std::min(n, lo + kSeqBlockSize);
        for (std::size_t i = lo; i < hi; ++i)
          if (Opt r = f(in[i])) blocks[b].push_back(std::move(*r));
      },
      1);
  return flatten(blocks);
}

// iota
template <typename T>
sequence<T> iota(std::size_t n) {
  return tabulate<T>(n, [](std::size_t i) { return static_cast<T>(i); });
}

}  // namespace parlib
