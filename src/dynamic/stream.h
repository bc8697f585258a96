// Replayable edge streams: feed a fixed edge list to the batch-dynamic
// subsystem in configurable batch sizes, optionally interleaving erases of
// previously-delivered edges (a deletion-heavy adversary for the
// connectivity tracker's rebuild path). Deterministic given the edge list
// and seed — the same stream can be replayed at several batch sizes and
// must produce the same final graph.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "dynamic/update_batch.h"
#include "graph/graph.h"
#include "graph/undirected_edges.h"
#include "parlib/random.h"
#include "parlib/sequence_ops.h"

namespace gbbs::dynamic {

template <typename W>
class edge_stream {
 public:
  explicit edge_stream(std::vector<edge<W>> edges)
      : edges_(std::move(edges)) {}

  bool done() const { return pos_ >= edges_.size(); }
  std::size_t remaining() const { return edges_.size() - pos_; }
  std::size_t delivered() const { return pos_; }

  // The next up-to-batch_size edges as raw insert updates.
  std::vector<update<W>> next_inserts(std::size_t batch_size) {
    const std::size_t lo = pos_;
    const std::size_t hi = std::min(edges_.size(), lo + batch_size);
    pos_ = hi;
    return parlib::tabulate<update<W>>(hi - lo, [&](std::size_t i) {
      const auto& e = edges_[lo + i];
      return update<W>{e.u, e.v, e.w, update_op::insert};
    });
  }

  // A sample of `count` erase updates drawn (with replacement) from the
  // already-delivered prefix; empty if nothing was delivered yet.
  std::vector<update<W>> sample_erases(std::size_t count,
                                       parlib::random rng) const {
    if (pos_ == 0) return {};
    return parlib::tabulate<update<W>>(count, [&](std::size_t i) {
      const auto& e = edges_[rng.ith_rand(i) % pos_];
      return update<W>{e.u, e.v, e.w, update_op::erase};
    });
  }

  const std::vector<edge<W>>& edges() const { return edges_; }

 private:
  std::vector<edge<W>> edges_;
  std::size_t pos_ = 0;
};

// Canonical undirected stream from a symmetric graph: each edge once,
// u < v (the dynamic graph re-mirrors on apply).
template <typename G>
std::vector<edge<typename G::weight_type>> undirected_stream_edges(
    const G& g) {
  return undirected_edges(g);
}

}  // namespace gbbs::dynamic
