// Julienne's bucketing structure (Dhulipala, Blelloch, Shun, SPAA'17),
// which the paper's wBFS, k-core, and approximate set cover build on.
//
// The structure maintains, for identifiers 0..n-1, a mapping into dynamic
// buckets, processed in increasing (wBFS, k-core) or decreasing (set cover)
// order. A window of `open_buckets` buckets is materialized around the
// cursor plus a single overflow bucket; when the window is exhausted the
// overflow is redistributed around the next live bucket.
//
// Deletion is lazy: moving an identifier inserts a new copy and leaves the
// old one behind; next_bucket filters each popped bucket against the
// client's current-bucket function, so stale copies (old bucket, or
// finished identifiers mapping to null_bucket) evaporate. Clients must
// (a) report the *current* bucket of every unfinished identifier and
// null_bucket for finished ones, and (b) not insert an identifier twice
// into the same bucket between pops (both algorithms guarantee this by
// only reporting *changed* buckets — see get_bucket).
//
// The overflow can still hold several copies of one identifier (one per
// move that landed beyond the window). Redistribution keeps the first:
// every copy priority-writes (min) its position into a persistent
// per-identifier mark, the copy whose position won survives, and the
// survivors' marks are reset. That is O(overflow) work, and the result —
// first occurrences in overflow order — does not depend on the worker
// count. update_buckets appends in input order, so a client that
// reports its moves in a deterministic order gets a deterministic pop
// sequence, identifier order included.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "parlib/atomics.h"
#include "parlib/cancellation.h"
#include "parlib/parallel.h"
#include "parlib/sequence_ops.h"

namespace gbbs {

using bucket_id = std::uint32_t;
inline constexpr bucket_id kNullBucket = std::numeric_limits<bucket_id>::max();

enum class bucket_order { increasing, decreasing };

template <typename D>  // D: vertex_id -> bucket_id (current bucket or null)
class buckets {
 public:
  buckets(vertex_id n, D d, bucket_order order,
          std::size_t open_buckets = 128)
      : d_(std::move(d)), order_(order), open_(open_buckets), n_(n),
        bkts_(open_buckets + 1) {
    // Seed the window at the extreme live bucket in traversal order.
    auto live = parlib::compact<vertex_id>(
        n,
        [&](std::size_t v) {
          return d_(static_cast<vertex_id>(v)) != kNullBucket;
        },
        [](std::size_t v) { return static_cast<vertex_id>(v); });
    if (live.empty()) return;
    reseed(live);
  }

  // Number of bucket pops performed so far (the paper's rho for k-core).
  std::size_t num_rounds() const { return rounds_; }

  // Pop the next non-empty bucket in traversal order. Returns
  // {kNullBucket, {}} when the structure is empty.
  std::pair<bucket_id, std::vector<vertex_id>> next_bucket() {
    while (true) {
      // Cancellation / deadline poll once per pop attempt: a cancelled
      // bucketed computation (k-core, wBFS, set cover) sees an "empty"
      // structure and terminates its driver loop; the partial result is the
      // caller's to discard.
      if (parlib::cancel::poll()) return {kNullBucket, {}};
      while (in_window(cur_)) {
        auto& vec = bkts_[slot_of(cur_)];
        if (!vec.empty()) {
          auto live = parlib::filter(vec, [&](vertex_id v) {
            return d_(v) == static_cast<bucket_id>(cur_);
          });
          vec.clear();
          if (!live.empty()) {
            ++rounds_;
            return {static_cast<bucket_id>(cur_), std::move(live)};
          }
        }
        advance(cur_);
      }
      // Window exhausted: redistribute overflow around the next live bucket.
      auto overflow = std::move(bkts_[open_]);
      bkts_[open_].clear();
      auto live = parlib::filter(overflow, [&](vertex_id v) {
        return d_(v) != kNullBucket;
      });
      // All copies of a live identifier agree on d_(v); keep only the
      // first, or a bucket could pop the same identifier twice and clients
      // like k-core would double-count its edges.
      if (live.size() > 1) live = first_copies(live);
      if (live.empty()) return {kNullBucket, {}};
      reseed(live);
    }
  }

  // Move identifiers to new (absolute) buckets: get(i) for i < count
  // returns the i-th (identifier, bucket) pair and must be pure (it runs
  // twice per pair above one block). Pairs with kNullBucket are ignored.
  // The client's d must already reflect the new buckets. Each slot
  // receives its identifiers in input order.
  template <typename F>
  void update_buckets(std::size_t count, const F& get) {
    if (count <= parlib::kSeqBlockSize) {
      for (std::size_t i = 0; i < count; ++i) {
        const auto [v, b] = get(i);
        if (b != kNullBucket) bkts_[slot_of(b)].push_back(v);
      }
      return;
    }
    // A counting pass per block of pairs, a per-slot scan over the blocks
    // (which also grows each slot once), and a scatter straight into the
    // slots.
    const std::size_t slots = open_ + 1;
    const std::size_t nb = parlib::num_blocks(count, parlib::kSeqBlockSize);
    auto offsets = std::make_unique_for_overwrite<std::size_t[]>(nb * slots);
    auto for_block = [&](std::size_t blk, const auto& f) {
      const std::size_t lo = blk * parlib::kSeqBlockSize;
      const std::size_t hi = std::min(count, lo + parlib::kSeqBlockSize);
      for (std::size_t i = lo; i < hi; ++i) {
        const auto [v, b] = get(i);
        if (b != kNullBucket) f(v, slot_of(b));
      }
    };
    parlib::parallel_for(
        0, nb,
        [&](std::size_t blk) {
          std::size_t* c = offsets.get() + blk * slots;
          std::fill(c, c + slots, std::size_t{0});
          for_block(blk, [&](vertex_id, std::size_t s) { ++c[s]; });
        },
        1);
    parlib::parallel_for(
        0, slots,
        [&](std::size_t s) {
          std::size_t end = bkts_[s].size();
          for (std::size_t blk = 0; blk < nb; ++blk) {
            const std::size_t c = offsets[blk * slots + s];
            offsets[blk * slots + s] = end;
            end += c;
          }
          bkts_[s].resize(end);
        },
        1);
    parlib::parallel_for(
        0, nb,
        [&](std::size_t blk) {
          std::size_t* o = offsets.get() + blk * slots;
          for_block(blk,
                    [&](vertex_id v, std::size_t s) { bkts_[s][o[s]++] = v; });
        },
        1);
  }

  void update_buckets(
      const std::vector<std::pair<vertex_id, bucket_id>>& updates) {
    update_buckets(updates.size(), [&](std::size_t i) { return updates[i]; });
  }

  // Destination bucket for an identifier whose bucket changed from prev to
  // next; kNullBucket when unchanged (so no duplicate insertion happens).
  static bucket_id get_bucket(bucket_id prev, bucket_id next) {
    return prev == next ? kNullBucket : next;
  }

 private:
  bool in_window(std::int64_t b) const {
    if (order_ == bucket_order::increasing) {
      return b < base_ + static_cast<std::int64_t>(open_);
    }
    return b > base_ - static_cast<std::int64_t>(open_) && b >= 0;
  }

  void advance(std::int64_t& b) const {
    b += order_ == bucket_order::increasing ? 1 : -1;
  }

  // Slot of an absolute bucket id: window-relative position, clamping ids
  // behind the cursor to the cursor (can only happen through client races
  // that both algorithms exclude; clamping keeps the structure safe), and
  // everything beyond the window into the overflow slot open_.
  std::size_t slot_of(std::int64_t b) const {
    std::int64_t rel;
    if (order_ == bucket_order::increasing) {
      if (b < cur_) b = cur_;
      rel = b - base_;
    } else {
      if (b > cur_) b = cur_;
      rel = base_ - b;
    }
    return rel < static_cast<std::int64_t>(open_)
               ? static_cast<std::size_t>(rel)
               : open_;
  }

  // Re-center the window on the extreme bucket of `live` and insert it.
  void reseed(const std::vector<vertex_id>& live) {
    auto bks = parlib::map(live, [&](vertex_id v) {
      return static_cast<std::int64_t>(d_(v));
    });
    base_ = order_ == bucket_order::increasing
                ? parlib::reduce(bks, parlib::min_monoid<std::int64_t>())
                : parlib::reduce(bks, parlib::max_monoid<std::int64_t>());
    cur_ = base_;
    update_buckets(live.size(), [&](std::size_t i) {
      return std::make_pair(live[i], d_(live[i]));
    });
  }

  // The first copy of every identifier in `ids`, in order: each copy
  // write_min's its position into first_pos_, the copies whose position
  // stands are kept, and the kept identifiers' marks are reset.
  std::vector<vertex_id> first_copies(const std::vector<vertex_id>& ids) {
    constexpr std::size_t kUnmarked = std::numeric_limits<std::size_t>::max();
    if (!first_pos_) {
      first_pos_ = std::make_unique_for_overwrite<std::size_t[]>(n_);
      parlib::parallel_for(0, n_,
                           [&](std::size_t v) { first_pos_[v] = kUnmarked; });
    }
    parlib::parallel_for(0, ids.size(), [&](std::size_t i) {
      parlib::write_min(&first_pos_[ids[i]], i);
    });
    auto kept = parlib::compact<vertex_id>(
        ids.size(), [&](std::size_t i) { return first_pos_[ids[i]] == i; },
        [&](std::size_t i) { return ids[i]; });
    parlib::parallel_for(0, kept.size(), [&](std::size_t i) {
      first_pos_[kept[i]] = kUnmarked;
    });
    return kept;
  }

  D d_;
  bucket_order order_;
  std::size_t open_;
  vertex_id n_;
  // Overflow dedup marks, allocated at the first redistribution and kept
  // all-unmarked between redistributions.
  std::unique_ptr<std::size_t[]> first_pos_;
  std::vector<std::vector<vertex_id>> bkts_;  // open_ window slots + overflow
  std::int64_t base_ = 0;
  std::int64_t cur_ = 0;
  std::size_t rounds_ = 0;
};

template <typename D>
buckets<D> make_buckets(vertex_id n, D d, bucket_order order,
                        std::size_t open_buckets = 128) {
  return buckets<D>(n, std::move(d), order, open_buckets);
}

}  // namespace gbbs
