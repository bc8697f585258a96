// Shared-ownership CSR storage (graph.h) and its serving-layer contract:
//   * graph<W> copies share one refcounted CSR block (O(1) copy);
//   * publish shares the merged CSR between the published version and the
//     dynamic graph's new base — zero post-merge copies — and an
//     empty-overlay publish allocates no CSR at all (O(1));
//   * lifetime: the arrays outlive the writer — a reader holding a pinned
//     snapshot (or a graph copied out of one) keeps reading after the
//     snapshot_manager, its store, and the dynamic graph are destroyed;
//     concurrently with publishes, under TSan.
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/bfs.h"
#include "algorithms/connectivity.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "serve/query.h"
#include "serve/snapshot_manager.h"
#include "serve/snapshot_store.h"

namespace {

using gbbs::edge;
using gbbs::empty_weight;
using gbbs::vertex_id;
using gbbs::serve::pinned_snapshot;
using gbbs::serve::snapshot_manager;

using uw_edge = edge<empty_weight>;
using uw_update = gbbs::dynamic::update<empty_weight>;

std::vector<uw_update> inserts(const std::vector<uw_edge>& edges) {
  std::vector<uw_update> ups;
  ups.reserve(edges.size());
  for (const auto& e : edges) {
    ups.push_back({e.u, e.v, {}, gbbs::dynamic::update_op::insert});
  }
  return ups;
}

template <typename G1, typename G2>
void expect_same_csr(const G1& a, const G2& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (vertex_id v = 0; v < a.num_vertices(); ++v) {
    auto na = a.out_neighbors(v);
    auto nb = b.out_neighbors(v);
    ASSERT_EQ(na.size(), nb.size()) << "degree of " << v;
    for (std::size_t j = 0; j < na.size(); ++j) {
      ASSERT_EQ(na[j], nb[j]) << "neighbor " << j << " of " << v;
    }
  }
}

// ---- copy / COW semantics -------------------------------------------------

TEST(SharedCsr, CopySharesStorage) {
  auto g = gbbs::build_symmetric_graph<empty_weight>(
      4, std::vector<uw_edge>{{0, 1, {}}, {1, 2, {}}});
  EXPECT_EQ(g.storage_use_count(), 1);
  gbbs::graph<empty_weight> copy = g;
  EXPECT_TRUE(copy.shares_storage(g));
  EXPECT_EQ(g.storage_use_count(), 2);
  expect_same_csr(copy, g);
  {
    gbbs::graph<empty_weight> third = copy;
    EXPECT_EQ(g.storage_use_count(), 3);
  }
  EXPECT_EQ(g.storage_use_count(), 2);
}

// ---- zero-copy publish ----------------------------------------------------

TEST(SharedCsr, EagerPublishSharesArraysWithCompactedBase) {
  // compact_threshold == 0 disables auto-compaction, making publish the
  // compaction point: one merged-CSR build, shared outright.
  snapshot_manager<empty_weight> mgr(16, /*compact_threshold=*/0.0);
  mgr.ingest(inserts({{0, 1, {}}, {1, 2, {}}, {2, 3, {}}}));
  mgr.publish();
  auto snap = mgr.pin();
  ASSERT_TRUE(snap);
  // One merged-CSR build backs both the published version and the new
  // base: same refcounted block, not equal copies.
  EXPECT_TRUE(snap.view().shares_storage(mgr.live().base()));
}

TEST(SharedCsr, DeltaPublishSharesBaseAndDefersMerge) {
  // Default policy: publish attaches the overlay index to the shared base
  // instead of merging. Point reads see the live state; the merged CSR is
  // materialized lazily (and is NOT the writer's base block).
  snapshot_manager<empty_weight> mgr(16);
  mgr.ingest(inserts({{0, 1, {}}, {1, 2, {}}}));
  const std::size_t compactions_before = mgr.num_compactions();
  mgr.publish();
  EXPECT_EQ(mgr.num_compactions(), compactions_before)
      << "delta publish must not merge";
  auto snap = mgr.pin();
  ASSERT_TRUE(snap);
  ASSERT_NE(snap.overlay(), nullptr);
  EXPECT_TRUE(snap.overlay()->base.shares_storage(mgr.live().base()));
  EXPECT_EQ(execute_query(snap, {gbbs::serve::query_kind::degree, 1, 0})
                .value,
            2u);
  // Lazy materialization produces the live view (memoized per version).
  EXPECT_EQ(snap.view().num_edges(), 4u);
  EXPECT_EQ(snap.view().out_degree(1), 2u);
}

TEST(SharedCsr, EmptyOverlayPublishAllocatesNoCsr) {
  // Seed with a real CSR so the base covers the vertex set, then ingest a
  // raw batch that normalizes away entirely (self-loop): updates are
  // counted as ingested but the overlay stays empty.
  auto seed = gbbs::build_symmetric_graph<empty_weight>(
      8, std::vector<uw_edge>{{0, 1, {}}, {2, 3, {}}});
  snapshot_manager<empty_weight> mgr(seed);
  mgr.ingest({{5, 5, {}, gbbs::dynamic::update_op::insert}});
  ASSERT_EQ(mgr.live().delta_size(), 0u);
  const std::size_t compactions_before = mgr.num_compactions();
  const std::uint64_t v_before = mgr.current_version();
  mgr.publish();
  EXPECT_GT(mgr.current_version(), v_before);  // a new version went out
  // ...but no merge ran and no arrays were built: the new version IS the
  // base, shared.
  EXPECT_EQ(mgr.num_compactions(), compactions_before);
  auto snap = mgr.pin();
  EXPECT_EQ(snap.overlay(), nullptr);
  EXPECT_TRUE(snap.view().shares_storage(mgr.live().base()));
  EXPECT_TRUE(snap.view().shares_storage(seed));  // still the seed arrays
}

TEST(SharedCsr, AutoCompactionHandsEmptyOverlayToPublish) {
  // Threshold small enough that the mirrored batch (overlay floor is
  // max(base_m, 1024) * frac = 256) auto-compacts during ingest; publish
  // then takes the O(1) shared-handle path.
  const vertex_id n = 512;
  std::vector<uw_edge> edges;
  for (vertex_id v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1, {}});
  snapshot_manager<empty_weight> mgr(n, /*compact_threshold=*/0.25);
  mgr.ingest(inserts(edges));  // 2 * 511 overlay entries > 256: compacts
  EXPECT_GT(mgr.num_compactions(), 0u);
  ASSERT_EQ(mgr.live().delta_size(), 0u);
  const std::size_t compactions_before = mgr.num_compactions();
  mgr.publish();
  EXPECT_EQ(mgr.num_compactions(), compactions_before) << "publish must not "
      "re-merge an already-compacted overlay";
  auto snap = mgr.pin();
  EXPECT_TRUE(snap.view().shares_storage(mgr.live().base()));
  expect_same_csr(snap.view(),
                  gbbs::build_symmetric_graph<empty_weight>(n, edges));
}

// ---- lifetime: arrays outlive the writer ----------------------------------

TEST(SharedCsr, PinnedReaderOutlivesManagerAndStore) {
  std::vector<uw_edge> edges;
  for (vertex_id v = 0; v + 1 < 64; ++v) edges.push_back({v, v + 1, {}});

  pinned_snapshot<empty_weight> pinned;
  gbbs::graph<empty_weight> kept;
  {
    snapshot_manager<empty_weight> mgr(64);
    mgr.ingest(inserts(edges));
    mgr.publish();
    pinned = mgr.pin();
    ASSERT_TRUE(pinned);
    // The version's overlay rides on the writer's base block; view()
    // (lazy merged CSR) is memoized in the shared payload. Both handles
    // survive the writer.
    ASSERT_NE(pinned.overlay(), nullptr);
    EXPECT_TRUE(pinned.overlay()->base.shares_storage(mgr.live().base()));
    kept = pinned.view();  // O(1) shared handle onto the memoized merge
  }  // writer, store, and dynamic graph destroyed here

  // The pin (and the copied graph) still own valid data.
  EXPECT_EQ(pinned.version(), 2u);
  EXPECT_EQ(pinned.view().num_edges(), 2u * 63u);
  EXPECT_TRUE(pinned.components().connected(0, 63));
  auto dist = gbbs::bfs(kept, 0);
  EXPECT_EQ(dist[63], 63u);
  expect_same_csr(kept, gbbs::build_symmetric_graph<empty_weight>(64, edges));
}

// Readers pin and traverse concurrently with a writer that publishes (and
// hand-off compacts) every batch, then the writer dies while readers are
// still holding snapshots. TSan must stay clean: all sharing goes through
// refcounted immutable blocks.
TEST(SharedCsr, ConcurrentReadersSurviveWriterTeardown) {
  const std::uint32_t scale = 9;
  const vertex_id n = vertex_id{1} << scale;
  auto full = gbbs::rmat_symmetric(scale, std::size_t{6} << scale, 7);
  // One direction of each undirected edge, in vertex order.
  std::vector<uw_edge> stream;
  for (const auto& e : full.edges()) {
    if (e.u < e.v) stream.push_back(e);
  }
  const std::size_t batch = (stream.size() + 7) / 8;

  std::vector<pinned_snapshot<empty_weight>> grabbed(4);
  std::atomic<bool> writer_done{false};
  {
    snapshot_manager<empty_weight> mgr(n, /*compact_threshold=*/0.25);
    std::vector<std::thread> readers;
    for (std::size_t t = 0; t < grabbed.size(); ++t) {
      readers.emplace_back([&, t] {
        std::uint64_t last = 0;
        do {
          auto snap = mgr.pin();
          ASSERT_TRUE(snap);
          EXPECT_GE(snap.version(), last);
          last = snap.version();
          std::uint64_t degree_sum = 0;
          const auto& g = snap.view();
          for (vertex_id v = 0; v < g.num_vertices(); ++v) {
            degree_sum += g.out_degree(v);
          }
          EXPECT_EQ(degree_sum, g.num_edges());
          grabbed[t] = std::move(snap);  // keep the freshest one
        } while (!writer_done.load(std::memory_order_acquire));
      });
    }
    for (std::size_t off = 0; off < stream.size(); off += batch) {
      const std::size_t hi = std::min(off + batch, stream.size());
      std::vector<uw_edge> slice(
          stream.begin() + static_cast<std::ptrdiff_t>(off),
          stream.begin() + static_cast<std::ptrdiff_t>(hi));
      mgr.ingest(inserts(slice));
      mgr.publish();
    }
    writer_done.store(true, std::memory_order_release);
    for (auto& t : readers) t.join();
  }  // manager destroyed; grabbed pins survive

  for (auto& snap : grabbed) {
    ASSERT_TRUE(snap);
    const auto& g = snap.view();
    std::uint64_t degree_sum = 0;
    for (vertex_id v = 0; v < g.num_vertices(); ++v) {
      degree_sum += g.out_degree(v);
    }
    EXPECT_EQ(degree_sum, g.num_edges());
    EXPECT_TRUE(gbbs::same_partition(
        snap.components().materialize(g.num_vertices()),
        gbbs::connectivity(g)));
  }
}

}  // namespace
