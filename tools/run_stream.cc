// Replay an edge stream through the batch-dynamic subsystem in
// configurable batch sizes, maintaining incremental connectivity after
// every batch.
//
// Flags (besides the shared runner.h set):
//   -batch <b>        updates per batch (default 1 << 14)
//   -erase-every <k>  after every k-th batch, erase a random sample of
//                     previously ingested edges (default 0 = insert-only)
//   -compact-threshold <f>
//                     auto-compact when the delta overlay exceeds fraction
//                     f of the base edge count (default 0 = only the final
//                     manual compact; see dynamic_graph::set_compact_threshold)
//   -shards <s>       route the stream through the multi-writer sharded
//                     ingest path (serve/sharded_ingest.h): s concurrent
//                     shard writers under the composite version clock,
//                     publish per batch + flush at stream end (default 0 =
//                     the single-writer dynamic_graph loop below)
//   -verify           after the stream: check the compacted CSR against a
//                     from-scratch rebuild (insert-only runs) and the
//                     incremental connectivity partition against the
//                     static connectivity() on a snapshot.
//   -metrics-json <path>  export the obs registry (ingest stage spans,
//                     parlib counters) as JSON, periodically and at exit
//   -metrics-port <p>     live Prometheus-style text endpoint on a local
//                     TCP port (0 picks an ephemeral port)
//   -trace-out <path>     at exit, export the flight recorder's event
//                     timelines (per-batch ingest stages + scheduler
//                     events) as Chrome-trace / Perfetto JSON
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "algorithms/connectivity.h"
#include "dynamic/dynamic_graph.h"
#include "dynamic/incremental_connectivity.h"
#include "dynamic/stream.h"
#include "graph/graph_builder.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_server.h"
#include "obs/trace_export.h"
#include "parlib/trace_hooks.h"
#include "runner.h"
#include "serve/sharded_ingest.h"

namespace {

using gbbs::vertex_id;
using gbbs::empty_weight;

bool same_csr(const gbbs::graph<empty_weight>& a,
              const gbbs::graph<empty_weight>& b) {
  if (a.num_vertices() != b.num_vertices()) return false;
  if (a.num_edges() != b.num_edges()) return false;
  for (vertex_id v = 0; v < a.num_vertices(); ++v) {
    auto na = a.out_neighbors(v);
    auto nb = b.out_neighbors(v);
    if (!std::equal(na.begin(), na.end(), nb.begin(), nb.end()))
      return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  auto o = tools::parse(argc, argv);
  std::size_t batch_size = std::size_t{1} << 14;
  std::size_t erase_every = 0;
  std::size_t shards = 0;
  double compact_threshold = 0;
  std::string metrics_json;
  std::string trace_out;
  int metrics_port = -1;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "-batch") && i + 1 < argc) {
      batch_size = std::strtoull(argv[++i], nullptr, 10);
    } else if (!std::strcmp(argv[i], "-erase-every") && i + 1 < argc) {
      erase_every = std::strtoull(argv[++i], nullptr, 10);
    } else if (!std::strcmp(argv[i], "-shards") && i + 1 < argc) {
      shards = std::strtoull(argv[++i], nullptr, 10);
    } else if (!std::strcmp(argv[i], "-compact-threshold") && i + 1 < argc) {
      compact_threshold = std::strtod(argv[++i], nullptr);
    } else if (!std::strcmp(argv[i], "-metrics-json") && i + 1 < argc) {
      metrics_json = argv[++i];
    } else if (!std::strcmp(argv[i], "-metrics-port") && i + 1 < argc) {
      metrics_port = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (!std::strcmp(argv[i], "-trace-out") && i + 1 < argc) {
      trace_out = argv[++i];
    }
  }
  if (batch_size == 0) batch_size = 1;
  gbbs::obs::ensure_flight_recorder();

  std::unique_ptr<gbbs::obs::metrics_json_writer> json_writer;
  if (!metrics_json.empty()) {
    json_writer =
        std::make_unique<gbbs::obs::metrics_json_writer>(metrics_json);
  }
  std::unique_ptr<gbbs::obs::metrics_server> metrics_srv;
  if (metrics_port >= 0) {
    metrics_srv = std::make_unique<gbbs::obs::metrics_server>(
        static_cast<std::uint16_t>(metrics_port));
    if (metrics_srv->ok()) {
      std::printf("metrics endpoint: http://127.0.0.1:%u/metrics\n",
                  metrics_srv->port());
    } else {
      std::fprintf(stderr, "metrics endpoint: failed to bind port %d\n",
                   metrics_port);
      metrics_srv.reset();
    }
  }

  auto g = tools::load_symmetric(o);
  const vertex_id n = g.num_vertices();
  auto stream_edges = gbbs::dynamic::undirected_stream_edges(g);
  std::printf("stream: n=%u, %zu undirected edges, batch=%zu%s\n", n,
              stream_edges.size(), batch_size,
              erase_every ? " (with erases)" : "");

  if (shards > 0) {
    // Multi-writer sharded ingest: the coordinator normalizes + splits,
    // N shard workers apply concurrently, and the composite version clock
    // gates visibility (publish per batch never waits on a straggler;
    // flush at stream end forces full visibility before reporting).
    tools::run_rounds("stream", o, [&]() {
      gbbs::dynamic::edge_stream<empty_weight> stream(stream_edges);
      gbbs::serve::sharded_snapshot_manager<empty_weight> mgr(
          n, {.num_shards = shards, .compact_threshold = compact_threshold});
      parlib::random rng(o.seed);
      std::size_t batches = 0, erase_batches = 0, updates = 0;
      while (!stream.done()) {
        auto raw = stream.next_inserts(batch_size);
        updates += raw.size();
        mgr.ingest(std::move(raw));
        mgr.publish();
        ++batches;
        if (erase_every != 0 && batches % erase_every == 0) {
          auto erases = stream.sample_erases(
              std::max<std::size_t>(1, batch_size / 4), rng);
          rng = rng.next();
          if (!erases.empty()) {
            updates += erases.size();
            mgr.ingest(std::move(erases));
            mgr.publish();
            ++erase_batches;
          }
        }
      }
      mgr.flush();
      auto snap = mgr.pin();
      auto labels = snap.components().materialize(snap.num_vertices());
      std::size_t components = 0;
      for (vertex_id v = 0; v < snap.num_vertices(); ++v) {
        if (labels[v] == v) ++components;
      }
      char buf[200];
      std::snprintf(buf, sizeof(buf),
                    "%zu batches (%zu erase batches) x %zu shards, "
                    "%zu raw updates, clock=%llu, m=%llu, %zu components",
                    batches, erase_batches, mgr.num_shards(), updates,
                    static_cast<unsigned long long>(mgr.composite_clock()),
                    static_cast<unsigned long long>(snap.view().num_edges()),
                    components);
      if (o.verify) {
        bool ok = true;
        const auto view = snap.view();
        if (erase_every == 0) {
          // Insert-only: the stitched composite must equal the static
          // rebuild row for row (same ascending neighbor order).
          auto rebuilt =
              gbbs::build_symmetric_graph<empty_weight>(n, stream_edges);
          ok = view.num_vertices() == rebuilt.num_vertices() &&
               view.num_edges() == rebuilt.num_edges();
          // The row walk advances a cursor, so it must be sequential:
          // map_out_neighbors runs its callback in parallel on long rows.
          for (vertex_id v = 0; ok && v < n; ++v) {
            auto nb = rebuilt.out_neighbors(v);
            std::size_t j = 0;
            view.map_out_neighbors_early_exit(
                v, [&](vertex_id, vertex_id ngh, empty_weight) {
                  if (j >= nb.size() || nb[j] != ngh) ok = false;
                  ++j;
                  return ok;
                });
            ok = ok && j == nb.size();
          }
        }
        ok = ok &&
             gbbs::same_partition(labels, gbbs::connectivity(view));
        tools::report_verification("stream", ok);
      }
      return std::string(buf);
    });
  } else {
  tools::run_rounds("stream", o, [&]() {
    gbbs::dynamic::edge_stream<empty_weight> stream(stream_edges);
    gbbs::dynamic::dynamic_unweighted_graph dg(n);
    dg.set_compact_threshold(compact_threshold);
    gbbs::dynamic::incremental_connectivity cc(n);
    parlib::random rng(o.seed);
    std::size_t batches = 0, rebuilds = 0, updates = 0;
    while (!stream.done()) {
      // One trace id per batch so the exported timeline groups each
      // batch's normalize/apply spans and scheduler events causally
      // (run_serve gets this from snapshot_manager; here the tool drives
      // dynamic_graph directly).
      parlib::trace::trace_id_scope tscope(
          gbbs::obs::flight_recorder::global().next_trace_id());
      auto raw = stream.next_inserts(batch_size);
      updates += raw.size();
      auto batch = dg.apply(std::move(raw));
      cc.apply(batch, dg);
      ++batches;
      if (erase_every != 0 && batches % erase_every == 0) {
        auto erases =
            stream.sample_erases(std::max<std::size_t>(1, batch_size / 4),
                                 rng);
        rng = rng.next();
        if (!erases.empty()) {
          updates += erases.size();
          auto ebatch = dg.apply(std::move(erases));
          cc.apply(ebatch, dg);
          ++rebuilds;
        }
      }
    }
    const std::size_t auto_compactions = dg.num_compactions();
    dg.compact();
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "%zu batches (%zu rebuilds, %zu auto-compactions), "
                  "%zu raw updates, m=%llu, %zu components",
                  batches, rebuilds, auto_compactions, updates,
                  static_cast<unsigned long long>(dg.num_edges()),
                  cc.num_components());
    if (o.verify) {
      bool ok = true;
      if (erase_every == 0) {
        auto rebuilt = gbbs::build_symmetric_graph<empty_weight>(
            n, stream_edges);
        ok = same_csr(dg.base(), rebuilt);
      }
      auto snap = dg.snapshot();
      ok = ok && gbbs::same_partition(cc.labels(), gbbs::connectivity(snap));
      tools::report_verification("stream", ok);
    }
    return std::string(buf);
  });
  }

  if (!trace_out.empty()) {
    if (gbbs::obs::write_chrome_trace(trace_out)) {
      std::printf("trace written: %s (%llu events, %llu dropped)\n",
                  trace_out.c_str(),
                  static_cast<unsigned long long>(
                      gbbs::obs::flight_recorder::global().events_recorded()),
                  static_cast<unsigned long long>(
                      gbbs::obs::flight_recorder::global().events_dropped()));
    } else {
      std::fprintf(stderr, "trace export failed: %s\n", trace_out.c_str());
    }
  }
  return 0;
}
