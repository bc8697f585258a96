// ingest_churn: write-heavy. A closed-loop writer replays an R-MAT edge
// stream into a sharded_snapshot_manager that starts empty, in large
// batches flushed (applied and published) one by one, and after every few
// insert batches sends an erase batch sampled from edges it already
// delivered (each one forces the O(n + m) connectivity rebuild at the
// publish barrier). A low-rate
// open-loop point-read probe runs through the manager's router() with the
// result cache attached; invalidations are high and hits near zero, so
// this workload bypasses the cache. The stream is replayed in episodes (a
// fresh manager each) until the run's time is used.
#include <malloc.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "dynamic/stream.h"
#include "graph/generators.h"
#include "serve/query_engine.h"
#include "serve/sharded_ingest.h"
#include "serving.h"
#include "workloads.h"

namespace perfbench {
namespace {

using manager = gbbs::serve::sharded_snapshot_manager<empty_weight>;
using engine = gbbs::serve::query_engine<empty_weight>;

constexpr std::uint32_t kScale = 17;
constexpr std::size_t kBatch = 65536;
constexpr std::size_t kEraseEvery = 4;  // an erase batch after every 4th insert batch
constexpr std::size_t kEraseBatch = kBatch / 4;
constexpr double kProbeRate = 500;  // point reads per second
constexpr double kZipfS = 0.8;
constexpr std::size_t kCacheSample = 512;

struct churn_inputs {
  std::vector<gbbs::edge<empty_weight>> stream;  // undirected, u < v
  std::vector<query> probe;
  // The final version's edges, for the check. Computed before the first
  // episode, while little memory is in use, so that the check does not
  // set the run's peak RSS.
  std::vector<std::uint64_t> want;
};

churn_inputs make_inputs(std::uint64_t seed, std::size_t probe_count) {
  churn_inputs in;
  const vertex_id n = vertex_id{1} << kScale;
  gbbs::graph<empty_weight> g;
  {
    span s("graph.generate.rmat");
    g = gbbs::rmat_symmetric(kScale, std::size_t{16} << kScale, seed);
  }
  {
    span s("dynamic.stream_edges");
    in.stream = gbbs::dynamic::undirected_stream_edges(g);
  }
  std::vector<vertex_id> keys(n);
  for (vertex_id v = 0; v < n; ++v) keys[v] = v;
  in.probe = make_queries(zipf_keys(std::move(keys), kZipfS, seed + 0x9abc),
                          probe_count, /*bfs_per_mille=*/0, seed + 0xdef0);
  return in;
}

// The write stream of one episode: insert batches in stream order, and
// after every kEraseEvery-th an erase batch sampled (with replacement)
// from the delivered prefix.
std::vector<update_list> make_batches(const churn_inputs& in,
                                      std::uint64_t seed) {
  std::vector<update_list> out;
  const parlib::random pick(seed + 0x5678);
  std::size_t pos = 0, inserts = 0;
  while (pos < in.stream.size()) {
    const std::size_t hi = std::min(in.stream.size(), pos + kBatch);
    update_list b;
    b.reserve(hi - pos);
    for (std::size_t i = pos; i < hi; ++i) {
      b.push_back({in.stream[i].u, in.stream[i].v, {},
                   gbbs::dynamic::update_op::insert});
    }
    out.push_back(std::move(b));
    pos = hi;
    if (++inserts % kEraseEvery == 0) {
      update_list e;
      e.reserve(kEraseBatch);
      for (std::size_t i = 0; i < kEraseBatch; ++i) {
        const auto& x = in.stream[pick.ith_rand(out.size() * kEraseBatch + i) % pos];
        e.push_back({x.u, x.v, {}, gbbs::dynamic::update_op::erase});
      }
      out.push_back(std::move(e));
    }
  }
  return out;
}

struct episode_result {
  double writer_s = 0;
  double updates = 0;
  double erase_batches = 0;
  double compactions = 0;
  std::vector<double> visible_ms;  // ingest() call -> flush() returned
  std::vector<double> ingest_ms, flush_ms;
  std::vector<resolved_query> probe;
};

std::size_t num_shards() {
  const std::size_t nproc = std::max<unsigned>(1, std::thread::hardware_concurrency());
  // Writer + probe generator + one reader + shards <= nproc.
  return nproc > 3 ? nproc - 3 : 1;
}

// One replay of the stream into a fresh manager, the probe running
// alongside. The writer is closed-loop: it ingests a batch, then flush()es
// (waits until every shard has applied it, then publishes), so one batch
// is in flight at a time and a batch's visibility is its own pipeline
// latency, not the backlog ahead of it. Leaves the manager and cache in
// `mgr_out` / `cache_out` for the final-state check.
episode_result run_episode(const churn_inputs& in,
                           const std::vector<update_list>& batches,
                           std::unique_ptr<manager>& mgr_out,
                           std::unique_ptr<gbbs::serve::result_cache>& cache_out) {
  episode_result ep;
  // Free the last episode's manager first and hand back the memory its
  // threads' malloc arenas still hold: a new manager's shard threads may
  // get other arenas, and what the old ones hold would stay resident, so
  // the peak RSS would grow with the number of episodes the run fits in.
  mgr_out.reset();
  cache_out.reset();
  malloc_trim(0);
  manager::options mo;
  mo.num_shards = num_shards();
  {
    span s("serve.manager_start");
    mgr_out = std::make_unique<manager>(vertex_id{1} << kScale, mo);
  }
  manager& mgr = *mgr_out;
  cache_out = std::make_unique<gbbs::serve::result_cache>();
  mgr.attach_cache(cache_out.get());
  gbbs::serve::query_engine_options eo;
  eo.cache = cache_out.get();
  auto eng = std::make_unique<engine>(mgr.store(), mgr.router(), 1, eo);

  std::atomic<bool> done{false};
  const auto t0 = steady::now();
  std::thread probe([&] {
    ep.probe = run_open_loop(*eng, in.probe, kProbeRate, t0,
                             [&] { return done.load(); });
  });

  {
    parlib::worker_guard guard;
    const auto w0 = steady::now();
    for (const auto& b : batches) {
      ep.updates += static_cast<double>(b.size());
      ep.erase_batches += b.front().op == gbbs::dynamic::update_op::erase ? 1 : 0;
      const auto a = steady::now();
      {
        span s("serve.ingest");
        mgr.ingest(b);
      }
      const auto p = steady::now();
      {
        span s("serve.flush");
        mgr.flush();
      }
      const auto e = steady::now();
      ep.ingest_ms.push_back(seconds_between(a, p) * 1e3);
      ep.flush_ms.push_back(seconds_between(p, e) * 1e3);
      ep.visible_ms.push_back(seconds_between(a, e) * 1e3);
    }
    ep.writer_s = seconds_since(w0);
  }
  done.store(true);
  probe.join();
  eng.reset();
  for (std::size_t s = 0; s < mgr.num_shards(); ++s) {
    ep.compactions += static_cast<double>(mgr.shard_graph(s).num_compactions());
  }
  return ep;
}

struct churn_measurement {
  std::vector<episode_result> episodes;

  std::vector<double> ups() const {
    std::vector<double> out;
    for (const auto& e : episodes) out.push_back(e.updates / e.writer_s);
    return out;
  }
  std::vector<double> pooled(std::vector<double> episode_result::*field) const {
    std::vector<double> out;
    for (const auto& e : episodes) {
      out.insert(out.end(), (e.*field).begin(), (e.*field).end());
    }
    return out;
  }
  std::vector<resolved_query> probe() const {
    std::vector<resolved_query> out;
    for (const auto& e : episodes) out.insert(out.end(), e.probe.begin(), e.probe.end());
    return out;
  }
};

// Episodes until `seconds` have passed (at least `min_episodes`). The
// final state of the last episode is checked.
churn_measurement measure(const churn_inputs& in,
                          const std::vector<update_list>& batches,
                          double seconds, int min_episodes, bool check,
                          tally& outcome) {
  churn_measurement m;
  const auto t0 = steady::now();
  std::unique_ptr<manager> mgr;
  std::unique_ptr<gbbs::serve::result_cache> cache;
  while (static_cast<int>(m.episodes.size()) < min_episodes ||
         seconds_since(t0) < seconds) {
    m.episodes.push_back(run_episode(in, batches, mgr, cache));
    outcome.attempted += batches.size();
    count_queries(m.episodes.back().probe, outcome);
  }
  if (check) {
    const std::vector<query> sample(
        in.probe.begin(),
        in.probe.begin() +
            static_cast<std::ptrdiff_t>(std::min(kCacheSample, in.probe.size())));
    {
      gbbs::serve::query_engine_options eo;
      eo.cache = cache.get();
      engine eng(mgr->store(), mgr->router(), 1, eo);
      for (const auto& q : sample) eng.submit(q).get();
    }
    check_final_state(mgr->pin(), vertex_id{1} << kScale, in.want, *cache,
                      sample, outcome, "ingest_churn");
  }
  return m;
}

}  // namespace

void run_ingest_churn(const run_options& opt, run_result& res) {
  // Enough probe queries for the longest episode the run can take.
  const auto probe_count = static_cast<std::size_t>(kProbeRate * (opt.seconds + 60));
  churn_inputs in;
  std::vector<update_list> batches;
  std::vector<double> setups;
  for (int i = 0; i < (opt.trace ? 1 : kSetupRepeats); ++i) {
    in = {};
    batches = {};
    setups.push_back(timed([&] {
      in = make_inputs(opt.seed, probe_count);
      batches = make_batches(in, opt.seed);
    }));
  }
  {
    std::vector<const update_list*> applied;
    for (const auto& b : batches) applied.push_back(&b);
    in.want = expected_edges(vertex_id{1} << kScale, {}, applied);
  }
  std::printf("# ingest_churn: n=%u stream=%zu undirected edges, %zu batches, "
              "shards=%zu writer=1 probe generator=1 readers=1 (workers=%zu)\n",
              vertex_id{1} << kScale, in.stream.size(), batches.size(),
              num_shards(), parlib::num_workers());

  auto report = [&](const churn_measurement& m) {
    const auto probe = m.probe();
    const auto point = latencies(probe, true);
    const auto visible = m.pooled(&episode_result::visible_ms);
    std::printf("metric ingest_ups %.6f updates/s\n", median(m.ups()));
    std::printf("metric point_p50_ms %.6f ms\nmetric point_p99_ms %.6f ms\n",
                median(point), windowed_p99(point));
    std::printf("metric visible_p50_ms %.6f ms\nmetric visible_p99_ms %.6f ms\n",
                median(visible), quantile(visible, 0.99));
    std::printf("# samples: %zu episodes, %zu probe reads, %zu batches; "
                "generator lag p99 %.3f ms\n",
                m.episodes.size(), point.size(), visible.size(),
                quantile(generator_lags(probe), 0.99));
  };

  if (!opt.trace) {
    const auto m = measure(in, batches, opt.seconds, 3, true, res.outcome);
    report(m);
    const auto point = latencies(m.probe(), true);
    res.e2e.set("setup_s", median(setups), "s");
    res.e2e.set("typical_ms", median(point), "ms");
    res.e2e.set("secondary_ms", median(m.pooled(&episode_result::visible_ms)), "ms");
    res.e2e.set("rate", median(m.ups()), "1/s");
    return;
  }

  tracer::global().disable();
  const auto plain = measure(in, batches, opt.seconds / 2, 2, false, res.outcome);
  const histogram_delta queue_point(query_histograms("queue_wait", true));
  const histogram_delta queue_bfs(query_histograms("queue_wait", false));
  const histogram_delta exec_point(query_histograms("execute", true));
  const histogram_delta exec_bfs(query_histograms("execute", false));
  const histogram_delta normalize("span.ingest.normalize");
  const histogram_delta apply(
      std::vector<std::string>{"span.ingest.apply", "span.ingest.shard.apply"});
  const histogram_delta connectivity("span.ingest.connectivity");
  const histogram_delta refresh("span.ingest.overlay_refresh");
  const histogram_delta split("span.ingest.shard.split");
  const histogram_delta shard_apply("span.ingest.shard.apply");
  const histogram_delta shard_refresh("span.ingest.shard.refresh");
  const histogram_delta merge("span.ingest.barrier.merge");
  const histogram_delta lookup("span.serve.cache.lookup");
  auto& reg = gbbs::obs::registry::global();
  auto& hits_ctr = reg.get_counter("serve.cache.hits");
  auto& misses_ctr = reg.get_counter("serve.cache.misses");
  auto& inval_ctr = reg.get_counter("serve.cache.invalidations");
  const double hits0 = static_cast<double>(hits_ctr.value());
  const double misses0 = static_cast<double>(misses_ctr.value());
  const double inval0 = static_cast<double>(inval_ctr.value());
  const auto c0 = program_counters::now();
  tracer::global().enable(kSpanCapacity);
  const auto traced = measure(in, batches, opt.seconds / 2, 2, true, res.outcome);
  tracer::global().disable();
  const auto c = program_counters::now() - c0;
  report(traced);

  auto& L = res.layer;
  set_histogram_ms(L, "serve.queue_wait_ms.point", queue_point);
  set_histogram_ms(L, "serve.queue_wait_ms.bfs", queue_bfs);
  set_histogram_ms(L, "serve.execute_ms.point", exec_point);
  set_histogram_ms(L, "serve.execute_ms.bfs", exec_bfs);
  set_histogram_ms(L, "dynamic.normalize_ms", normalize);
  set_histogram_ms(L, "dynamic.apply_ms", apply);
  set_histogram_ms(L, "dynamic.connectivity_ms", connectivity);
  set_histogram_ms(L, "serve.overlay_refresh_ms", refresh);
  set_histogram_ms(L, "serve.shard.split_ms", split);
  set_histogram_ms(L, "serve.shard.apply_ms", shard_apply);
  set_histogram_ms(L, "serve.shard.refresh_ms", shard_refresh);
  set_histogram_ms(L, "serve.barrier.merge_ms", merge);
  L.set("serve.cache.lookup_ms", lookup.since().p50_s * 1e3, "ms");
  const double hits = static_cast<double>(hits_ctr.value()) - hits0;
  const double misses = static_cast<double>(misses_ctr.value()) - misses0;
  L.set("serve.cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
  L.set("serve.cache.invalidations", static_cast<double>(inval_ctr.value()) - inval0, "count");
  L.set("serve.rejected",
        count_status(traced.probe(), gbbs::serve::query_status::rejected), "count");
  L.set("serve.timed_out",
        count_status(traced.probe(), gbbs::serve::query_status::timed_out), "count");

  const auto ingest_ms = traced.pooled(&episode_result::ingest_ms);
  // The writer publishes through flush(): shard apply plus the barrier.
  const auto flush_ms = traced.pooled(&episode_result::flush_ms);
  L.set("serve.ingest_ms.p50", median(ingest_ms), "ms");
  L.set("serve.ingest_ms.p99", quantile(ingest_ms, 0.99), "ms");
  L.set("serve.publish_ms.p50", median(flush_ms), "ms");
  L.set("serve.publish_ms.p99", quantile(flush_ms, 0.99), "ms");
  const double episodes = static_cast<double>(traced.episodes.size());
  double erase_batches = 0, compactions = 0;
  for (const auto& e : traced.episodes) {
    erase_batches += e.erase_batches;
    compactions += e.compactions;
  }
  L.set("dynamic.erase_batches", erase_batches / episodes, "count");
  L.set("serve.compactions", compactions / episodes, "count");
  L.set("serve.merged_csr_materializations",
        static_cast<double>(c.ec.merged_csr_materializations) / episodes, "count");
  L.set("parlib.sched.forks", static_cast<double>(c.forks) / episodes, "count");
  L.set("parlib.sched.steals", static_cast<double>(c.steals) / episodes, "count");
  L.set("parlib.sched.inline_fallbacks",
        static_cast<double>(c.ec.sched_inline_fallbacks) / episodes, "count");
  L.set("parlib.sched.reader_forks",
        static_cast<double>(c.ec.sched_reader_forks) / episodes, "count");
  L.set("parlib.fetch_add_ops", static_cast<double>(c.ec.fetch_add_ops) / episodes, "count");
  L.set("parlib.histogram_calls", static_cast<double>(c.ec.histogram_calls) / episodes, "count");
  L.set("bench.generator_lag_ms.p99", quantile(generator_lags(traced.probe()), 0.99), "ms");
  L.set("obs.trace_overhead", median(plain.ups()) / median(traced.ups()), "ratio");
}

}  // namespace perfbench
