// The three workloads. Each builds its inputs from the seed, measures for
// the given number of seconds, checks every output, and fills the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run).
#pragma once

#include <cstdint>
#include <string>

#include "bench.h"

namespace perfbench {

struct run_options {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct run_result {
  metrics e2e;
  metrics layer;
  tally outcome;
};

// Set-ups per untraced run of the serving workloads (each takes about a
// second); setup_s is their median. paper_suite sets up once.
inline constexpr int kSetupRepeats = 3;

// Capacity of the in-memory span buffer of a traced run.
inline constexpr std::size_t kSpanCapacity = std::size_t{1} << 21;

void run_paper_suite(const run_options& opt, run_result& res);
void run_serve_mixed(const run_options& opt, run_result& res);
void run_ingest_churn(const run_options& opt, run_result& res);

// Fill bench.self_s.<layer> and obs.trace.events_dropped from the spans.
inline void record_span_metrics(run_result& res) {
  const auto spans = tracer::global().self_seconds();
  for (const char* layer : {"graph", "dynamic", "algorithms", "serve"}) {
    const std::string prefix = std::string(layer) + ".";
    double self = 0;
    for (const auto& [name, s] : spans) {
      if (name.compare(0, prefix.size(), prefix) == 0) self += s;
    }
    res.layer.set(std::string("bench.self_s.") + layer, self, "s");
  }
  res.layer.set("obs.trace.events_dropped",
                static_cast<double>(tracer::global().dropped()), "count");
}

// p50/p99 of a program histogram's phase delta, in milliseconds.
inline void set_histogram_ms(metrics& m, const std::string& name,
                             const histogram_delta& h) {
  const auto s = h.since();
  m.set(name + ".p50", s.p50_s * 1e3, "ms");
  m.set(name + ".p99", s.p99_s * 1e3, "ms");
}

}  // namespace perfbench
