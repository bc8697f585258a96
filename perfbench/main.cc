// The repository benchmark's program: runs one workload and prints its
// metrics, ending with one JSON line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1) the workload measured, each with its unit. Exits non-zero
// when any output check fails.
//
//   perfbench --workload <paper_suite|serve_mixed|ingest_churn> --seed <n>
//             --seconds <s> --trace <0|1> [--spans <path>]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

using namespace perfbench;

// Every metric the run measured, with its unit. run.py checks them
// against BENCHMARK.json.
bool print_result(const run_result& res, bool trace) {
  const metrics& m = trace ? res.layer : res.e2e;
  std::string out = "{";
  for (const auto& [name, v] : m.all()) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.17g", v.v);
    out += (out.size() > 1 ? ", \"" : "\"") + name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + v.unit + "\"}";
  }
  out += "}";
  const bool correct = res.outcome.failed == 0;
  std::printf("error_rate %.6g (%llu failed of %llu attempted)\n",
              res.outcome.attempted
                  ? static_cast<double>(res.outcome.failed) /
                        static_cast<double>(res.outcome.attempted)
                  : 0.0,
              static_cast<unsigned long long>(res.outcome.failed),
              static_cast<unsigned long long>(res.outcome.attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(res.outcome.attempted),
              static_cast<unsigned long long>(res.outcome.failed), out.c_str());
  return correct;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <paper_suite|serve_mixed|"
               "ingest_churn> --seed <n> --seconds <s> --trace <0|1> "
               "[--spans <path>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, spans_path;
  run_options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      opt.trace = std::strcmp(v, "0") != 0;
    } else if (a == "--spans") {
      spans_path = v;
    } else {
      return usage();
    }
  }
  if (workload.empty() || !have_seed || !(opt.seconds > 0)) return usage();

  // Touch the scheduler from the main thread first, so it becomes worker 0.
  std::printf("# perfbench %s seed=%llu seconds=%g trace=%d nproc=%u "
              "workers=%zu\n",
              workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0,
              std::thread::hardware_concurrency(), parlib::num_workers());
  if (opt.trace) tracer::global().enable(kSpanCapacity);
  run_result res;
  if (workload == "paper_suite") {
    run_paper_suite(opt, res);
  } else if (workload == "serve_mixed") {
    run_serve_mixed(opt, res);
  } else if (workload == "ingest_churn") {
    run_ingest_churn(opt, res);
  } else {
    return usage();
  }
  tracer::global().disable();
  if (opt.trace) {
    record_span_metrics(res);
    if (!spans_path.empty() && !tracer::global().write(spans_path)) {
      std::fprintf(stderr, "cannot write spans to %s\n", spans_path.c_str());
    }
  } else {
    res.e2e.set("peak_rss_mb", peak_rss_mb(), "MB");
  }
  std::fflush(stdout);
  return print_result(res, opt.trace) ? 0 : 1;
}
