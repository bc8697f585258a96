// Shared plumbing of the repository benchmark: clocks and resource usage,
// the in-memory span tracer of traced runs, snapshots of the counters and
// histograms the program already exports, and the metric report whose
// final JSON line is the benchmark's result.
//
// Layers. Spans opened here wrap the benchmark's own calls into the
// program's modules; each span names its layer as the prefix of its name
// ("graph.build", "algorithms.bfs", "serve.ingest", ...). Spans inside the
// program are not added by the benchmark: per-stage numbers come from the
// program's own obs::registry histograms and parlib::event_counters,
// snapshotted before and after each measured phase.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/registry.h"
#include "obs/stats.h"
#include "parlib/counters.h"
#include "parlib/scheduler.h"

namespace perfbench {

using steady = std::chrono::steady_clock;

inline double seconds_between(steady::time_point a, steady::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double seconds_since(steady::time_point t0) {
  return seconds_between(t0, steady::now());
}

// Time one call of f (seconds).
template <typename F>
double timed(F&& f) {
  const auto t0 = steady::now();
  f();
  return seconds_since(t0);
}

// ---- samples -------------------------------------------------------------

inline double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return gbbs::obs::percentile(v, q);
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

inline double geometric_mean(const std::vector<double>& v) {
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return v.empty() ? 0 : std::exp(log_sum / static_cast<double>(v.size()));
}

// ---- process resource usage (getrusage; all threads of the process) -------

struct cpu_usage {
  double user_s = 0;
  double sys_s = 0;
  double minor_faults = 0;

  static cpu_usage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    cpu_usage u;
    u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
               static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
    u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    u.minor_faults = static_cast<double>(ru.ru_minflt);
    return u;
  }

  cpu_usage& operator+=(const cpu_usage& o) {
    user_s += o.user_s;
    sys_s += o.sys_s;
    minor_faults += o.minor_faults;
    return *this;
  }
  cpu_usage operator-(const cpu_usage& o) const {
    return {user_s - o.user_s, sys_s - o.sys_s, minor_faults - o.minor_faults};
  }
  double cpu_s() const { return user_s + sys_s; }
};

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- the program's own counters -------------------------------------------

// parlib::event_counters plus the scheduler's fork (deque push) and steal
// totals, read at one point; phases report the difference of two reads.
struct program_counters {
  parlib::event_counters_snapshot ec;
  std::uint64_t forks = 0;
  std::uint64_t steals = 0;

  static program_counters now() {
    program_counters c;
    c.ec = parlib::event_counters::global().snapshot();
    auto& sched = parlib::scheduler::instance();
    for (std::size_t s = 0; s < sched.max_slots(); ++s) {
      c.forks += sched.push_count(s);
    }
    c.steals = sched.total_steals();
    return c;
  }

  program_counters operator-(const program_counters& o) const {
    program_counters d;
    d.ec.edgemap_slots_written =
        ec.edgemap_slots_written - o.ec.edgemap_slots_written;
    d.ec.edgemap_edges_examined =
        ec.edgemap_edges_examined - o.ec.edgemap_edges_examined;
    d.ec.fetch_add_ops = ec.fetch_add_ops - o.ec.fetch_add_ops;
    d.ec.histogram_calls = ec.histogram_calls - o.ec.histogram_calls;
    d.ec.merged_csr_materializations =
        ec.merged_csr_materializations - o.ec.merged_csr_materializations;
    d.ec.sched_external_registrations =
        ec.sched_external_registrations - o.ec.sched_external_registrations;
    d.ec.sched_unregistered_pardos =
        ec.sched_unregistered_pardos - o.ec.sched_unregistered_pardos;
    d.ec.sched_reader_forks = ec.sched_reader_forks - o.ec.sched_reader_forks;
    d.ec.sched_inline_fallbacks =
        ec.sched_inline_fallbacks - o.ec.sched_inline_fallbacks;
    d.forks = forks - o.forks;
    d.steals = steals - o.steals;
    return d;
  }

  program_counters& operator+=(const program_counters& d) {
    ec.edgemap_slots_written += d.ec.edgemap_slots_written;
    ec.edgemap_edges_examined += d.ec.edgemap_edges_examined;
    ec.fetch_add_ops += d.ec.fetch_add_ops;
    ec.histogram_calls += d.ec.histogram_calls;
    ec.merged_csr_materializations += d.ec.merged_csr_materializations;
    ec.sched_external_registrations += d.ec.sched_external_registrations;
    ec.sched_unregistered_pardos += d.ec.sched_unregistered_pardos;
    ec.sched_reader_forks += d.ec.sched_reader_forks;
    ec.sched_inline_fallbacks += d.ec.sched_inline_fallbacks;
    forks += d.forks;
    steals += d.steals;
    return *this;
  }
};

// Registry-owned histograms (e.g. "span.ingest.apply"), folded together
// and read as the difference between now and when the probe was made, so
// a phase's quantiles exclude what set-up recorded. A query engine's
// attached serve.query.* histograms fold into owned ones of the same name
// when the engine is destroyed; read those after destroying it.
class histogram_delta {
 public:
  explicit histogram_delta(const std::vector<std::string>& names) {
    for (const auto& name : names) {
      hists_.push_back(&gbbs::obs::registry::global().get_histogram(name));
    }
    for (const auto* h : hists_) h->accumulate(before_);
  }
  explicit histogram_delta(const std::string& name)
      : histogram_delta(std::vector<std::string>{name}) {}

  gbbs::obs::histogram::summary since() const {
    using agg_t = gbbs::obs::histogram::aggregation;
    agg_t now;
    for (const auto* h : hists_) h->accumulate(now);
    agg_t d;
    for (std::size_t b = 0; b < gbbs::obs::histogram::kBuckets; ++b) {
      d.bucket[b] = now.bucket[b] - before_.bucket[b];
    }
    d.count = now.count - before_.count;
    d.sum_ns = now.sum_ns - before_.sum_ns;
    d.max_ns = now.max_ns;  // the max is not differentiable; an upper bound
    return gbbs::obs::histogram::summarize(d);
  }

 private:
  std::vector<const gbbs::obs::histogram*> hists_;
  gbbs::obs::histogram::aggregation before_;
};

// ---- in-memory span tracer --------------------------------------------------

// Spans are (name, start, end, parent, thread), appended under one mutex
// (spans wrap per-call work — a problem run, an ingest batch, a query —
// never per-edge loops). Off unless enabled; a full buffer drops and
// counts instead of growing.
class tracer {
 public:
  struct span_record {
    std::uint32_t name = 0;
    std::uint32_t thread = 0;
    std::int64_t parent = -1;
    steady::time_point start;
    steady::time_point end;
  };

  static tracer& global() {
    static tracer t;
    return t;
  }

  void enable(std::size_t capacity) {
    std::lock_guard<std::mutex> lk(mu_);
    spans_.reserve(capacity);
    capacity_ = capacity;
    enabled_ = true;
  }
  void disable() {
    std::lock_guard<std::mutex> lk(mu_);
    enabled_ = false;
  }
  std::uint64_t dropped() const {
    std::lock_guard<std::mutex> lk(mu_);
    return dropped_;
  }

  // Open a span on the calling thread; -1 when disabled or full.
  std::int64_t open(const char* name) {
    std::lock_guard<std::mutex> lk(mu_);
    if (!enabled_) return -1;
    if (spans_.size() >= capacity_) {
      ++dropped_;
      return -1;
    }
    auto& stack = open_stack();
    span_record r;
    r.name = intern_locked(name);
    r.thread = thread_index_locked();
    r.parent = stack.empty() ? -1 : stack.back();
    r.start = steady::now();
    r.end = r.start;
    spans_.push_back(r);
    const auto idx = static_cast<std::int64_t>(spans_.size() - 1);
    stack.push_back(idx);
    return idx;
  }

  void close(std::int64_t idx) {
    if (idx < 0) return;
    const auto end = steady::now();
    std::lock_guard<std::mutex> lk(mu_);
    spans_[static_cast<std::size_t>(idx)].end = end;
    auto& stack = open_stack();
    if (!stack.empty() && stack.back() == idx) stack.pop_back();
  }

  // A span whose interval was measured elsewhere (a query's submit ->
  // completion); its parent is the calling thread's innermost open span.
  void record(const char* name, steady::time_point start,
              steady::time_point end) {
    std::lock_guard<std::mutex> lk(mu_);
    if (!enabled_) return;
    if (spans_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    const auto& stack = open_stack();
    spans_.push_back({intern_locked(name), thread_index_locked(),
                      stack.empty() ? -1 : stack.back(), start, end});
  }

  // Per name, the summed self time: each span's duration minus the union
  // of its children's intervals, clipped to the span.
  std::map<std::string, double> self_seconds() const {
    std::lock_guard<std::mutex> lk(mu_);
    const auto self = self_times_locked();
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[names_[spans_[i].name]] += self[i];
    }
    return out;
  }

  // One JSON object per line: name, thread, parent index, start and
  // duration and self time in microseconds (relative to the first span).
  bool write(const std::string& path) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const auto self = self_times_locked();
    const steady::time_point t0 =
        spans_.empty() ? steady::time_point{} : spans_.front().start;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      std::fprintf(f,
                   "{\"i\": %zu, \"name\": \"%s\", \"thread\": %u, "
                   "\"parent\": %lld, \"start_us\": %.3f, \"dur_us\": %.3f, "
                   "\"self_us\": %.3f}\n",
                   i, names_[s.name].c_str(), s.thread,
                   static_cast<long long>(s.parent),
                   seconds_between(t0, s.start) * 1e6,
                   seconds_between(s.start, s.end) * 1e6, self[i] * 1e6);
    }
    return std::fclose(f) == 0;
  }

 private:
  static std::vector<std::int64_t>& open_stack() {
    thread_local std::vector<std::int64_t> stack;
    return stack;
  }

  std::uint32_t intern_locked(const char* name) {
    auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(names_.size());
    names_.emplace_back(name);
    ids_.emplace(name, id);
    return id;
  }

  std::uint32_t thread_index_locked() {
    thread_local std::uint32_t index = 0;
    thread_local bool assigned = false;
    if (!assigned) {
      index = next_thread_++;
      assigned = true;
    }
    return index;
  }

  std::vector<double> self_times_locked() const {
    std::vector<std::vector<std::size_t>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent >= 0) {
        children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
      }
    }
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& p = spans_[i];
      std::vector<std::pair<steady::time_point, steady::time_point>> iv;
      for (std::size_t c : children[i]) {
        const auto lo = std::max(p.start, spans_[c].start);
        const auto hi = std::min(p.end, spans_[c].end);
        if (lo < hi) iv.emplace_back(lo, hi);
      }
      std::sort(iv.begin(), iv.end());
      double covered = 0;
      steady::time_point reach = p.start;
      for (const auto& [lo, hi] : iv) {
        const auto from = std::max(lo, reach);
        if (hi > from) {
          covered += seconds_between(from, hi);
          reach = hi;
        }
      }
      self[i] = seconds_between(p.start, p.end) - covered;
    }
    return self;
  }

  mutable std::mutex mu_;
  bool enabled_ = false;
  std::size_t capacity_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint32_t next_thread_ = 0;
  std::vector<span_record> spans_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> ids_;
};

// RAII span on the global tracer (free when tracing is off).
class span {
 public:
  explicit span(const char* name) : idx_(tracer::global().open(name)) {}
  ~span() { tracer::global().close(idx_); }
  span(const span&) = delete;
  span& operator=(const span&) = delete;

 private:
  std::int64_t idx_;
};

// ---- results -----------------------------------------------------------------

// Outcome counts of one run: every checked output, resolved query and
// ingested batch is one attempt.
struct tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(bool ok, const char* what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "CHECK FAILED: %s\n", what);
    }
  }
};

// Metric values with their units, by name. A run reports every metric
// it measured; run.py checks the names and units against BENCHMARK.json.
class metrics {
 public:
  struct value {
    double v = 0;
    std::string unit;
  };

  void set(const std::string& name, double v, const std::string& unit) {
    values_[name] = {v, unit};
  }
  double get(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second.v;
  }
  const std::map<std::string, value>& all() const { return values_; }

 private:
  std::map<std::string, value> values_;
};

}  // namespace perfbench
