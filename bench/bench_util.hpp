// Shared plumbing for the figure/table benchmarks: flags, the parallel
// sweep runner and the metrics/trace outputs. The stacks themselves come
// from the scenario library (scenario/scenario.hpp).
//
// Calibration: Δ = 1 s (scenario::kBenchDelta; round = 2Δ = 2 s of virtual
// time), chosen so the honest-case ERB termination lands near the paper's
// ~4 s and the N=512, t/N=1/4 chain-delay worst case lands in the paper's
// few-hundred-seconds regime. All reported times are VIRTUAL seconds from
// the discrete-event clock — shape, not wall-clock, is the reproduction
// target (DESIGN.md §1).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/scenario.hpp"

namespace sgxp2p::bench {

/// The ERB message of the figure benches' runs.
inline const Bytes kErbPayload = to_bytes("benchmark broadcast payload bytes");

/// Cumulative process peak RSS in KiB (Linux VmHWM; 0 where unavailable).
inline long peak_rss_kb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 6);
  }
  return 0;
}

/// Parses a single `--max-exp K` style flag; returns `fallback` when absent.
inline int flag_int(int argc, char** argv, const std::string& name,
                    int fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (name == argv[i]) return std::atoi(argv[i + 1]);
  }
  return fallback;
}

// ----- parallel sweep execution -----

/// Runs `count` independent sweep points, up to `jobs` concurrently, and
/// returns their results in index order. Determinism contract: each point
/// runs against its own MetricsRegistry (bound as the thread's current()
/// while the point executes, so Testbed/Simulator/Network and every cached
/// instrument resolve into it), and after all points finish the per-point
/// snapshots are folded into the caller's registry in index order. Every
/// fold operation is commutative, and the simulations themselves share no
/// mutable state, so tables and aggregate metrics are byte-identical for
/// any `jobs` value — including jobs=1, which takes the same isolate-and-
/// merge path.
///
/// The first exception thrown by a point (lowest index) is rethrown on the
/// calling thread after all workers join.
template <typename R, typename PointFn>
std::vector<R> run_sweep(std::size_t count, int jobs, const PointFn& point) {
  obs::MetricsRegistry& parent = obs::MetricsRegistry::current();
  std::vector<std::unique_ptr<obs::MetricsRegistry>> registries(count);
  for (auto& r : registries) r = std::make_unique<obs::MetricsRegistry>();
  std::vector<R> results(count);
  std::vector<std::exception_ptr> errors(count);

  std::atomic<std::size_t> next{0};
  auto worker = [&]() {
    while (true) {
      std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      obs::MetricsRegistry::ScopedCurrent bind(*registries[i]);
      try {
        results[i] = point(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };

  std::size_t n_threads = count == 0 ? 0
                                     : std::min<std::size_t>(
                                           static_cast<std::size_t>(
                                               jobs < 1 ? 1 : jobs),
                                           count);
  if (n_threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(n_threads);
    for (std::size_t i = 0; i < n_threads; ++i) threads.emplace_back(worker);
    for (auto& t : threads) t.join();
  }

  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  for (const auto& r : registries) {
    obs::merge_snapshot(parent, r->snapshot());
  }
  return results;
}

/// Resolves the `--jobs N` flag. Tracing records into one global ring, so a
/// requested parallel sweep degrades to sequential when the trace is on —
/// otherwise event interleaving would depend on scheduling.
inline int sweep_jobs(int argc, char** argv) {
  int jobs = flag_int(argc, argv, "--jobs", 1);
  if (jobs < 1) jobs = 1;
  if (jobs > 1 && obs::TraceRecorder::global().enabled()) {
    std::fprintf(stderr, "note: --trace forces --jobs 1\n");
    return 1;
  }
  return jobs;
}

// ----- observability plumbing shared by every figure/table bench -----

struct ObsOptions {
  std::string bench;         // e.g. "fig2a"
  std::string metrics_path;  // empty → no snapshot written
  std::string trace_path;    // empty → tracing stays off
  std::size_t trace_capacity = obs::TraceRecorder::kDefaultCapacity;
};

/// Handles `--metrics-out [path]` (default `BENCH_<name>.json`),
/// `--trace [path]` (default `BENCH_<name>.trace.jsonl`), and
/// `--trace-capacity N` (ring size in events; the 2^18 default overflows
/// around n=2000 in bench_scale), applies SGXP2P_LOG_LEVEL, and enables the
/// trace ring when requested. Call first thing in main(); pair with
/// finish_obs() before returning.
inline ObsOptions parse_obs(int argc, char** argv,
                            const std::string& bench_name) {
  Logger::instance().init_from_env();
  ObsOptions o;
  o.bench = bench_name;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto take_path = [&](const std::string& fallback) {
      if (i + 1 < argc && argv[i + 1][0] != '-') return std::string(argv[++i]);
      return fallback;
    };
    if (arg == "--metrics-out") {
      o.metrics_path = take_path("BENCH_" + bench_name + ".json");
    } else if (arg == "--trace") {
      o.trace_path = take_path("BENCH_" + bench_name + ".trace.jsonl");
    } else if (arg == "--trace-capacity" && i + 1 < argc) {
      o.trace_capacity = static_cast<std::size_t>(
          std::strtoull(argv[++i], nullptr, 10));
      if (o.trace_capacity == 0) {
        o.trace_capacity = obs::TraceRecorder::kDefaultCapacity;
      }
    }
  }
  if (!o.trace_path.empty()) {
    obs::TraceRecorder::global().enable(o.trace_capacity);
  }
  return o;
}

/// Writes the metrics snapshot (`{"bench":…,"metrics":…}`) and the JSONL
/// trace to the paths chosen by parse_obs().
inline void finish_obs(const ObsOptions& o) {
  if (!o.metrics_path.empty()) {
    std::string json = "{\"bench\":\"" + obs::json_escape(o.bench) +
                       "\",\"metrics\":" +
                       obs::MetricsRegistry::current().to_json() + "}\n";
    std::FILE* f = std::fopen(o.metrics_path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write metrics to %s\n",
                   o.metrics_path.c_str());
    } else {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("\nmetrics snapshot written to %s\n",
                  o.metrics_path.c_str());
    }
  }
  if (!o.trace_path.empty()) {
    const auto& tr = obs::TraceRecorder::global();
    if (tr.dropped() > 0) {
      std::fprintf(stderr,
                   "warning: trace ring dropped %llu events; timeline is "
                   "truncated (raise --trace-capacity)\n",
                   static_cast<unsigned long long>(tr.dropped()));
    }
    if (!tr.write_file(o.trace_path)) {
      std::fprintf(stderr, "cannot write trace to %s\n", o.trace_path.c_str());
    } else {
      std::printf("trace (%zu events) written to %s\n", tr.size(),
                  o.trace_path.c_str());
    }
  }
}

}  // namespace sgxp2p::bench
