// bench_scale — event-engine scaling: one ERB broadcast at
// n ∈ {40, 200, 500, 1000, 2000} on the timer wheel.
//
// The paper evaluates at n ≤ 40 (Section 6); the ROADMAP north star needs
// orders of magnitude more. Two measurements:
//
//  1. Full stack, per n: one accounted-mode ERB instance (t = 1, so every
//     run terminates in 3 rounds and the ~n² per-round deliveries
//     dominate) — setup time (Testbed construction plus build(): hosts,
//     enclaves, fast links and the O(n²) sequence exchange), events/sec,
//     wall-clock per simulated round, peak RSS, buffer-pool reuse.
//
//  2. Engine dispatch, at n = 1000: a replay of the same round's *event
//     schedule* — identical timer and delivery pattern (INIT fan-out,
//     per-node ECHO broadcast timers, per-receipt ACKs, jittered arrivals)
//     with a no-op receiver. With the protocol work (seal/open, hashing,
//     ACK construction) stripped away, this isolates schedule → queue →
//     dispatch and prints absolute events/sec, best of 3 repetitions. The
//     three repetitions must agree on events fired and end time.
//
//   bench_scale                 # full sweep incl. n=2000 + budget check
//   bench_scale --quick         # CI mode: n ∈ {40, 200, 1000}
//   bench_scale --n 500,1000    # override the sweep points
//   bench_scale --metrics-out [path]   # BENCH_scale.json
//
// Gates (printed): the dispatch repetitions agree, and the n = 2000
// full-stack run (full mode) completes within the printed wall-clock
// budget.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "obs/pool.hpp"

namespace {

using namespace sgxp2p;

constexpr double kBudget2000s = 120.0;  // n=2000 wall-clock budget (full mode)

struct PointResult {
  std::uint32_t n = 0;
  double setup_s = 0;  // Testbed construction plus build()
  double wall_s = 0;   // start() until every node decided
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint32_t rounds = 0;
  double virt_s = 0;
  bool decided = false;
  double pool_hit_pct = 0;
  long rss_kb = 0;
  std::unique_ptr<obs::MetricsRegistry> registry;

  [[nodiscard]] double events_per_s() const {
    return wall_s > 0 ? static_cast<double>(events) / wall_s : 0;
  }
};

PointResult run_point(std::uint32_t n) {
  PointResult out;
  out.n = n;
  out.registry = std::make_unique<obs::MetricsRegistry>();
  obs::MetricsRegistry::ScopedCurrent bind(*out.registry);
  // Cold pool per point: reuse within a run is measured, not inherited.
  obs::BufferPool::local().clear();

  sim::TestbedConfig cfg = scenario::sim_config(
      n, 1, scenario::kBenchDelta, protocol::ChannelMode::kAccounted);
  cfg.t = 1;  // termination after t+2 = 3 rounds; n² fan-out dominates

  auto setup_t0 = std::chrono::steady_clock::now();
  sim::Testbed bed(cfg);
  bed.build(scenario::erb_factory(
      0, to_bytes("scale benchmark broadcast payload")));
  out.setup_s = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - setup_t0)
                    .count();

  auto t0 = std::chrono::steady_clock::now();
  bed.start();
  out.rounds = bed.run_rounds(scenario::t_budget(cfg.effective_t()),
                              scenario::honest_done(bed));
  out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0)
                   .count();

  out.events = out.registry->counter("sim.events_fired").value();
  const scenario::Report report = scenario::collect(bed, out.rounds);
  out.messages = report.messages;
  out.decided = report.honest_done();
  out.virt_s = report.termination_s();

  const auto& ps = obs::BufferPool::local().stats();
  out.pool_hit_pct = ps.acquires > 0
                         ? 100.0 * static_cast<double>(ps.hits) /
                               static_cast<double>(ps.acquires)
                         : 0;
  out.rss_kb = bench::peak_rss_kb();
  return out;
}

// ---------------------------------------------------------------------------
// Engine dispatch: replay one ERB round's event schedule with no protocol.
//
// Traffic shape mirrors the full-stack run at the same n: node 0 fans INIT
// out to n−1 peers with jittered arrivals; each peer's first receipt arms a
// timer (the std::function lane) at the next round boundary that broadcasts
// ECHO to the other n−1; every INIT/ECHO receipt answers with a jittered
// ACK. Message classes are distinguished by registering one delivery
// handler per class, so deliveries carry no payload ballast: with ~n²
// buffers in flight both the pool and plain malloc land in cold memory,
// making payload traffic a cost that belongs to the full-stack rows (the
// pool column there). What remains is schedule → queue → dispatch.

struct DispatchResult {
  double wall_s = 0;
  std::uint64_t events = 0;
  SimTime end_time = 0;

  [[nodiscard]] double events_per_s() const {
    return wall_s > 0 ? static_cast<double>(events) / wall_s : 0;
  }
};

DispatchResult run_dispatch(std::uint32_t n) {
  constexpr SimTime kRound = 1000;      // bench round length, ms
  constexpr SimTime kBase = 500;        // bench base delay
  constexpr SimTime kJitterBound = 501; // bench max jitter + 1

  DispatchResult out;
  obs::MetricsRegistry reg;
  obs::MetricsRegistry::ScopedCurrent bind(reg);

  sim::Simulator simulator(reg);
  Rng rng(0x5ca1ab1e);
  std::vector<char> echoed(n, 0);

  auto t0 = std::chrono::steady_clock::now();
  auto arrival = [&]() {
    return simulator.now() + kBase +
           static_cast<SimTime>(rng.next_below(kJitterBound));
  };
  std::uint32_t on_ack = simulator.add_delivery_handler([](sim::Delivery&&) {});
  std::uint32_t on_msg = 0;  // INIT and ECHO: ack, arm echo timer on first
  on_msg = simulator.add_delivery_handler([&](sim::Delivery&& d) {
    const NodeId self = d.to;
    simulator.schedule_delivery(arrival(), on_ack,
                                sim::Delivery{self, d.from, 0, {}, nullptr});
    if (echoed[self] == 0) {
      echoed[self] = 1;
      // First receipt arms the next-round ECHO broadcast (timer lane).
      const SimTime at = ((simulator.now() / kRound) + 1) * kRound;
      simulator.schedule(at, [&simulator, &arrival, &on_msg, self, n]() {
        for (NodeId to = 0; to < n; ++to) {
          if (to != self) {
            simulator.schedule_delivery(arrival(), on_msg,
                                        sim::Delivery{self, to, 0, {}, nullptr});
          }
        }
      });
    }
  });

  echoed[0] = 1;  // the initiator does not echo
  for (NodeId to = 1; to < n; ++to) {
    simulator.schedule_delivery(arrival(), on_msg,
                                sim::Delivery{0, to, 0, {}, nullptr});
  }
  simulator.run();

  out.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  out.events = reg.counter("sim.events_fired").value();
  out.end_time = simulator.now();
  return out;
}

void print_row(const PointResult& r) {
  std::printf("%6u %8.2f %9.3f %12llu %12.0f %9llu %6u %7.1f %6.1f%% %8.1f  %s\n",
              r.n, r.setup_s * 1e3, r.wall_s,
              static_cast<unsigned long long>(r.events), r.events_per_s(),
              static_cast<unsigned long long>(r.messages), r.rounds,
              r.virt_s, r.pool_hit_pct,
              static_cast<double>(r.rss_kb) / 1024.0,
              r.decided ? "decided" : "UNDECIDED");
}

}  // namespace

int main(int argc, char** argv) {
  bench::ObsOptions obs_opts = bench::parse_obs(argc, argv, "scale");
  bool quick = false;
  std::vector<std::uint32_t> ns_override;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--n") == 0 && i + 1 < argc) {
      for (const char* p = argv[++i]; *p != '\0';) {
        char* end = nullptr;
        long v = std::strtol(p, &end, 10);
        if (end == p) break;
        if (v > 0) ns_override.push_back(static_cast<std::uint32_t>(v));
        p = (*end == ',') ? end + 1 : end;
      }
    }
  }

  std::vector<std::uint32_t> ns =
      quick ? std::vector<std::uint32_t>{40, 200, 1000}
            : std::vector<std::uint32_t>{40, 200, 500, 1000, 2000};
  if (!ns_override.empty()) ns = ns_override;

  std::printf("event-engine scaling: one accounted ERB broadcast, t=1\n");
  std::printf("%6s %8s %9s %12s %12s %9s %6s %7s %7s %8s\n", "n",
              "setup_ms", "wall_s", "events", "events/s", "msgs", "rnds",
              "virt_s", "pool", "rss_MB");

  double wall_2000 = -1;
  bool deterministic = true;
  bool all_decided = true;
  std::vector<std::unique_ptr<obs::MetricsRegistry>> registries;
  std::vector<std::pair<std::uint32_t, double>> setup_by_n;

  for (std::uint32_t n : ns) {
    PointResult r = run_point(n);
    all_decided = all_decided && r.decided;
    setup_by_n.emplace_back(n, r.setup_s);
    if (n == 2000) wall_2000 = r.wall_s;
    print_row(r);
    registries.push_back(std::move(r.registry));
  }

  const std::uint32_t dispatch_n = 1000;
  if (std::find(ns.begin(), ns.end(), dispatch_n) != ns.end()) {
    std::printf("\nengine dispatch: same n=%u round event schedule, no-op "
                "receiver (engine isolated)\n", dispatch_n);
    std::printf("%6s %9s %12s %12s\n", "n", "wall_s", "events", "events/s");
    // Best of 3: a single rep is at the mercy of scheduler noise on shared
    // CI machines, and the virtual run is deterministic, so the fastest rep
    // is the least-perturbed measurement of the same work.
    DispatchResult best = run_dispatch(dispatch_n);
    for (int rep = 1; rep < 3; ++rep) {
      DispatchResult r = run_dispatch(dispatch_n);
      deterministic = deterministic && r.events == best.events &&
                      r.end_time == best.end_time;
      if (r.wall_s < best.wall_s) best = r;
    }
    std::printf("%6u %9.3f %12llu %12.0f\n", dispatch_n, best.wall_s,
                static_cast<unsigned long long>(best.events),
                best.events_per_s());
    std::printf("dispatch repeats (events, virtual end time): %s\n",
                deterministic ? "identical" : "MISMATCH");
  }

  if (wall_2000 >= 0) {
    std::printf("gate: n=2000 round budget %.0f s: %.1f s: %s\n", kBudget2000s,
                wall_2000, wall_2000 <= kBudget2000s ? "budget MET"
                                                     : "budget EXCEEDED");
  } else {
    std::printf("gate: n=2000 budget check skipped (--quick)\n");
  }
  if (!all_decided) std::printf("WARNING: some runs did not decide\n");

  // Fold every run into the process registry for --metrics-out, then stamp
  // the headline numbers as bench.* gauges.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::current();
  for (const auto& r : registries) obs::merge_snapshot(reg, r->snapshot());
  reg.gauge("bench.scale_max_n").set(static_cast<std::int64_t>(ns.back()));
  reg.gauge("bench.scale_deterministic").set(deterministic ? 1 : 0);
  reg.gauge("bench.scale_peak_rss_kb")
      .set(static_cast<std::int64_t>(bench::peak_rss_kb()));
  // Wall-clock, so gauges: the baseline compare reads counters only.
  for (const auto& [n, s] : setup_by_n) {
    reg.gauge("bench.scale_setup_us_" + std::to_string(n))
        .set(static_cast<std::int64_t>(s * 1e6));
  }
  bench::finish_obs(obs_opts);
  return deterministic && all_decided ? 0 : 1;
}
