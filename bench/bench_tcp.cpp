// bench_tcp — the real-socket data plane.
//
// Measures the epoll event-loop TcpBus (edge-triggered reads, writev
// coalescing, refcounted multicast, backpressure) over genuine localhost
// TCP:
//
//   * multicast blast throughput — node 0 fans a payload out to n−1 peers M
//     times; reports msgs/s and send-side syscalls/msg (writev coalescing
//     makes the latter < 1 for small frames);
//   * ping-pong round latency — n=2 echo loop, p50/p99 microseconds;
//   * ERB decide latency — the full protocol stack on TcpTestbed,
//     wall-clock milliseconds to every honest decision.
//
// Gate: send-side syscalls/msg < 0.5 at n=32/64B; the exit status is
// non-zero when it is not met. Timing numbers land in `bench.tcp.epoll.*`
// gauges (never CI-gated); the planned work — point count, multicasts per
// point, total frames, ping-pong iterations, ERB n — lands in `tcp.plan.*`
// counters that are pure functions of the flags, so
// `check_bench_json --compare --compare-keys tcp.plan.` gates them exactly.
//
// Flags: --quick (CI sizing), --metrics-out [path] (default BENCH_tcp.json).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "net/tcp_bus.hpp"
#include "net/tcp_testbed.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace sgxp2p;
using clock_t_ = std::chrono::steady_clock;

double seconds_since(clock_t_::time_point t0) {
  return std::chrono::duration<double>(clock_t_::now() - t0).count();
}

/// Spins (yielding) until `done` or the deadline passes. Returns false on
/// timeout — the bench aborts rather than hangs in CI.
template <typename Pred>
bool wait_until(const Pred& done, double timeout_s) {
  const auto deadline = clock_t_::now() + std::chrono::duration_cast<
      clock_t_::duration>(std::chrono::duration<double>(timeout_s));
  while (!done()) {
    if (clock_t_::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

struct ThroughputResult {
  double msgs_per_s = 0;
  double syscalls_per_msg = 0;  // send-side: writev/sendmsg calls per frame
};

/// One blast point: `multicasts` fan-outs of a `payload_size` blob from
/// node 0 to everyone else; msgs/s counts delivered frames. The sender
/// paces on the receive counter so queues stay far below the watermark —
/// the bench measures the drain rate, not the queue depth.
ThroughputResult run_throughput(std::uint32_t n, std::size_t payload_size,
                                std::uint64_t multicasts) {
  net::TcpBus bus(n);
  std::atomic<std::uint64_t> received{0};
  bus.set_receiver([&](NodeId, NodeId, Bytes) {
    received.fetch_add(1, std::memory_order_relaxed);
  });
  if (!bus.start()) {
    std::fprintf(stderr, "bench_tcp: mesh bring-up failed (n=%u)\n", n);
    std::exit(1);
  }

  Bytes payload(payload_size);
  for (std::size_t i = 0; i < payload_size; ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  std::vector<NodeId> group;
  for (NodeId id = 1; id < n; ++id) group.push_back(id);

  const std::uint64_t expected = multicasts * (n - 1);
  constexpr std::uint64_t kWindowFrames = 4096;  // in-flight cap, ≪ watermark

  const auto t0 = clock_t_::now();
  for (std::uint64_t m = 0; m < multicasts; ++m) {
    if (!wait_until(
            [&] {
              return m * (n - 1) - received.load(std::memory_order_relaxed) <=
                     kWindowFrames;
            },
            30.0)) {
      std::fprintf(stderr, "bench_tcp: receiver stalled (n=%u)\n", n);
      std::exit(1);
    }
    while (bus.multicast(0, group, Bytes(payload)) ==
           net::SendStatus::kBackpressure) {
      std::this_thread::yield();
    }
  }
  if (!wait_until(
          [&] { return received.load(std::memory_order_relaxed) >= expected; },
          30.0)) {
    std::fprintf(stderr, "bench_tcp: delivery incomplete (n=%u): %llu/%llu\n",
                 n,
                 static_cast<unsigned long long>(received.load()),
                 static_cast<unsigned long long>(expected));
    std::exit(1);
  }
  const double elapsed = seconds_since(t0);
  bus.stop();

  ThroughputResult r;
  r.msgs_per_s = static_cast<double>(expected) / elapsed;
  obs::MetricsSnapshot snap = obs::MetricsRegistry::current().snapshot();
  const obs::CounterSample* writev = snap.find_counter("net.tcp.writev_calls");
  // A run with no writev counter is scored as one syscall per frame.
  r.syscalls_per_msg =
      writev != nullptr
          ? static_cast<double>(writev->value) / static_cast<double>(expected)
          : 1.0;
  return r;
}

struct LatencyResult {
  double p50_us = 0;
  double p99_us = 0;
};

/// n=2 echo loop: node 1's receiver bounces every frame straight back (on
/// the bus I/O thread), node 0 times the round trip.
LatencyResult run_pingpong(std::uint64_t iters) {
  net::TcpBus bus(2);
  std::atomic<std::uint64_t> pongs{0};
  bus.set_receiver([&](NodeId to, NodeId, Bytes blob) {
    if (to == 1) {
      (void)bus.send(1, 0, std::move(blob));
    } else {
      pongs.fetch_add(1, std::memory_order_release);
    }
  });
  if (!bus.start()) {
    std::fprintf(stderr, "bench_tcp: ping-pong bring-up failed\n");
    std::exit(1);
  }

  Bytes ping = to_bytes("ping-pong frame: 32 bytes of load");
  std::vector<double> rtts_us;
  rtts_us.reserve(iters);
  for (std::uint64_t i = 0; i < iters; ++i) {
    const auto t0 = clock_t_::now();
    (void)bus.send(0, 1, Bytes(ping));
    if (!wait_until(
            [&] { return pongs.load(std::memory_order_acquire) > i; }, 10.0)) {
      std::fprintf(stderr, "bench_tcp: ping-pong stalled at %llu\n",
                   static_cast<unsigned long long>(i));
      std::exit(1);
    }
    rtts_us.push_back(seconds_since(t0) * 1e6);
  }
  bus.stop();

  std::sort(rtts_us.begin(), rtts_us.end());
  LatencyResult r;
  r.p50_us = rtts_us[rtts_us.size() / 2];
  r.p99_us = rtts_us[std::min(rtts_us.size() - 1,
                              (rtts_us.size() * 99) / 100)];
  return r;
}

struct ErbResult {
  double decide_ms = 0;   // wall clock from start() to all-honest-decided
  std::uint32_t rounds = 0;
};

/// Full ERB stack on TcpTestbed — sealed channels, wall-clock rounds.
ErbResult run_erb_tcp(std::uint32_t n, SimDuration round_ms) {
  net::TcpTestbedConfig cfg;
  cfg.n = n;
  cfg.t = (n - 1) / 2;
  cfg.round_ms = round_ms;
  net::TcpTestbed bed(cfg);

  if (!bed.build(scenario::erb_factory(0, to_bytes("bench_tcp erb payload")))) {
    std::fprintf(stderr, "bench_tcp: erb mesh bring-up failed (n=%u)\n", n);
    std::exit(1);
  }
  std::vector<NodeId> all(n);
  std::iota(all.begin(), all.end(), NodeId{0});
  const auto t0 = clock_t_::now();
  bed.start();
  ErbResult r;
  r.rounds =
      bed.run_rounds(bed.config().t + 6, scenario::honest_done(bed, all));
  r.decide_ms = seconds_since(t0) * 1e3;
  if (!scenario::collect(bed, r.rounds, all).honest_done()) {
    std::fprintf(stderr, "bench_tcp: erb did not decide within %u rounds\n",
                 r.rounds);
    std::exit(1);
  }
  return r;
}

/// Runs `fn` against a fresh registry (so each point's net.tcp.* counters
/// start at zero), folds the snapshot into the parent, returns the result.
template <typename Fn>
auto isolated(obs::MetricsRegistry& parent, const Fn& fn) {
  obs::MetricsRegistry reg;
  using R = decltype(fn());
  R result;
  {
    obs::MetricsRegistry::ScopedCurrent bind(reg);
    result = fn();
  }
  obs::merge_snapshot(parent, reg.snapshot());
  return result;
}

std::int64_t i64(double v) { return static_cast<std::int64_t>(v); }

}  // namespace

int main(int argc, char** argv) {
  bench::ObsOptions obs_opts = bench::parse_obs(argc, argv, "tcp");
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  const std::uint64_t multicasts = quick ? 2000 : 10000;
  const std::uint64_t pingpong_iters = quick ? 500 : 2000;
  const std::uint32_t erb_n = quick ? 8 : 16;
  const SimDuration erb_round_ms = 150;
  const std::vector<std::uint32_t> ns = {8, 32};
  const std::vector<std::size_t> payloads = {64, 1024};

  auto& reg = obs::MetricsRegistry::current();
  std::printf("=== bench_tcp: epoll data plane ===\n");
  std::printf("multicasts/point %llu, ping-pong iters %llu, erb n=%u "
              "(%s mode)\n\n",
              static_cast<unsigned long long>(multicasts),
              static_cast<unsigned long long>(pingpong_iters), erb_n,
              quick ? "quick" : "full");

  // --- multicast blast throughput ---
  std::printf("[multicast throughput, node 0 -> n-1 peers]\n");
  std::printf("  %4s %7s %14s %14s\n", "n", "payload", "msgs/s",
              "syscalls/msg");
  double n32_small_syscalls = 1.0;
  std::uint64_t planned_frames = 0;
  for (std::uint32_t n : ns) {
    for (std::size_t payload : payloads) {
      ThroughputResult r = isolated(
          reg, [&] { return run_throughput(n, payload, multicasts); });
      planned_frames += multicasts * (n - 1);
      std::printf("  %4u %6zuB %14.0f %14.3f\n", n, payload, r.msgs_per_s,
                  r.syscalls_per_msg);
      const std::string key = "bench.tcp.epoll.n" + std::to_string(n) + ".p" +
                              std::to_string(payload);
      reg.gauge(key + ".msgs_per_s").set(i64(r.msgs_per_s));
      reg.gauge(key + ".syscalls_per_msg_x1000")
          .set(i64(r.syscalls_per_msg * 1000.0));
      if (n == 32 && payload == 64) n32_small_syscalls = r.syscalls_per_msg;
    }
  }

  // --- ping-pong round latency ---
  std::printf("\n[ping-pong round latency, n=2]\n");
  const LatencyResult lat =
      isolated(reg, [&] { return run_pingpong(pingpong_iters); });
  std::printf("  p50 %8.1f us   p99 %8.1f us\n", lat.p50_us, lat.p99_us);
  reg.gauge("bench.tcp.epoll.pingpong_p50_us").set(i64(lat.p50_us));
  reg.gauge("bench.tcp.epoll.pingpong_p99_us").set(i64(lat.p99_us));

  // --- ERB decide latency over the full stack ---
  std::printf("\n[erb decide latency, n=%u, round=%lldms]\n", erb_n,
              static_cast<long long>(erb_round_ms));
  const ErbResult erb =
      isolated(reg, [&] { return run_erb_tcp(erb_n, erb_round_ms); });
  std::printf("  decided in %7.0f ms (%u rounds)\n", erb.decide_ms,
              erb.rounds);
  reg.gauge("bench.tcp.epoll.erb_decide_ms").set(i64(erb.decide_ms));
  reg.gauge("bench.tcp.epoll.erb_rounds").set(erb.rounds);

  // --- summary + acceptance gate (the exit status) ---
  const bool coalesced = n32_small_syscalls < 0.5;
  std::printf("\n[summary]\n");
  std::printf("  send-side syscalls/msg at n=32/64B: %.3f (target < 0.5)\n",
              n32_small_syscalls);
  std::printf("  target %s\n", coalesced ? "MET" : "NOT met");

  // Deterministic plan counters — exact-compare material for CI.
  reg.counter("tcp.plan.points").inc(ns.size() * payloads.size());
  reg.counter("tcp.plan.multicasts_per_point").inc(multicasts);
  reg.counter("tcp.plan.frames").inc(planned_frames);
  reg.counter("tcp.plan.pingpong_iters").inc(pingpong_iters);
  reg.counter("tcp.plan.erb_nodes").inc(erb_n);

  bench::finish_obs(obs_opts);
  return coalesced ? 0 : 1;
}
