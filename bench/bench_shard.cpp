// bench_shard — sharded epoch sweep: committee election + committee-local
// ERB + tree dissemination at n up to 100,000 nodes.
//
// The clique protocols cost O(n) messages per node and O(n²) total; the
// shard overlay (src/shard/, docs/SHARDING.md) runs the full ERB machinery
// only inside c = O(log n) sized committees and stitches the per-committee
// digests through a constant-fanout tree, so per-node message cost is
// O(c·m) = O(log² n). This bench proves that scaling end to end:
//
//  1. Sweep: one full epoch at each n (accounted channel mode, sparse
//     setup — the testbed bootstrap is told each node has no pre-wired
//     out-neighbors, so neither setup nor the network's FIFO state is
//     O(n²)). Per point: wall clock, rounds, total messages, messages per
//     node, bytes, agreement/validity oracles, allocated FIFO/sink slots,
//     peak RSS.
//  2. Sublinearity gate (printed + exit code): msgs/node at the largest n
//     must be ≤ 2× msgs/node at the smallest — a 10× n increase may buy at
//     most one committee-size increment, not proportional traffic.
//  3. Repeat agreement: a second run at the cross-check size must give the
//     first run's epoch digest, message count and rounds byte for byte.
//
//   bench_shard                 # full sweep: n ∈ {10000, 100000}
//   bench_shard --quick         # CI mode: n ∈ {2000, 10000}
//   bench_shard --n 500,5000    # override the sweep points
//   bench_shard --epochs 2      # chained epochs per point (default 1)
//   bench_shard --metrics-out [path]   # BENCH_shard.json
//
// Exit 0 iff every point's oracles pass, the repeat agrees, and the
// sublinearity gate holds.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "obs/pool.hpp"
#include "shard/coordinator.hpp"

namespace {

using namespace sgxp2p;

/// Cumulative process peak RSS in KiB (Linux VmHWM; 0 where unavailable).
long peak_rss_kb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atol(line.c_str() + 6);
    }
  }
  return 0;
}

struct PointResult {
  std::uint32_t n = 0;
  std::uint32_t committees = 0;
  std::uint32_t committee_size = 0;
  std::uint32_t rounds = 0;
  double wall_s = 0;
  double virt_s = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::size_t fifo_slots = 0;
  std::size_t sink_slots = 0;
  bool ok = false;  // every epoch's termination+agreement+validity
  Bytes digest;     // last epoch's agreed global digest
  long rss_kb = 0;
  std::unique_ptr<obs::MetricsRegistry> registry;

  [[nodiscard]] double msgs_per_node() const {
    return n > 0 ? static_cast<double>(messages) / n : 0;
  }
};

PointResult run_point(std::uint32_t n, std::uint64_t epochs) {
  PointResult out;
  out.n = n;
  out.registry = std::make_unique<obs::MetricsRegistry>();
  obs::MetricsRegistry::ScopedCurrent bind(*out.registry);
  obs::BufferPool::local().clear();  // cold pool per point

  sim::TestbedConfig cfg =
      bench::bench_config(n, 1, protocol::ChannelMode::kAccounted);
  // Sharded deployment: no pre-wired clique. Accounted channels need no
  // per-peer link state, so the bootstrap stays O(n) and FIFO slots grow
  // with pairs that actually talk (committee-mates + tree reps).
  cfg.setup_peers = [](NodeId) { return std::vector<NodeId>{}; };
  sim::Testbed bed(cfg);
  bed.build(shard::ShardCoordinator::make_factory());
  bed.start();

  shard::ShardConfig scfg;
  scfg.epochs = epochs;
  shard::ShardCoordinator coord(bed, std::move(scfg));

  auto t0 = std::chrono::steady_clock::now();
  const std::vector<shard::EpochSummary> summaries = coord.run_all();
  out.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  out.committees =
      static_cast<std::uint32_t>(coord.election().committees().size());
  out.committee_size = coord.election().committee_size();
  out.rounds = bed.rounds_run();
  out.messages = bed.network().meter().messages();
  out.bytes = bed.network().meter().bytes();
  out.virt_s = to_seconds(bed.simulator().now() - bed.start_time());
  out.ok = coord.all_ok() && !summaries.empty();
  if (!summaries.empty()) out.digest = summaries.back().global_digest;
  bed.network().publish_capacity_gauges();
  out.fifo_slots = bed.network().fifo_pair_slots();
  out.sink_slots = bed.network().sink_slots();
  out.rss_kb = peak_rss_kb();
  return out;
}

void print_row(const PointResult& r) {
  std::printf(
      "%7u %5u %4u %6u %9.2f %7.1f %12llu %10.1f %8.2f %10zu %8.1f  %s\n",
      r.n, r.committees, r.committee_size, r.rounds, r.wall_s, r.virt_s,
      static_cast<unsigned long long>(r.messages), r.msgs_per_node(),
      static_cast<double>(r.bytes) / (1024.0 * 1024.0), r.fifo_slots,
      static_cast<double>(r.rss_kb) / 1024.0,
      r.ok ? "oracles OK" : "ORACLE FAIL");
}

}  // namespace

int main(int argc, char** argv) {
  bench::ObsOptions obs_opts = bench::parse_obs(argc, argv, "shard");
  bool quick = false;
  std::uint64_t epochs = 1;
  std::vector<std::uint32_t> ns_override;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--epochs") == 0 && i + 1 < argc) {
      long v = std::atol(argv[++i]);
      if (v > 0) epochs = static_cast<std::uint64_t>(v);
    }
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
      quick ? std::vector<std::uint32_t>{2000, 10000}
            : std::vector<std::uint32_t>{10000, 100000};
  if (!ns_override.empty()) ns = ns_override;

  std::printf("sharded epochs: committee ERB + tree dissemination, "
              "accounted mode, %llu epoch(s)/point\n",
              static_cast<unsigned long long>(epochs));
  std::printf("%7s %5s %4s %6s %9s %7s %12s %10s %8s %10s %8s\n", "n", "K",
              "c", "rnds", "wall_s", "virt_s", "msgs", "msgs/node", "MB",
              "fifo_slot", "rss_MB");

  bool all_ok = true;
  std::vector<std::unique_ptr<obs::MetricsRegistry>> registries;
  std::vector<PointResult> points;
  for (std::uint32_t n : ns) {
    PointResult r = run_point(n, epochs);
    all_ok = all_ok && r.ok;
    print_row(r);
    registries.push_back(std::move(r.registry));
    points.push_back(std::move(r));
  }

  // Repeat agreement: the agreed epoch digest — a hash over every
  // committee's accepted values — must be byte-identical in a second
  // same-seed run, which transitively pins election, ERB message ordering,
  // and the dissemination tree. Only the first check run's registry is
  // merged.
  const std::uint32_t check_n = std::min<std::uint32_t>(ns.front(), 2000);
  PointResult first_chk = run_point(check_n, epochs);
  PointResult repeat_chk = run_point(check_n, epochs);
  const bool deterministic =
      first_chk.ok && !first_chk.digest.empty() && repeat_chk.ok &&
      first_chk.digest == repeat_chk.digest &&
      first_chk.messages == repeat_chk.messages &&
      first_chk.rounds == repeat_chk.rounds;
  registries.push_back(std::move(first_chk.registry));
  std::printf("\nrepeat agreement at n=%u (digest/msgs/rounds): %s\n", check_n,
              deterministic ? "identical" : "MISMATCH");

  // Sublinearity gate: per-node message cost may roughly track the
  // committee-size increment (log n), never the 10× node-count jump.
  const double first = points.front().msgs_per_node();
  const double last = points.back().msgs_per_node();
  const double ratio = first > 0 ? last / first : 0;
  const bool sublinear = ratio > 0 && ratio <= 2.0;
  std::printf(
      "gate: msgs/node n=%u vs n=%u = %.1f vs %.1f (%.2fx, target <= 2x): "
      "%s\n",
      points.back().n, points.front().n, last, first, ratio,
      sublinear ? "target MET" : "target NOT met");
  std::printf("gate: agreement/validity oracles at every point: %s\n",
              all_ok ? "target MET" : "target NOT met");

  obs::MetricsRegistry& reg = obs::MetricsRegistry::current();
  for (const auto& r : registries) obs::merge_snapshot(reg, r->snapshot());
  reg.gauge("bench.shard_max_n")
      .set(static_cast<std::int64_t>(points.back().n));
  reg.gauge("bench.shard_msgs_per_node_x100")
      .set(static_cast<std::int64_t>(last * 100.0));
  reg.gauge("bench.shard_sublinear_ratio_x100")
      .set(static_cast<std::int64_t>(ratio * 100.0));
  reg.gauge("bench.shard_oracles_ok").set(all_ok ? 1 : 0);
  reg.gauge("bench.shard_deterministic").set(deterministic ? 1 : 0);
  reg.gauge("bench.shard_peak_rss_kb")
      .set(static_cast<std::int64_t>(peak_rss_kb()));
  bench::finish_obs(obs_opts);
  return all_ok && deterministic && sublinear ? 0 : 1;
}
