// Event-engine determinism suite: the same seed must give byte-identical
// JSONL traces and metric snapshots — not merely "same decisions" — across
// every protocol stack. If any event fired in a different order the traces
// would diverge at that line.
//
// Golden digests pin the output of ERB, both ERNG variants, the
// crash-recovery scenario, the sharded epoch overlay, and an accounted-mode
// ERB run with two byzantine hosts to committed sha256 constants, so
// determinism rests on recorded values: a change that moves the event order
// fails here even if every run of the new code agrees with itself. Each run
// pins its JSONL trace and its metrics snapshot separately, so a change can
// show which of the two it moved.
//
// Also here: the BufferPool poisoning test (recycled capacity must never
// leak a previous message's bytes, and results must not depend on pool
// warmth) and the Network::detach FIFO-purge regression test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "adversary/strategies.hpp"
#include "crypto/sha256.hpp"
#include "net/network.hpp"
#include "net/simulator.hpp"
#include "net/testbed.hpp"
#include "obs/metrics.hpp"
#include "obs/pool.hpp"
#include "obs/trace.hpp"
#include "recovery/coordinator.hpp"
#include "shard/coordinator.hpp"
#include "testbed_util.hpp"

namespace sgxp2p {
namespace {

using protocol::ErbNode;
using protocol::ErngBasicNode;
using protocol::ErngOptNode;
using testutil::all_honest_done;
using testutil::all_honest_erb_decided;
using testutil::small_config;

// Everything observable about one protocol run.
struct Artifacts {
  std::string trace;    // full JSONL event trace
  std::string metrics;  // registry snapshot JSON
  std::uint32_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

// Runs `body` under a fresh registry and a recording tracer, then captures
// the run's trace + metrics. The pool is cleared first so both runs of a
// pair start from identical pool state; `clear_pool=false` deliberately
// leaves the previous run's warm pool in place for the warmth-independence
// test.
template <typename Body>
Artifacts capture(Body body, bool clear_pool = true) {
  if (clear_pool) obs::BufferPool::local().clear();
  obs::MetricsRegistry reg;
  obs::MetricsRegistry::ScopedCurrent bind(reg);
  auto& tr = obs::TraceRecorder::global();
  tr.enable();
  tr.reset();
  Artifacts a = body();
  EXPECT_EQ(tr.dropped(), 0u) << "trace ring overflowed; grow the capacity";
  a.trace = tr.to_jsonl();
  tr.disable();
  a.metrics = reg.to_json();
  return a;
}

Artifacts finish(sim::Testbed& bed, std::uint32_t rounds) {
  Artifacts a;
  a.rounds = rounds;
  a.messages = bed.network().meter().messages();
  a.bytes = bed.network().meter().bytes();
  return a;
}

Artifacts run_erb(bool clear_pool = true) {
  return capture(
      []() {
        auto cfg = small_config(25, 7);
        sim::Testbed bed(cfg);
        bed.build(testutil::erb_factory(0, to_bytes("engine-equivalence")));
        bed.start();
        std::uint32_t rounds = bed.run_rounds(cfg.effective_t() + 4,
                                              all_honest_erb_decided(bed));
        for (NodeId id : bed.honest_nodes()) {
          EXPECT_TRUE(bed.enclave_as<ErbNode>(id).result().decided);
        }
        return finish(bed, rounds);
      },
      clear_pool);
}

// Accounted ERB with two byzantine hosts: node 3 replays every blob it
// sends or receives, node 5 drops a quarter of them. Pins the accounted
// channel path of honest hosts and the path of hosts whose strategy
// handles every blob itself.
Artifacts run_erb_accounted() {
  return capture([]() {
    auto cfg = small_config(25, 7);
    cfg.mode = protocol::ChannelMode::kAccounted;
    const SimDuration round = cfg.effective_round();
    sim::Testbed bed(cfg);
    bed.build(testutil::erb_factory(0, to_bytes("engine-equivalence")),
              [round](NodeId id) -> std::unique_ptr<adversary::Strategy> {
                if (id == 3) {
                  return std::make_unique<adversary::ReplayStrategy>(round / 3);
                }
                if (id == 5) {
                  return std::make_unique<adversary::RandomOmissionStrategy>(
                      0.25, 0.25);
                }
                return nullptr;
              });
    bed.start();
    std::uint32_t rounds =
        bed.run_rounds(cfg.effective_t() + 4, all_honest_erb_decided(bed));
    for (NodeId id : bed.honest_nodes()) {
      const auto& r = bed.enclave_as<ErbNode>(id).result();
      EXPECT_TRUE(r.decided);
      EXPECT_EQ(r.value, to_bytes("engine-equivalence"));
    }
    return finish(bed, rounds);
  });
}

Artifacts run_erng_basic() {
  return capture([]() {
    auto cfg = small_config(9, 11);
    sim::Testbed bed(cfg);
    bed.build(testutil::erng_basic_factory());
    bed.start();
    std::uint32_t rounds = bed.run_rounds(cfg.effective_t() + 4,
                                          all_honest_done<ErngBasicNode>(bed));
    for (NodeId id : bed.honest_nodes()) {
      EXPECT_TRUE(bed.enclave_as<ErngBasicNode>(id).result().done);
    }
    return finish(bed, rounds);
  });
}

Artifacts run_erng_opt() {
  return capture([]() {
    auto cfg = small_config(12, 13);
    cfg.t = 3;
    sim::Testbed bed(cfg);
    bed.build(testutil::erng_opt_factory());
    bed.start();
    std::uint32_t rounds =
        bed.run_rounds(cfg.n, all_honest_done<ErngOptNode>(bed));
    for (NodeId id : bed.honest_nodes()) {
      EXPECT_TRUE(bed.enclave_as<ErngOptNode>(id).result().done);
    }
    return finish(bed, rounds);
  });
}

// Compact copy of the recovery scenario from test_recovery.cpp: node 1 of a
// 4-member roster crashes, restores from its newest sealed checkpoint, and
// rejoins; one extra node joins fresh afterwards.
Artifacts run_recovery() {
  return capture([]() {
    const std::uint32_t n = 4;
    const NodeId victim = 1;
    const NodeId extra = n;
    auto cfg = small_config(n + 1, 3);
    cfg.t = (n - 1) / 2;
    cfg.mode = protocol::ChannelMode::kAttested;
    const std::uint32_t W = cfg.t + 2;
    const std::uint32_t recover_at = 6 + 4;
    const std::size_t w_rejoin = (recover_at - 1 + W - 1) / W;

    std::vector<NodeId> roster0;
    for (NodeId id = 0; id < n; ++id) roster0.push_back(id);
    std::vector<protocol::JoinPlanEntry> plan(w_rejoin + 3);
    plan[w_rejoin] = {victim, NodeId{0}, true};
    plan[w_rejoin + 1] = {victim, NodeId{2}, true};
    plan[w_rejoin + 2] = {extra, NodeId{0}, false};

    sim::Testbed bed(cfg);
    sim::Testbed::EnclaveFactory factory =
        [roster0, plan](NodeId id, sgx::SgxPlatform& platform, net::Host& host,
                        protocol::PeerConfig pc, const sgx::SimIAS& ias)
        -> std::unique_ptr<protocol::PeerEnclave> {
      return std::make_unique<recovery::RecoverableNode>(platform, id, host,
                                                         pc, ias, roster0,
                                                         plan);
    };
    bed.build(factory);

    recovery::RecoveryPlan rp;
    rp.victim = victim;
    rp.crash_round = 6;
    rp.recover_round = recover_at;
    rp.checkpoint_interval = 2;
    recovery::RecoveryCoordinator coord(bed, factory, rp);
    coord.install();

    bed.start();
    std::uint32_t rounds =
        bed.run_rounds(static_cast<std::uint32_t>((w_rejoin + 4) * W));
    EXPECT_TRUE(coord.rejoin_complete());
    return finish(bed, rounds);
  });
}

// Sharded epoch overlay: 24 nodes in committees of 6, two chained epochs.
// The global digest hashes every committee's accepted values, so it
// transitively pins the election, committee ERB scheduling, CONFIRM gating,
// and the dissemination tree.
Artifacts run_shard() {
  return capture([]() {
    sim::TestbedConfig cfg;
    cfg.n = 24;
    cfg.seed = 5;
    cfg.t = 1;  // ShardNode budgets per committee (t_c), not via PeerConfig
    cfg.net.base_delay = milliseconds(100);
    cfg.net.max_jitter = milliseconds(100);
    sim::Testbed bed(cfg);
    bed.build(shard::ShardCoordinator::make_factory());
    bed.start();
    shard::ShardConfig scfg;
    scfg.committee_size = 6;
    scfg.epochs = 2;
    shard::ShardCoordinator coord(bed, scfg);
    coord.run_all();
    EXPECT_TRUE(coord.all_ok());
    EXPECT_EQ(coord.summaries().size(), 2u);
    return finish(bed, bed.rounds_run());
  });
}

void expect_identical(const Artifacts& a, const Artifacts& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.metrics, b.metrics);
}

// Same seed, run twice in one process → byte-identical traces and metrics.
TEST(EventEngineEquivalence, WheelSelfDeterministic) {
  expect_identical(run_erb(), run_erb());
}

// ---------------------------------------------------------------------------
// Golden digests: hex sha256 of the JSONL trace and, separately, of the
// metrics snapshot JSON, per stack at the fixed seeds above. A mismatch is
// a behaviour change (event order, a trace field, a metric) that needs
// explaining — never a constant to refresh without saying why the output
// moved.

std::string sha256_hex(const std::string& text) {
  return hex_encode(crypto::Sha256::hash(to_bytes(text)));
}

void expect_golden(const Artifacts& a, const char* trace_sha256,
                   const char* metrics_sha256) {
  const std::string trace = sha256_hex(a.trace);
  const std::string metrics = sha256_hex(a.metrics);
  EXPECT_EQ(trace, trace_sha256) << "actual trace digest: " << trace;
  EXPECT_EQ(metrics, metrics_sha256) << "actual metrics digest: " << metrics
                                     << "\nmetrics: " << a.metrics;
}

TEST(EventEngineGolden, Erb) {
  expect_golden(
      run_erb(),
      "19d82d797a09a8a155ef2a27086e9a1aaa22d58ae538bea37d814d354c15632f",
      "1285cb82abbad9d39e33b9a26e80db61844537c7b7b98a765c6848ad6a646ab8");
}

TEST(EventEngineGolden, ErbAccounted) {
  expect_golden(
      run_erb_accounted(),
      "016675b2133f720a9424577668a073cb50cf959af9bcee618099b9f1c93e6d51",
      "1641b795fdd3154db6365ef772d70e2f8e89c3835adeb2356f63bb10887efd5f");
}

TEST(EventEngineGolden, ErngBasic) {
  expect_golden(
      run_erng_basic(),
      "fd9d475a5f8c247b4c9f1d9857feeded19ae38c27b013bd273639db29f2857f8",
      "7aa5d1faed3581a15141135ad83ea29261be61eaed102f490482f30fa87b0654");
}

TEST(EventEngineGolden, ErngOpt) {
  expect_golden(
      run_erng_opt(),
      "9650829ab852be52256d9803ef9f63600a46044cfa931823a988ab967bd44017",
      "4a7c306c65b84c2df4fdc676ffee08e22bae9c062443eb4164eda1beb19c6c1b");
}

TEST(EventEngineGolden, Recovery) {
  expect_golden(
      run_recovery(),
      "720bd3d7596984070107c9daae4bf84b15d26597c987204b3c27b690dc63d73e",
      "832daf96704ae0576959776c7d34a87be14216e67b053a23e2cc4d04e6c7ea43");
}

TEST(EventEngineGolden, ShardEpochs) {
  expect_golden(
      run_shard(),
      "151912dbda67a06ceecf428f085475d3d83dbfad06f5d45fa699ff8eaf8f1f0c",
      "b3299cbc73903f3604f5d10e68cda32d0c5d29a5f8e7fa56d454c479b7c33be3");
}

// ---------------------------------------------------------------------------
// BufferPool poisoning: recycled capacity never leaks previous contents,
// and protocol output is independent of pool warmth.

TEST(BufferPoolPoison, RecycledBuffersAreZeroFilled) {
  auto& pool = obs::BufferPool::local();
  pool.clear();

  Bytes secret = pool.acquire(64);
  std::fill(secret.begin(), secret.end(), std::uint8_t{0xAB});
  pool.release(std::move(secret));
  ASSERT_EQ(pool.free_buffers(), 1u);

  // Same-size reuse: contents must equal a fresh Bytes(64).
  Bytes reused = pool.acquire(64);
  EXPECT_EQ(reused, Bytes(64));

  // Shrinking reuse: the poisoned tail beyond size() must not resurface
  // through a later grow-in-place.
  std::fill(reused.begin(), reused.end(), std::uint8_t{0xCD});
  pool.release(std::move(reused));
  Bytes small = pool.acquire(16);
  EXPECT_EQ(small, Bytes(16));
  small.resize(64);
  EXPECT_EQ(small, Bytes(64));
}

TEST(BufferPoolPoison, AcquireEmptyIsEmptyWithCapacity) {
  auto& pool = obs::BufferPool::local();
  pool.clear();
  // Cold pool: the miss still honours the requested capacity.
  Bytes cold = pool.acquire_empty(100);
  EXPECT_TRUE(cold.empty());
  EXPECT_GE(cold.capacity(), 100u);
  Bytes dirty = pool.acquire(128);
  std::fill(dirty.begin(), dirty.end(), std::uint8_t{0xEE});
  pool.release(std::move(dirty));
  Bytes empty = pool.acquire_empty(100);
  EXPECT_TRUE(empty.empty());
  EXPECT_GE(empty.capacity(), 100u);
}

TEST(BufferPoolPoison, OutputsIndependentOfPoolWarmth) {
  Artifacts cold = run_erb();
  // Second run reuses whatever the first left in the thread's pool.
  ASSERT_GT(obs::BufferPool::local().free_buffers(), 0u);
  Artifacts warm = run_erb(/*clear_pool=*/false);
  expect_identical(cold, warm);
}

// ---------------------------------------------------------------------------
// Network::detach must purge per-pair FIFO state (regression: long churn
// episodes grew the FIFO map without bound).

TEST(NetworkDetach, PurgesFifoStateBothDirections) {
  obs::MetricsRegistry reg;
  obs::MetricsRegistry::ScopedCurrent bind(reg);
  sim::Simulator simulator(reg);
  sim::Network net(simulator, sim::NetworkConfig{}, reg);
  for (NodeId id = 0; id < 3; ++id) {
    net.attach(id, [](NodeId, Bytes) {});
  }
  for (NodeId from = 0; from < 3; ++from) {
    for (NodeId to = 0; to < 3; ++to) {
      if (from != to) net.send(from, to, to_bytes("x"));
    }
  }
  simulator.run();
  EXPECT_EQ(net.fifo_entries(), 6u);  // all ordered pairs

  net.detach(1);
  EXPECT_FALSE(net.attached(1));
  EXPECT_EQ(net.fifo_entries(), 2u);  // only 0→2 and 2→0 survive

  net.detach(0);
  net.detach(2);
  EXPECT_EQ(net.fifo_entries(), 0u);
}

TEST(NetworkDetach, PurgesSparseIdFallback) {
  // Ids ≥ the dense-table bound (2²⁰) exercise the map fallback for both
  // the sink table and the FIFO state.
  const NodeId far_id = (1u << 20) + 7;
  obs::MetricsRegistry reg;
  obs::MetricsRegistry::ScopedCurrent bind(reg);
  sim::Simulator simulator(reg);
  sim::Network net(simulator, sim::NetworkConfig{}, reg);
  net.attach(0, [](NodeId, Bytes) {});
  net.attach(far_id, [](NodeId, Bytes) {});
  EXPECT_TRUE(net.attached(far_id));
  net.send(0, far_id, to_bytes("out"));
  net.send(far_id, 0, to_bytes("back"));
  simulator.run();
  EXPECT_EQ(net.fifo_entries(), 2u);

  net.detach(far_id);
  EXPECT_FALSE(net.attached(far_id));
  EXPECT_EQ(net.fifo_entries(), 0u);
}

// ---------------------------------------------------------------------------
// FIFO state must grow with the pairs that actually talk, never O(n²)
// (regression: the pre-shard dense matrix allocated n·4096 slots up front,
// which at n = 100k would be 4 × 10¹¹ entries).

TEST(NetworkCapacity, FifoSlotsTrackTalkingPairsNotN2) {
  obs::MetricsRegistry reg;
  obs::MetricsRegistry::ScopedCurrent bind(reg);
  sim::Simulator simulator(reg);
  sim::Network net(simulator, sim::NetworkConfig{}, reg);
  // 50k attached nodes, but each of 200 senders talks to only 8 scattered
  // destinations — shard-like sparsity. Slots must stay ≈ #pairs.
  const NodeId n = 50000;
  const std::uint32_t senders = 200;
  const std::uint32_t fanout = 8;
  std::set<NodeId> attached;
  auto ensure = [&](NodeId id) {
    if (attached.insert(id).second) net.attach(id, [](NodeId, Bytes) {});
  };
  std::size_t pairs = 0;
  for (std::uint32_t s = 0; s < senders; ++s) {
    const NodeId from = (s * 9973u) % n;
    ensure(from);
    for (std::uint32_t k = 0; k < fanout; ++k) {
      const NodeId to = (from + 1 + k * 6131u) % n;
      if (to == from) continue;
      ensure(to);
      net.send(from, to, to_bytes("sparse"));
      ++pairs;
    }
  }
  simulator.run();
  net.publish_capacity_gauges();
  EXPECT_EQ(net.fifo_entries(), pairs);
  // Proportional to pairs (each sparse slot is exact; no row reached the
  // dense-promotion threshold), nowhere near n² or even n.
  EXPECT_LE(net.fifo_pair_slots(), pairs);
  EXPECT_LT(net.fifo_pair_slots(), static_cast<std::size_t>(n));
  // Sink slots track the highest attached small id, not n².
  EXPECT_LE(net.sink_slots(), static_cast<std::size_t>(n));
  EXPECT_EQ(reg.gauge("net.fifo_pair_slots").value(),
            static_cast<std::int64_t>(net.fifo_pair_slots()));
  EXPECT_EQ(reg.gauge("net.sink_slots").value(),
            static_cast<std::int64_t>(net.sink_slots()));
}

TEST(NetworkCapacity, HotRowPromotesToDenseWithoutLosingOrder) {
  obs::MetricsRegistry reg;
  obs::MetricsRegistry::ScopedCurrent bind(reg);
  sim::Simulator simulator(reg);
  sim::Network net(simulator, sim::NetworkConfig{}, reg);
  // One clique-style sender fanning out to 64 small ids crosses the
  // promotion threshold (48); the row flips to a dense prefix column and
  // per-pair sequencing must survive the migration mid-stream.
  const std::uint32_t fanout = 64;
  std::vector<int> got(fanout, 0);
  net.attach(1000, [](NodeId, Bytes) {});
  for (NodeId to = 0; to < fanout; ++to) {
    got[to] = 0;
    net.attach(to, [&got, to](NodeId, Bytes) { ++got[to]; });
  }
  for (int round = 0; round < 3; ++round) {
    for (NodeId to = 0; to < fanout; ++to) {
      net.send(1000, to, to_bytes("hot"));
    }
  }
  simulator.run();
  for (NodeId to = 0; to < fanout; ++to) EXPECT_EQ(got[to], 3);
  EXPECT_EQ(net.fifo_entries(), static_cast<std::size_t>(fanout));
  // Promoted row costs ≤ max-small-id slots — bounded, and detach of the
  // sender releases the whole row.
  EXPECT_LE(net.fifo_pair_slots(), static_cast<std::size_t>(fanout) + 4096);
  net.detach(1000);
  EXPECT_EQ(net.fifo_entries(), 0u);
}

TEST(NetworkDetach, QueuedDeliveryToDetachedNodeIsDropped) {
  obs::MetricsRegistry reg;
  obs::MetricsRegistry::ScopedCurrent bind(reg);
  sim::Simulator simulator(reg);
  sim::Network net(simulator, sim::NetworkConfig{}, reg);
  int received = 0;
  net.attach(0, [](NodeId, Bytes) {});
  net.attach(1, [&received](NodeId, Bytes) { ++received; });
  net.send(0, 1, to_bytes("in-flight"));
  net.detach(1);  // before the delivery fires
  simulator.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(reg.counter("net.dropped").value(), 1u);
}

// ---------------------------------------------------------------------------
// Scale smoke (slow label): one ERB broadcast at n=500 — large enough that
// the pre-wheel heap engine visibly dragged, small enough for CI.

TEST(EventEngineScale, Erb500Decides) {
  auto cfg = small_config(500, 99);
  cfg.mode = protocol::ChannelMode::kAccounted;
  sim::Testbed bed(cfg);
  bed.build(testutil::erb_factory(0, to_bytes("scale-smoke")));
  bed.start();
  bed.run_rounds(12, all_honest_erb_decided(bed));
  for (NodeId id : bed.honest_nodes()) {
    const auto& r = bed.enclave_as<ErbNode>(id).result();
    ASSERT_TRUE(r.decided);
    EXPECT_TRUE(r.value.has_value());
  }
  EXPECT_GT(bed.registry().counter("sim.deliveries").value(), 250000u);
}

}  // namespace
}  // namespace sgxp2p
