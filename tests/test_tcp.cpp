// TCP transport tests: bus framing and delivery, the epoll data plane's
// failure modes (backpressure, reconnect, torn/oversized frames, multicast
// identity), then full protocol runs (ERB, ERNG) over real localhost sockets
// with wall-clock rounds, and single-endpoint buses (one node per bus, as in
// a multi-process deployment) talking to each other. Kept small and fast
// (sub-second rounds) since CI
// time is real time here; the n=64 soak and the real-socket fuzz replays
// carry the `slow` label.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "fuzz/schedule.hpp"
#include "fuzz/tcp_runner.hpp"
#include "net/tcp_bus.hpp"
#include "net/tcp_testbed.hpp"
#include "obs/metrics.hpp"
#include "scenario/scenario.hpp"

namespace sgxp2p::net {
namespace {

/// Polls `done` (yield + 1 ms sleep) until it holds or `timeout_ms` passes.
bool eventually(const std::function<bool()>& done, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

std::uint64_t counter_value(const obs::MetricsRegistry& reg,
                            const char* name) {
  obs::MetricsSnapshot snap = reg.snapshot();
  const obs::CounterSample* c = snap.find_counter(name);
  return c != nullptr ? c->value : 0;
}

/// A framed header as the wire expects it: u32 len ‖ u32 from ‖ u32 to.
Bytes raw_frame(std::uint32_t len, NodeId from, NodeId to, Bytes payload) {
  std::uint8_t header[12];
  store_le32(header, len);
  store_le32(header + 4, from);
  store_le32(header + 8, to);
  Bytes raw;
  raw.reserve(sizeof header + payload.size());
  append(raw, ByteView(header, sizeof header));
  append(raw, payload);
  return raw;
}

TEST(TcpBus, DeliversFrames) {
  TcpBus bus(3);
  std::mutex mu;
  std::vector<std::tuple<NodeId, NodeId, Bytes>> got;
  bus.set_receiver([&](NodeId to, NodeId from, Bytes blob) {
    std::lock_guard<std::mutex> lock(mu);
    got.emplace_back(to, from, std::move(blob));
  });
  ASSERT_TRUE(bus.start());
  bus.send(0, 1, to_bytes("a->b"));
  bus.send(2, 0, to_bytes("c->a"));
  bus.send(1, 2, to_bytes("b->c"));
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    std::lock_guard<std::mutex> lock(mu);
    if (got.size() == 3) break;
  }
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(bus.messages_sent(), 3u);
  bool saw_ab = false;
  for (const auto& [to, from, blob] : got) {
    if (to == 1 && from == 0) {
      saw_ab = true;
      EXPECT_EQ(blob, to_bytes("a->b"));
    }
  }
  EXPECT_TRUE(saw_ab);
}

TEST(TcpBus, LargeAndEmptyFrames) {
  TcpBus bus(2);
  std::mutex mu;
  std::vector<Bytes> got;
  bus.set_receiver([&](NodeId, NodeId, Bytes blob) {
    std::lock_guard<std::mutex> lock(mu);
    got.push_back(std::move(blob));
  });
  ASSERT_TRUE(bus.start());
  Bytes big(300000);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 31);
  }
  bus.send(0, 1, Bytes{});
  bus.send(0, 1, big);
  for (int i = 0; i < 200; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    std::lock_guard<std::mutex> lock(mu);
    if (got.size() == 2) break;
  }
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_TRUE(got[0].empty());
  EXPECT_EQ(got[1], big);  // FIFO + intact across partial reads
}

TEST(TcpBus, SelfAndOutOfRangeSendsIgnored) {
  TcpBus bus(2);
  bus.set_receiver([](NodeId, NodeId, Bytes) { FAIL() << "unexpected"; });
  ASSERT_TRUE(bus.start());
  bus.send(0, 0, to_bytes("self"));
  bus.send(0, 9, to_bytes("nowhere"));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(bus.messages_sent(), 0u);
}

TEST(TcpIntegration, ErbOverSockets) {
  TcpTestbedConfig cfg;
  cfg.n = 5;
  cfg.round_ms = 150;
  TcpTestbed bed(cfg);
  Bytes msg = to_bytes("tcp broadcast");
  ASSERT_TRUE(bed.build(scenario::erb_factory(0, msg)));
  bed.start();
  const std::vector<NodeId> all{0, 1, 2, 3, 4};
  const scenario::Report report = scenario::collect(
      bed, bed.run_rounds(6, scenario::honest_done(bed, all)), all);
  for (NodeId id = 0; id < cfg.n; ++id) {
    const scenario::NodeReport& r = report.nodes[id];
    EXPECT_TRUE(r.done) << "node " << id;
    EXPECT_FALSE(r.bottom) << "node " << id;
    EXPECT_EQ(r.value, msg) << "node " << id;
  }
  bed.locked([&] {
    for (NodeId id = 0; id < cfg.n; ++id) {
      EXPECT_LE(bed.enclave_as<protocol::ErbNode>(id).result().round, 3u);
    }
  });
}

TEST(TcpIntegration, ErngOverSockets) {
  TcpTestbedConfig cfg;
  cfg.n = 5;
  cfg.round_ms = 150;
  TcpTestbed bed(cfg);
  ASSERT_TRUE(bed.build(scenario::erng_basic_factory()));
  bed.start();
  const std::vector<NodeId> all{0, 1, 2, 3, 4};
  const scenario::Report report = scenario::collect(
      bed, bed.run_rounds(8, scenario::honest_done(bed, all)), all);
  EXPECT_TRUE(report.nodes[0].done);
  for (NodeId id = 1; id < cfg.n; ++id) {
    EXPECT_TRUE(report.nodes[id].done) << "node " << id;
    EXPECT_EQ(report.nodes[id].value, report.nodes[0].value) << "node " << id;
  }
}

TEST(TcpBackpressure, WatermarkTripAndRecover) {
  obs::MetricsRegistry reg;
  obs::MetricsRegistry::ScopedCurrent scoped(reg);
  TcpBusOptions opts;
  opts.tx_high_watermark = 64 * 1024;
  TcpBus bus(2, opts);
  std::atomic<bool> release{false};
  std::atomic<std::uint64_t> received{0};
  // A slow reader: the I/O thread parks in the receiver, so frames pile up
  // in the kernel buffers first, then in the sender's bounded queue.
  bus.set_receiver([&](NodeId, NodeId, Bytes) {
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    received.fetch_add(1, std::memory_order_relaxed);
  });
  ASSERT_TRUE(bus.start());

  Bytes frame(2048, 0x5a);
  std::uint64_t accepted = 0;
  bool tripped = false;
  for (int i = 0; i < 5000; ++i) {  // 10 MB cap ≫ kernel buffering
    SendStatus st = bus.send(0, 1, Bytes(frame));
    if (st == SendStatus::kOk) {
      ++accepted;
    } else if (st == SendStatus::kBackpressure) {
      tripped = true;
      break;
    } else {
      FAIL() << "unexpected status " << send_status_name(st);
    }
  }
  ASSERT_TRUE(tripped) << "watermark never tripped after " << accepted
                       << " accepted frames";
  EXPECT_GE(counter_value(reg, "net.tcp.backpressure_events"), 1u);

  // Recovery: unblock the reader; every accepted frame must drain through,
  // and the connection must accept new traffic again.
  release.store(true, std::memory_order_release);
  ASSERT_TRUE(eventually(
      [&] { return received.load(std::memory_order_relaxed) >= accepted; },
      10000))
      << "drained " << received.load() << "/" << accepted;
  ASSERT_TRUE(eventually([&] {
    if (bus.send(0, 1, Bytes(frame)) != SendStatus::kOk) return false;
    ++accepted;
    return true;
  })) << "send did not recover to kOk";
  EXPECT_TRUE(eventually(
      [&] { return received.load(std::memory_order_relaxed) >= accepted; }));
  EXPECT_EQ(counter_value(reg, "net.tcp.send_failures"), 0u);
}

TEST(TcpReconnect, BreaksAndRecovers) {
  obs::MetricsRegistry reg;
  obs::MetricsRegistry::ScopedCurrent scoped(reg);
  TcpBus bus(2);
  std::atomic<std::uint64_t> received{0};
  bus.set_receiver([&](NodeId, NodeId, Bytes) {
    received.fetch_add(1, std::memory_order_relaxed);
  });
  ASSERT_TRUE(bus.start());
  ASSERT_EQ(bus.send(0, 1, to_bytes("before")), SendStatus::kOk);
  ASSERT_TRUE(eventually([&] { return received.load() == 1; }));

  bus.debug_break(0, 1);
  // The pair heals through the dialer's backoff path; until then sends
  // report kDown instead of vanishing.
  std::uint64_t accepted = 1;
  ASSERT_TRUE(eventually([&] {
    SendStatus st = bus.send(0, 1, to_bytes("after"));
    if (st != SendStatus::kOk) {
      EXPECT_EQ(st, SendStatus::kDown);
      return false;
    }
    ++accepted;
    return true;
  })) << "connection never recovered";
  EXPECT_TRUE(eventually([&] { return received.load() >= accepted; }));
  EXPECT_GE(counter_value(reg, "net.tcp.reconnects"), 1u);
}

TEST(TcpReconnect, TornFrameDiscardedOnReconnect) {
  obs::MetricsRegistry reg;
  obs::MetricsRegistry::ScopedCurrent scoped(reg);
  TcpBus bus(2);
  std::atomic<std::uint64_t> received{0};
  Bytes last;
  std::mutex mu;
  bus.set_receiver([&](NodeId, NodeId, Bytes blob) {
    std::lock_guard<std::mutex> lock(mu);
    last = std::move(blob);
    received.fetch_add(1, std::memory_order_relaxed);
  });
  ASSERT_TRUE(bus.start());

  // A frame claiming 100 payload bytes but delivering only 10: the receiver
  // parks it in rx as incomplete. The break must discard the torn prefix on
  // both sides, or the next frame's bytes would be misparsed as its tail.
  ASSERT_EQ(bus.debug_send_raw(0, 1, raw_frame(100, 0, 1, Bytes(10, 0xab))),
            SendStatus::kOk);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_EQ(received.load(), 0u);
  bus.debug_break(0, 1);
  ASSERT_TRUE(eventually(
      [&] { return counter_value(reg, "net.tcp.reconnects") >= 1; }));

  Bytes intact = to_bytes("post-reconnect frame arrives intact");
  std::atomic<bool> sent{false};
  ASSERT_TRUE(eventually([&] {
    if (sent.load()) return true;
    if (bus.send(0, 1, Bytes(intact)) != SendStatus::kOk) return false;
    sent.store(true);
    return true;
  }));
  ASSERT_TRUE(eventually([&] { return received.load() == 1; }));
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(last, intact);
}

TEST(TcpBus, OversizedLengthPrefixRejected) {
  obs::MetricsRegistry reg;
  obs::MetricsRegistry::ScopedCurrent scoped(reg);
  TcpBusOptions opts;
  opts.max_frame = 1024;
  opts.reconnect = false;  // keep the pair down so kDown is observable
  TcpBus bus(2, opts);
  std::atomic<std::uint64_t> received{0};
  bus.set_receiver([&](NodeId, NodeId, Bytes) {
    received.fetch_add(1, std::memory_order_relaxed);
  });
  ASSERT_TRUE(bus.start());

  // Length prefix above max_frame: protocol violation → close + count.
  ASSERT_EQ(bus.debug_send_raw(0, 1, raw_frame(2048, 0, 1, Bytes(16, 0x01))),
            SendStatus::kOk);
  ASSERT_TRUE(eventually(
      [&] { return counter_value(reg, "net.tcp.bad_frames") >= 1; }));
  ASSERT_TRUE(eventually(
      [&] { return bus.send(0, 1, to_bytes("x")) == SendStatus::kDown; }));
  EXPECT_EQ(received.load(), 0u);
}

TEST(TcpMulticast, PayloadIdentityUnderCoalescing) {
  obs::MetricsRegistry reg;
  obs::MetricsRegistry::ScopedCurrent scoped(reg);
  constexpr std::uint32_t kN = 8;
  TcpBus bus(kN);
  std::mutex mu;
  std::vector<std::vector<Bytes>> got(kN);  // per-destination, in order
  std::atomic<std::uint64_t> received{0};
  bus.set_receiver([&](NodeId to, NodeId from, Bytes blob) {
    EXPECT_EQ(from, 0u);
    std::lock_guard<std::mutex> lock(mu);
    got[to].push_back(std::move(blob));
    received.fetch_add(1, std::memory_order_relaxed);
  });
  ASSERT_TRUE(bus.start());

  std::vector<NodeId> group;
  for (NodeId id = 1; id < kN; ++id) group.push_back(id);
  const std::vector<std::size_t> sizes = {0, 1, 64, 1500, 70000};
  std::vector<Bytes> payloads;
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    Bytes p(sizes[k]);
    for (std::size_t i = 0; i < p.size(); ++i) {
      p[i] = static_cast<std::uint8_t>(i * 31 + 17 * k + 3);
    }
    payloads.push_back(std::move(p));
  }
  for (const Bytes& p : payloads) {
    ASSERT_EQ(bus.multicast(0, group, Bytes(p)), SendStatus::kOk);
  }

  const std::uint64_t expected = payloads.size() * (kN - 1);
  ASSERT_TRUE(eventually([&] { return received.load() >= expected; }));
  std::lock_guard<std::mutex> lock(mu);
  for (NodeId id = 1; id < kN; ++id) {
    ASSERT_EQ(got[id].size(), payloads.size()) << "node " << id;
    for (std::size_t k = 0; k < payloads.size(); ++k) {
      // Identity under coalescing: every destination sees the exact bytes,
      // in per-connection FIFO order, from one shared serialization.
      EXPECT_EQ(got[id][k], payloads[k]) << "node " << id << " frame " << k;
    }
  }
  EXPECT_EQ(counter_value(reg, "net.tcp.multicasts"), payloads.size());
  EXPECT_EQ(counter_value(reg, "net.tcp.sends"), expected);
}

TEST(TcpRunnerGate, RejectsSocketInexpressibleSchedules) {
  fuzz::Schedule s;
  s.target = fuzz::FuzzTarget::kErb;
  s.n = 5;
  s.t = 2;
  s.max_rounds = 7;
  s.actions.push_back({fuzz::ActionKind::kDrop, 1, 1, kNoNode, 0});
  std::string why;
  EXPECT_TRUE(fuzz::tcp_supported(s, &why)) << why;
  s.actions.push_back({fuzz::ActionKind::kCrash, 1, 2, kNoNode, 0});
  EXPECT_FALSE(fuzz::tcp_supported(s, &why));
  EXPECT_NE(why.find("crash"), std::string::npos) << why;
  s.target = fuzz::FuzzTarget::kErngOpt;
  s.actions.clear();
  EXPECT_FALSE(fuzz::tcp_supported(s, &why));
}

TEST(TcpSoak, MeshOf64Nodes) {
  obs::MetricsRegistry reg;
  obs::MetricsRegistry::ScopedCurrent scoped(reg);
  constexpr std::uint32_t kN = 64;
  TcpBus bus(kN);
  std::atomic<std::uint64_t> received{0};
  std::atomic<std::uint64_t> byte_sum{0};
  bus.set_receiver([&](NodeId to, NodeId from, Bytes blob) {
    // Unicast frames carry (from, to) in their first bytes — integrity
    // check without per-pair bookkeeping.
    if (blob.size() == 8) {
      EXPECT_EQ(load_le32(blob.data()), from);
      EXPECT_EQ(load_le32(blob.data() + 4), to);
    }
    byte_sum.fetch_add(blob.size(), std::memory_order_relaxed);
    received.fetch_add(1, std::memory_order_relaxed);
  });
  ASSERT_TRUE(bus.start());

  // Full all-to-all: every ordered pair exchanges one addressed frame.
  for (NodeId a = 0; a < kN; ++a) {
    for (NodeId b = 0; b < kN; ++b) {
      if (a == b) continue;
      Bytes p(8);
      store_le32(p.data(), a);
      store_le32(p.data() + 4, b);
      ASSERT_EQ(bus.send(a, b, std::move(p)), SendStatus::kOk);
    }
  }
  // Then a multicast burst from node 0 across all 63 fan-out queues.
  std::vector<NodeId> group;
  for (NodeId id = 1; id < kN; ++id) group.push_back(id);
  constexpr std::uint64_t kBlasts = 50;
  const Bytes blast(256, 0x77);
  for (std::uint64_t i = 0; i < kBlasts; ++i) {
    ASSERT_EQ(bus.multicast(0, group, Bytes(blast)), SendStatus::kOk);
  }

  const std::uint64_t expected =
      std::uint64_t{kN} * (kN - 1) + kBlasts * (kN - 1);
  ASSERT_TRUE(eventually([&] { return received.load() >= expected; }, 30000))
      << received.load() << "/" << expected;
  EXPECT_EQ(received.load(), expected);
  EXPECT_EQ(byte_sum.load(),
            std::uint64_t{kN} * (kN - 1) * 8 + kBlasts * (kN - 1) * 256);
  EXPECT_EQ(counter_value(reg, "net.tcp.send_failures"), 0u);
  EXPECT_EQ(counter_value(reg, "net.tcp.bad_frames"), 0u);
}

TEST(TcpFuzz, PinnedScheduleStableOverRealSockets) {
  const std::string path =
      std::string(SGXP2P_CORPUS_DIR) + "/tcp/erb-pinned.sched";
  std::string error;
  auto schedule = fuzz::Schedule::load_file(path, &error);
  ASSERT_TRUE(schedule.has_value()) << error;
  ASSERT_TRUE(schedule->validate(&error)) << error;
  ASSERT_TRUE(fuzz::tcp_supported(*schedule, &error)) << error;

  // Two independent runs over real sockets: the oracles must pass and the
  // honest-outcome digest must be byte-stable.
  fuzz::RunReport first = fuzz::run_tcp_schedule(*schedule);
  EXPECT_TRUE(first.passed()) << first.outcome;
  fuzz::RunReport second = fuzz::run_tcp_schedule(*schedule);
  EXPECT_TRUE(second.passed()) << second.outcome;
  ASSERT_FALSE(first.digest.empty());
  EXPECT_EQ(first.digest, second.digest)
      << first.outcome << " vs " << second.outcome;
}

/// Three single-endpoint buses (nodes 0–2) in one process. Each start()
/// blocks until its peers are connected, so the three start on their own
/// threads. Every received frame is recorded as (to, from, payload).
class SingleEndpointTrio {
 public:
  static constexpr std::uint32_t kN = 3;

  /// Ports sit below the kernel's ephemeral range (32768–60999) and below
  /// test_multiprocess's 30000–32004; `salt` separates tests of one process.
  explicit SingleEndpointTrio(int salt) {
    const auto base =
        static_cast<std::uint16_t>(26000 + 3 * ((getpid() + salt) % 1300));
    for (NodeId id = 0; id < kN; ++id) {
      buses_.push_back(std::make_unique<TcpBus>(
          id, std::vector<std::uint16_t>{base, std::uint16_t(base + 1),
                                         std::uint16_t(base + 2)}));
      buses_.back()->set_receiver([this](NodeId to, NodeId from, Bytes blob) {
        std::lock_guard<std::mutex> lock(mu_);
        got_.emplace_back(to, from, to_string(blob));
      });
    }
  }

  bool start() {
    std::atomic<std::uint32_t> started{0};
    std::vector<std::thread> threads;
    for (auto& bus : buses_) {
      threads.emplace_back([&started, b = bus.get()] {
        if (b->start()) started.fetch_add(1);
      });
    }
    for (auto& t : threads) t.join();
    return started.load() == kN;
  }

  TcpBus& bus(NodeId id) { return *buses_[id]; }

  /// Frames received so far that match (to, from, payload).
  std::size_t count(NodeId to, NodeId from, const std::string& payload) {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<std::size_t>(std::count(
        got_.begin(), got_.end(), std::make_tuple(to, from, payload)));
  }
  std::size_t total() {
    std::lock_guard<std::mutex> lock(mu_);
    return got_.size();
  }

 private:
  std::mutex mu_;
  std::vector<std::tuple<NodeId, NodeId, std::string>> got_;
  // Last, so the buses' I/O threads stop before what the receiver uses.
  std::vector<std::unique_ptr<TcpBus>> buses_;
};

TEST(TcpBusSingleEndpoint, EveryDirectedPairDelivers) {
  obs::MetricsRegistry reg;
  obs::MetricsRegistry::ScopedCurrent scoped(reg);
  SingleEndpointTrio trio(0);
  ASSERT_TRUE(trio.start());
  // The first dials (2→0, 2→1, 1→0) bring the mesh up; none is a reconnect.
  EXPECT_EQ(counter_value(reg, "net.tcp.reconnects"), 0u);

  for (NodeId from = 0; from < SingleEndpointTrio::kN; ++from) {
    for (NodeId to = 0; to < SingleEndpointTrio::kN; ++to) {
      if (to == from) continue;
      const std::string p = std::to_string(from) + "->" + std::to_string(to);
      EXPECT_EQ(trio.bus(from).send(from, to, to_bytes(p)), SendStatus::kOk);
    }
  }
  // A bus sends only as its own node.
  EXPECT_EQ(trio.bus(0).send(1, 2, to_bytes("forged")), SendStatus::kDown);

  ASSERT_EQ(trio.bus(1).multicast(1, {0, 1, 2}, to_bytes("mc")),
            SendStatus::kOk);
  ASSERT_TRUE(eventually([&] { return trio.total() >= 8; }))
      << trio.total() << "/8 frames";
  for (NodeId from = 0; from < SingleEndpointTrio::kN; ++from) {
    for (NodeId to = 0; to < SingleEndpointTrio::kN; ++to) {
      if (to == from) continue;
      const std::string p = std::to_string(from) + "->" + std::to_string(to);
      EXPECT_EQ(trio.count(to, from, p), 1u) << p;
    }
  }
  EXPECT_EQ(trio.count(0, 1, "mc"), 1u);
  EXPECT_EQ(trio.count(2, 1, "mc"), 1u);
  EXPECT_EQ(trio.total(), 8u);
  EXPECT_EQ(counter_value(reg, "net.tcp.bad_frames"), 0u);
}

TEST(TcpBusSingleEndpoint, BreakHealsThroughRedial) {
  obs::MetricsRegistry reg;
  obs::MetricsRegistry::ScopedCurrent scoped(reg);
  SingleEndpointTrio trio(650);
  ASSERT_TRUE(trio.start());
  ASSERT_EQ(trio.bus(2).send(2, 0, to_bytes("before")), SendStatus::kOk);
  ASSERT_TRUE(eventually([&] { return trio.count(0, 2, "before") == 1; }));

  // Bus 2 dialed node 0, so bus 2 redials once the pair breaks; node 0's
  // half fails when it sees the close. Until bus 2's redial completes, its
  // sends report kDown.
  trio.bus(2).debug_break(2, 0);
  ASSERT_TRUE(eventually([&] {
    SendStatus st = trio.bus(2).send(2, 0, to_bytes("after"));
    if (st != SendStatus::kOk) {
      EXPECT_EQ(st, SendStatus::kDown);
      return false;
    }
    return true;
  })) << "bus 2 never redialed";
  EXPECT_TRUE(eventually([&] { return trio.count(0, 2, "after") == 1; }));
  EXPECT_GE(counter_value(reg, "net.tcp.reconnects"), 1u);

  // The other direction heals once node 0 adopts the new connection. A
  // frame node 0 queues on the old connection before it sees the close is
  // lost with it, so keep sending until one arrives.
  ASSERT_TRUE(eventually([&] {
    (void)trio.bus(0).send(0, 2, to_bytes("back"));
    return trio.count(2, 0, "back") >= 1;
  })) << "0->2 never recovered";
  // The untouched pairs never broke.
  EXPECT_EQ(trio.bus(1).send(1, 0, to_bytes("steady")), SendStatus::kOk);
  EXPECT_TRUE(eventually([&] { return trio.count(0, 1, "steady") == 1; }));
}

TEST(TcpIntegration, SteadyClockMonotone) {
  SteadyClock clock;
  SimTime t1 = clock.now();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  SimTime t2 = clock.now();
  EXPECT_GE(t2 - t1, 15);
  EXPECT_LT(t2 - t1, 500);
}

}  // namespace
}  // namespace sgxp2p::net
