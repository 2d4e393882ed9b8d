// Discrete-event simulator and network tests: event ordering, virtual time,
// exact event waits, queue memory under load and after a drain, delivery
// bounds, per-pair FIFO, detach semantics, the shared-bandwidth model,
// traffic metering, shared sends, and end-to-end determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "net/network.hpp"
#include "net/simulator.hpp"
#include "obs/metrics.hpp"

namespace sgxp2p::sim {
namespace {

TEST(Simulator, RunsInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule(30, [&] { order.push_back(3); });
  s.schedule(10, [&] { order.push_back(1); });
  s.schedule(20, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
}

TEST(Simulator, EqualTimestampsAreFifo) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule(5, [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, NestedScheduling) {
  Simulator s;
  std::vector<int> order;
  s.schedule(10, [&] {
    order.push_back(1);
    s.schedule_in(5, [&] { order.push_back(2); });
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(s.now(), 15);
}

TEST(Simulator, PastEventsClampToNow) {
  Simulator s;
  s.run_until(100);
  SimTime fired_at = -1;
  s.schedule(50, [&] { fired_at = s.now(); });  // in the past
  s.run();
  EXPECT_EQ(fired_at, 100);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator s;
  int fired = 0;
  s.schedule(10, [&] { ++fired; });
  s.schedule(20, [&] { ++fired; });
  s.schedule(30, [&] { ++fired; });
  s.run_until(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), 20);
  EXPECT_EQ(s.pending(), 1u);
}

// A delay from a uniformly drawn class: due now; level 0, where many events
// share a millisecond; the level 0/1 boundary; levels 1, 2 and 3; and the
// overflow list beyond 2^40 ms.
SimDuration mixed_delay(Rng& rng) {
  auto jitter = [&](std::uint64_t spread) {
    return static_cast<SimDuration>(rng.next_below(spread));
  };
  switch (rng.next_below(7)) {
    case 0:
      return 0;
    case 1:
      return jitter(8);
    case 2:
      return 900 + jitter(300);
    case 3:
      return (SimDuration{1} << 12) + jitter(1 << 14);
    case 4:
      return (SimDuration{1} << 22) + jitter(1 << 12);
    case 5:
      return (SimDuration{1} << 32) + jitter(1 << 12);
    default:
      return (SimDuration{1} << 40) + jitter(1 << 12);
  }
}

// A seeded random schedule of timers and typed deliveries, many due at the
// same milliseconds, with delays reaching every wheel level and the
// overflow list. Timer callbacks arm more timers and deliveries, some due
// at now while their batch drains. A final burst puts several chunks' worth
// of events into one millisecond, filed both by cascade and directly, so the
// batch's seq sort and its appends at now cross chunk boundaries. The firing
// order must be (at, seq): computed here by sorting what was scheduled, not
// by a second engine.
TEST(Simulator, MixedScheduleFiresInTimeThenSeqOrder) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Simulator s;
    Rng rng(seed);
    constexpr std::size_t kBudget = 6000;
    // (at, id) per event; ids count schedule calls, so they order like the
    // simulator's seq.
    std::vector<std::pair<SimTime, std::uint64_t>> scheduled;
    std::vector<std::pair<SimTime, std::uint64_t>> fired;

    // Half the targets snap to a 256 ms grid, so events armed long ago
    // (coarse levels, cascaded) share milliseconds with recent direct
    // inserts; some targets lie in the past and clamp to now.
    auto pick_at = [&] {
      if (rng.chance(0.05)) {
        return s.now() - static_cast<SimTime>(rng.next_below(5));
      }
      SimTime at = s.now() + mixed_delay(rng);
      if (rng.chance(0.5)) at = (at + 255) / 256 * 256;
      return at;
    };
    auto record = [&](SimTime at) {
      scheduled.emplace_back(std::max(at, s.now()), scheduled.size());
      return scheduled.back().second;
    };

    std::uint32_t handler = 0;
    std::function<void(SimTime)> arm_timer;
    auto arm_delivery = [&](SimTime at) {
      const std::uint64_t id = record(at);
      Delivery d{static_cast<NodeId>(id), static_cast<NodeId>(id * 3), id,
                 {}, nullptr};
      Bytes body = to_bytes(std::to_string(id));
      if (rng.chance(0.5)) {
        d.payload = std::move(body);
      } else {
        d.shared = std::make_shared<const Bytes>(std::move(body));
      }
      s.schedule_delivery(at, handler, std::move(d));
    };
    auto arm_any = [&] {
      rng.chance(0.5) ? arm_timer(pick_at()) : arm_delivery(pick_at());
    };
    arm_timer = [&](SimTime at) {
      const std::uint64_t id = record(at);
      s.schedule(at, [&, id] {
        fired.emplace_back(s.now(), id);
        const std::uint64_t children = rng.next_below(4);
        for (std::uint64_t c = 0; c < children; ++c) {
          if (scheduled.size() < kBudget) arm_any();
        }
      });
    };
    handler = s.add_delivery_handler([&](Delivery&& d) {
      const std::uint64_t id = d.cause_span;
      EXPECT_EQ(d.from, static_cast<NodeId>(id));
      EXPECT_EQ(d.to, static_cast<NodeId>(id * 3));
      EXPECT_EQ(to_string(d.view()), std::to_string(id));
      fired.emplace_back(s.now(), id);
    });

    // Arm from outside between run_until stops (the cursor then sits
    // mid-bucket), then drain.
    for (int phase = 0; phase < 20; ++phase) {
      for (int i = 0; i < 40; ++i) arm_any();
      s.run_until(s.now() + mixed_delay(rng));
    }

    // The burst, at T in the middle of a level-1 bucket: 150 events armed
    // ≥ 1024 ms ahead wait at level 1; from 700 ms before T, 150 more go
    // straight into T's level-0 slot; entering T's bucket then cascades the
    // first 150 behind them, out of seq order. Every second burst event is
    // a timer that, firing, arms one more event at now.
    const SimTime burst_at = (s.now() / 1024 + 3) * 1024 + 512;
    auto burst = [&] {
      for (int i = 0; i < 150; ++i) {
        if (i % 2 == 0) {
          arm_delivery(burst_at);
          continue;
        }
        const std::uint64_t id = record(burst_at);
        s.schedule(burst_at, [&, id] {
          fired.emplace_back(s.now(), id);
          rng.chance(0.5) ? arm_timer(s.now()) : arm_delivery(s.now());
        });
      }
    };
    burst();
    s.run_until(burst_at - 700);
    burst();
    s.run();

    EXPECT_TRUE(s.idle());
    std::sort(scheduled.begin(), scheduled.end());
    ASSERT_EQ(fired.size(), scheduled.size()) << "seed=" << seed;
    for (std::size_t i = 0; i < fired.size(); ++i) {
      ASSERT_EQ(fired[i], scheduled[i]) << "seed=" << seed << " i=" << i;
    }
  }
}

// sim.event_wait_ms records each event's scheduled-to-fired wait exactly:
// deliveries at ordinary delays (some in the past, clamped to a wait of 0)
// and timers armed 2^32 + k and 2^40 + k ms ahead, beyond any 32-bit field,
// some of them armed by a callback long after t = 0.
TEST(Simulator, EventWaitHistogramIsExact) {
  obs::MetricsRegistry reg;
  Simulator s(reg);
  std::vector<SimDuration> waits;
  const std::uint32_t h = s.add_delivery_handler([](Delivery&&) {});
  auto deliver_in = [&](SimDuration d) {
    waits.push_back(std::max<SimDuration>(d, 0));
    s.schedule_delivery(s.now() + d, h, Delivery{0, 1, 0, {}, nullptr});
  };
  auto timer_in = [&](SimDuration d) {
    waits.push_back(d);
    s.schedule_in(d, [] {});
  };
  constexpr SimDuration k32 = SimDuration{1} << 32;
  constexpr SimDuration k40 = SimDuration{1} << 40;
  for (SimDuration k = 0; k < 4; ++k) {
    deliver_in(k);
    deliver_in(-k);
    deliver_in(99 + 301 * k);
    deliver_in(999 + 2000 * k);
    timer_in(k32 - 2 + k);
    timer_in(k32 + k * 1000003);
    timer_in(k40 + k);
  }
  // A timer that arms more when it fires, so their waits count from t = 7000.
  waits.push_back(7000);
  s.schedule_in(7000, [&] {
    deliver_in(250);
    timer_in(k32 + 11);
    timer_in(k40 + 13);
  });
  s.run();
  EXPECT_TRUE(s.idle());

  const obs::MetricsSnapshot snap = reg.snapshot();
  const obs::HistogramSample* hist = nullptr;
  for (const auto& sample : snap.histograms) {
    if (sample.name == "sim.event_wait_ms") hist = &sample;
  }
  ASSERT_NE(hist, nullptr);
  // Bucket i counts waits ≤ bounds[i] (and above bounds[i − 1]); the last
  // bucket counts the rest.
  std::vector<std::uint64_t> buckets(hist->bounds.size() + 1, 0);
  std::int64_t sum = 0;
  for (SimDuration w : waits) {
    const auto it =
        std::lower_bound(hist->bounds.begin(), hist->bounds.end(), w);
    ++buckets[static_cast<std::size_t>(it - hist->bounds.begin())];
    sum += w;
  }
  EXPECT_EQ(hist->count, waits.size());
  EXPECT_EQ(hist->sum, sum);
  EXPECT_EQ(hist->buckets, buckets);
}

// Drained wheel slots hand their buffers on rather than keeping them: after
// a 100k-delivery burst runs to idle, the queue holds ≤ 1% of the storage
// it held with the burst pending. Loaded, it holds the 64-byte event
// records plus at most one partial chunk per occupied slot, not the slack of
// buffers that double: 2^10 + 1 deliveries in each of 100 milliseconds, just
// past a power of two, take ≤ 1.25× their records' bytes, where doubling
// buffers would take about 2×.
TEST(Simulator, DrainedQueueHoldsNoCapacity) {
  Simulator s;
  std::size_t delivered = 0;
  const std::uint32_t h =
      s.add_delivery_handler([&](Delivery&&) { ++delivered; });
  Rng rng(5);
  constexpr std::size_t kBurst = 100'000;
  for (std::size_t i = 0; i < kBurst; ++i) {
    const SimTime at = 100 + static_cast<SimTime>(rng.next_below(400));
    s.schedule_delivery(at, h, Delivery{0, 1, 0, {}, nullptr});
  }
  // Every pending event holds at least a Delivery's fields.
  const std::size_t loaded = s.queue_capacity_bytes();
  EXPECT_GE(loaded, kBurst * sizeof(Delivery));
  s.run();
  EXPECT_EQ(delivered, kBurst);
  EXPECT_LE(s.queue_capacity_bytes() * 100, loaded);

  constexpr std::size_t kPerMs = (std::size_t{1} << 10) + 1;
  constexpr std::size_t kRecordBytes = 64;
  for (SimTime ms = 1; ms <= 100; ++ms) {
    for (std::size_t i = 0; i < kPerMs; ++i) {
      s.schedule_delivery(s.now() + ms, h, Delivery{0, 1, 0, {}, nullptr});
    }
  }
  ASSERT_EQ(s.pending(), 100 * kPerMs);
  EXPECT_LE(s.queue_capacity_bytes() * 4, s.pending() * kRecordBytes * 5);
  s.run();
  EXPECT_EQ(delivered, kBurst + 100 * kPerMs);
}

struct NetFixture {
  Simulator simulator;
  NetworkConfig cfg;
  std::unique_ptr<Network> net;
  std::vector<std::pair<NodeId, Bytes>> received;  // at node 1

  explicit NetFixture(std::uint64_t seed = 1, std::uint64_t bw = 0) {
    cfg.base_delay = milliseconds(100);
    cfg.max_jitter = milliseconds(50);
    cfg.seed = seed;
    cfg.shared_bandwidth = bw;
    net = std::make_unique<Network>(simulator, cfg);
    for (NodeId id = 0; id < 4; ++id) {
      net->attach(id, [this, id](NodeId from, Bytes blob) {
        if (id == 1) received.emplace_back(from, std::move(blob));
      });
    }
  }
};

TEST(Network, DeliversWithinWorstDelay) {
  NetFixture fx;
  fx.net->send(0, 1, to_bytes("hi"));
  fx.simulator.run();
  ASSERT_EQ(fx.received.size(), 1u);
  EXPECT_LE(fx.simulator.now(), fx.cfg.worst_delay());
  EXPECT_GE(fx.simulator.now(), fx.cfg.base_delay);
}

TEST(Network, PerPairFifo) {
  NetFixture fx(7);
  for (int i = 0; i < 50; ++i) {
    fx.net->send(0, 1, Bytes{static_cast<std::uint8_t>(i)});
  }
  fx.simulator.run();
  ASSERT_EQ(fx.received.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(fx.received[i].second[0], i) << "reordered at " << i;
  }
}

TEST(Network, DetachedReceiverDropsQueued) {
  NetFixture fx;
  fx.net->send(0, 1, to_bytes("in flight"));
  fx.net->detach(1);
  fx.simulator.run();
  EXPECT_TRUE(fx.received.empty());
}

TEST(Network, DetachedSenderIgnored) {
  NetFixture fx;
  fx.net->detach(0);
  fx.net->send(0, 1, to_bytes("ghost"));
  fx.simulator.run();
  EXPECT_TRUE(fx.received.empty());
  EXPECT_EQ(fx.net->meter().messages(), 0u);
}

TEST(Network, SelfSendIgnored) {
  NetFixture fx;
  fx.net->send(1, 1, to_bytes("me"));
  fx.simulator.run();
  EXPECT_TRUE(fx.received.empty());
}

TEST(Network, MeterCountsBytesAndMessages) {
  NetFixture fx;
  fx.net->send(0, 1, Bytes(10, 0));
  fx.net->send(2, 1, Bytes(20, 0));
  fx.net->send(0, 3, Bytes(30, 0));
  fx.simulator.run();
  EXPECT_EQ(fx.net->meter().messages(), 3u);
  EXPECT_EQ(fx.net->meter().bytes(), 60u);
  fx.net->meter().reset();
  EXPECT_EQ(fx.net->meter().bytes(), 0u);
}

TEST(Network, SharedBandwidthDelaysBulk) {
  // 1000 bytes/s: a 500-byte message adds 500 ms of serialization.
  NetFixture slow(1, /*bw=*/1000);
  slow.net->send(0, 1, Bytes(500, 0));
  slow.net->send(2, 1, Bytes(500, 0));
  slow.simulator.run();
  ASSERT_EQ(slow.received.size(), 2u);
  // Two 500 B messages through a 1 kB/s link: the second lands at ≥ 1 s.
  EXPECT_GE(slow.simulator.now(), 1000);
}

TEST(Network, TimelineBucketsBytesByTime) {
  NetFixture fx;
  fx.net->meter().enable_timeline(1000);
  fx.net->send(0, 1, Bytes(10, 0));          // bucket 0
  fx.simulator.run();
  fx.simulator.run_until(2500);
  fx.net->send(2, 1, Bytes(20, 0));          // bucket 2
  fx.net->send(0, 3, Bytes(5, 0));           // bucket 2
  fx.simulator.run();
  const auto& tl = fx.net->meter().timeline();
  ASSERT_EQ(tl.size(), 3u);
  EXPECT_EQ(tl[0], 10u);
  EXPECT_EQ(tl[1], 0u);
  EXPECT_EQ(tl[2], 25u);
}

// --- send_shared: one immutable buffer for every recipient ---

TEST(NetworkShared, SharedSinksReadTheSameBuffer) {
  obs::MetricsRegistry reg;
  Simulator simulator(reg);
  Network net(simulator, NetworkConfig{}, reg);
  const auto no_copy = [](NodeId, Bytes) { ADD_FAILURE() << "copied"; };
  std::vector<const std::uint8_t*> seen;
  net.attach(0, no_copy);
  for (NodeId id : {NodeId{1}, NodeId{2}}) {
    net.attach(id, no_copy, [&seen](NodeId from, ByteView blob) {
      EXPECT_EQ(from, 0u);
      EXPECT_EQ(to_string(blob), "one buffer");
      seen.push_back(blob.data());
    });
  }
  auto blob = std::make_shared<const Bytes>(to_bytes("one buffer"));
  net.send_shared(0, 1, blob);
  net.send_shared(0, 2, blob);
  simulator.run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], blob->data());
  EXPECT_EQ(seen[1], blob->data());
  EXPECT_EQ(reg.counter("net.delivered").value(), 2u);
  EXPECT_EQ(blob.use_count(), 1);  // no finished delivery holds the buffer
}

TEST(NetworkShared, OwnedOnlySinkGetsIndependentCopy) {
  obs::MetricsRegistry reg;
  Simulator simulator(reg);
  Network net(simulator, NetworkConfig{}, reg);
  Bytes got;
  net.attach(0, [](NodeId, Bytes) {});
  net.attach(1, [&got](NodeId, Bytes b) { got = std::move(b); });
  auto blob = std::make_shared<const Bytes>(to_bytes("copy me"));
  net.send_shared(0, 1, blob);
  simulator.run();
  ASSERT_EQ(got, *blob);
  EXPECT_NE(got.data(), blob->data());
  got[0] ^= 0xFF;  // the receiver owns its copy
  EXPECT_EQ(*blob, to_bytes("copy me"));
}

TEST(NetworkShared, CutLinkAndDetachedReceiverDropAndCount) {
  obs::MetricsRegistry reg;
  Simulator simulator(reg);
  Network net(simulator, NetworkConfig{}, reg);
  int delivered = 0;
  const auto owned = [&delivered](NodeId, Bytes) { ++delivered; };
  const auto shared = [&delivered](NodeId, ByteView) { ++delivered; };
  for (NodeId id = 0; id < 3; ++id) net.attach(id, owned, shared);
  auto blob = std::make_shared<const Bytes>(to_bytes("lost"));
  net.block_link(0, 1);
  net.send_shared(0, 1, blob);  // cut at the sender: never scheduled
  net.send_shared(0, 2, blob);
  net.detach(2);  // in flight when its receiver leaves
  simulator.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(reg.counter("net.sends").value(), 1u);
  EXPECT_EQ(reg.counter("net.dropped").value(), 2u);
  EXPECT_EQ(blob.use_count(), 1);
}

TEST(Network, DeterministicAcrossRuns) {
  auto trace = [](std::uint64_t seed) {
    NetFixture fx(seed);
    for (int i = 0; i < 20; ++i) {
      fx.net->send(i % 3 == 1 ? 2 : 0, 1, Bytes{static_cast<std::uint8_t>(i)});
    }
    fx.simulator.run();
    std::vector<std::pair<SimTime, int>> out;
    out.emplace_back(fx.simulator.now(),
                     static_cast<int>(fx.received.size()));
    return out;
  };
  EXPECT_EQ(trace(5), trace(5));
  EXPECT_NE(trace(5), trace(6));
}

}  // namespace
}  // namespace sgxp2p::sim
