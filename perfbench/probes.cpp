#include "probes.hpp"

#include <algorithm>
#include <stdexcept>

#include "channel/secure_link.hpp"
#include "common.hpp"
#include "common/rng.hpp"
#include "crypto/aead.hpp"
#include "net/simulator.hpp"
#include "obs/metrics.hpp"
#include "obs/pool.hpp"
#include "protocol/erng_basic.hpp"
#include "sgx/attestation.hpp"
#include "sgx/platform.hpp"

namespace perfbench {

using namespace sgxp2p;

namespace {

constexpr std::size_t kValHeader = 21;  // type, initiator, seq, round, length

/// Keeps probe results observable so the timed loops cannot be elided.
volatile std::uint64_t g_sink = 0;

Bytes random_bytes(Rng& rng, std::size_t size) {
  Bytes out(size);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

}  // namespace

std::vector<protocol::Val> make_val_mix(
    const std::vector<std::uint64_t>& wire_sizes,
    const std::vector<std::pair<protocol::MsgType, std::uint64_t>>&
        type_counts,
    std::uint64_t seed, std::size_t cap) {
  std::uint64_t total = 0;
  for (std::size_t s = crypto::kAeadOverhead + kValHeader;
       s < wire_sizes.size(); ++s) {
    total += wire_sizes[s];
  }
  std::uint64_t type_total = 0;
  for (const auto& tc : type_counts) type_total += tc.second;
  if (total == 0 || type_total == 0) return {};
  const std::uint64_t stride = std::max<std::uint64_t>(1, total / cap);

  Rng rng(seed);
  std::vector<protocol::Val> vals;
  vals.reserve(std::min<std::uint64_t>(total, cap) + 1);
  std::uint64_t index = 0;
  for (std::size_t s = crypto::kAeadOverhead + kValHeader;
       s < wire_sizes.size(); ++s) {
    for (std::uint64_t k = 0; k < wire_sizes[s]; ++k, ++index) {
      if (index % stride != 0) continue;
      protocol::Val v;
      v.initiator = static_cast<NodeId>(rng.next_below(1u << 10));
      v.seq = rng.next_u64();
      v.round = static_cast<std::uint32_t>(1 + rng.next_below(40));
      v.payload = random_bytes(rng, s - crypto::kAeadOverhead - kValHeader);
      vals.push_back(std::move(v));
    }
  }
  // Types in proportion to the registry split, interleaved over the sizes.
  std::shuffle(vals.begin(), vals.end(), rng);
  std::size_t at = 0;
  for (const auto& [type, count] : type_counts) {
    const auto share = static_cast<std::size_t>(
        (static_cast<double>(count) / static_cast<double>(type_total)) *
            static_cast<double>(vals.size()) +
        0.5);
    for (std::size_t i = 0; i < share && at < vals.size(); ++i) {
      vals[at++].type = type;
    }
  }
  for (; at < vals.size(); ++at) vals[at].type = type_counts.back().first;
  std::shuffle(vals.begin(), vals.end(), rng);
  return vals;
}

SerdeCost probe_serde(const std::vector<protocol::Val>& vals,
                      double min_seconds) {
  SerdeCost cost;
  if (vals.empty()) return cost;
  std::uint64_t sum = 0;

  Bytes scratch;
  std::uint64_t ops = 0;
  auto t0 = Clock::now();
  do {
    for (const protocol::Val& v : vals) {
      protocol::serialize_into(v, scratch);
      sum += scratch.size() + scratch[0];
    }
    ops += vals.size();
  } while (seconds_since(t0) < min_seconds);
  cost.serialize_ns = static_cast<double>(ns_since(t0)) /
                      static_cast<double>(ops);

  std::vector<Bytes> wires;
  wires.reserve(vals.size());
  for (const protocol::Val& v : vals) wires.push_back(protocol::serialize(v));
  ops = 0;
  t0 = Clock::now();
  do {
    for (std::size_t i = 0; i < wires.size(); ++i) {
      auto v = protocol::parse_val(wires[i]);
      if (!v || v->seq != vals[i].seq) {
        throw std::runtime_error("serde probe: parse mismatch");
      }
      sum += v->payload.size();
    }
    ops += wires.size();
  } while (seconds_since(t0) < min_seconds);
  cost.parse_ns = static_cast<double>(ns_since(t0)) / static_cast<double>(ops);
  g_sink = sum;
  return cost;
}

SealCost probe_seal_open(const std::vector<protocol::Val>& vals,
                         double min_seconds) {
  SealCost cost;
  if (vals.empty()) return cost;
  Rng rng(0x5ea1);
  channel::LinkKeys ka;
  ka.send_key = random_bytes(rng, crypto::kAeadKeySize);
  ka.recv_key = random_bytes(rng, crypto::kAeadKeySize);
  ka.send_seq0 = rng.next_u64() >> 8;
  ka.recv_seq0 = rng.next_u64() >> 8;
  channel::LinkKeys kb{ka.recv_key, ka.send_key, ka.recv_seq0, ka.send_seq0};
  sgx::Measurement program{};
  for (auto& b : program) b = static_cast<std::uint8_t>(rng.next_u64());
  channel::SecureLink a(0, 1, ka, program);
  channel::SecureLink b(1, 0, kb, program);

  std::vector<Bytes> plain;
  plain.reserve(vals.size());
  for (const protocol::Val& v : vals) plain.push_back(protocol::serialize(v));

  obs::BufferPool& pool = obs::BufferPool::local();
  std::vector<Bytes> sealed(plain.size());
  std::int64_t seal_ns = 0;
  std::int64_t open_ns = 0;
  std::uint64_t ops = 0;
  std::uint64_t sum = 0;
  const auto start = Clock::now();
  do {
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < plain.size(); ++i) sealed[i] = a.seal(plain[i]);
    seal_ns += ns_since(t0);
    t0 = Clock::now();
    for (Bytes& blob : sealed) {
      auto opened = b.open(blob);
      if (!opened) throw std::runtime_error("seal probe: open failed");
      sum += opened->size();
      // The host recycles the wire buffer, the enclave its plaintext.
      pool.release(std::move(*opened));
      pool.release(std::move(blob));
    }
    open_ns += ns_since(t0);
    ops += plain.size();
  } while (seconds_since(start) < min_seconds);
  cost.seal_ns = static_cast<double>(seal_ns) / static_cast<double>(ops);
  cost.open_ns = static_cast<double>(open_ns) / static_cast<double>(ops);
  g_sink = sum;
  return cost;
}

namespace {

class FixedClock final : public sgx::TrustedClock {
 public:
  [[nodiscard]] SimTime now() const override { return 0; }
};

class NullHost final : public sgx::EnclaveHostIface {
 public:
  void transfer(NodeId, Bytes) override {}
};

}  // namespace

double probe_handshake_us(double min_seconds) {
  FixedClock clock;
  sgx::SgxPlatform platform(clock, to_bytes("perfbench-handshake-platform"));
  sgx::SimIAS ias(platform);
  NullHost host;
  protocol::PeerConfig pc;
  pc.n = 2;
  pc.t = 0;
  pc.round_ms = 1000;
  pc.mode = protocol::ChannelMode::kAttested;
  pc.self = 0;
  protocol::ErngBasicNode a(platform, 0, host, pc, ias);
  pc.self = 1;
  protocol::ErngBasicNode b(platform, 1, host, pc, ias);
  const Bytes hello = a.handshake_blob();

  std::uint64_t ops = 0;
  const auto t0 = Clock::now();
  do {
    if (!b.accept_handshake(hello)) {
      throw std::runtime_error("handshake probe: attestation failed");
    }
    ++ops;
  } while (seconds_since(t0) < min_seconds);
  return static_cast<double>(ns_since(t0)) / 1e3 / static_cast<double>(ops);
}

namespace {

/// One replay; returns the wall time in ns and the events fired.
std::pair<std::int64_t, std::uint64_t> replay_schedule(
    const DispatchSpec& spec) {
  obs::MetricsRegistry reg;
  obs::MetricsRegistry::ScopedCurrent bind(reg);
  sim::Simulator simulator(reg);
  Rng rng(spec.seed);
  const auto arrival = [&]() {
    return simulator.now() + spec.base_delay +
           static_cast<SimTime>(rng.next_below(
               static_cast<std::uint64_t>(spec.max_jitter) + 1));
  };
  // Nodes that received an INIT this round and ECHO it at the next
  // boundary, one entry per (node, instance).
  std::vector<NodeId> echo_due;
  const std::uint32_t on_ack =
      simulator.add_delivery_handler([](sim::Delivery&&) {});
  const std::uint32_t on_echo =
      simulator.add_delivery_handler([&](sim::Delivery&& d) {
        simulator.schedule_delivery(arrival(), on_ack,
                                    sim::Delivery{d.to, d.from, 0, {}, nullptr});
      });
  const std::uint32_t on_init =
      simulator.add_delivery_handler([&](sim::Delivery&& d) {
        simulator.schedule_delivery(arrival(), on_ack,
                                    sim::Delivery{d.to, d.from, 0, {}, nullptr});
        echo_due.push_back(d.to);
      });
  const auto fan_out = [&](NodeId from, std::uint32_t handler) {
    for (NodeId to = 0; to < spec.n; ++to) {
      if (to != from) {
        simulator.schedule_delivery(arrival(), handler,
                                    sim::Delivery{from, to, 0, {}, nullptr});
      }
    }
  };

  const auto t0 = Clock::now();
  // Same boundaries as Testbed: T0 = now + 10 ms, round r starts at
  // T0 + (r − 1)·round, and each round's traffic settles before the next.
  const SimTime start = simulator.now() + 10;
  for (std::uint32_t r = 1; r == 1 || !simulator.idle() || !echo_due.empty();
       ++r) {
    const SimTime boundary = start + static_cast<SimTime>(r - 1) * spec.round;
    simulator.run_until(boundary);
    if (r == 1) {
      for (NodeId i = 0; i < spec.initiators; ++i) fan_out(i, on_init);
    } else {
      std::vector<NodeId> due;
      due.swap(echo_due);
      for (NodeId from : due) fan_out(from, on_echo);
    }
    simulator.run_until(boundary + spec.round - 1);
  }
  return {ns_since(t0), reg.counter("sim.events_fired").value()};
}

}  // namespace

DispatchCost probe_dispatch(const DispatchSpec& spec, double min_seconds) {
  DispatchCost cost;
  std::int64_t ns = 0;
  std::uint64_t events = 0;
  const auto t0 = Clock::now();
  do {
    const auto [wall_ns, fired] = replay_schedule(spec);
    ns += wall_ns;
    events += fired;
    cost.events = fired;
  } while (seconds_since(t0) < min_seconds);
  cost.ns_per_event =
      events > 0 ? static_cast<double>(ns) / static_cast<double>(events) : 0;
  return cost;
}

}  // namespace perfbench
