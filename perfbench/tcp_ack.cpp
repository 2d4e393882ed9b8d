// tcp-ack — the only workload that crosses real sockets.
//
// One TcpBus with 2 endpoints over one localhost connection (the caller's
// thread plus the bus I/O thread). Node 0 sends ≈100 B request frames, each
// a serialized protocol Val; node 1's receiver parses it and answers on the
// I/O thread with an ACK Val carrying the request's sequence number and
// payload — the INIT/ECHO → ACK pattern. Both phases are closed loops:
//
//   phase A — 1 request outstanding: every round trip is timed (RTT);
//   phase B — kWindow (64) requests outstanding: completed pairs per second,
//             which is where writev coalescing batches frames.
//
// Set-up is the bus bring-up (construct, bind, connect, start the I/O
// thread), timed over several fresh buses; the median is reported. With
// --trace-out, each phase A caller-side TcpBus::send is timed (spans
// aggregated to count and total) and the serde probe replays the frames'
// Vals.
#include <algorithm>
#include <atomic>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common.hpp"
#include "common/rng.hpp"
#include "net/tcp_bus.hpp"
#include "obs/metrics.hpp"
#include "probes.hpp"
#include "protocol/wire.hpp"

namespace perfbench {

using namespace sgxp2p;

namespace {

constexpr std::size_t kTemplates = 1024;
constexpr std::uint64_t kWarmup = 2000;  // untimed phase A round trips
constexpr std::uint64_t kWindow = 64;    // phase B requests outstanding
constexpr std::uint64_t kSetups = 31;    // bus bring-ups timed per instance
constexpr double kWaitSeconds = 5.0;     // a missing reply fails the run
constexpr double kProbeSeconds = 0.25;

struct SendSpans {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  [[nodiscard]] double mean_ns() const {
    return count > 0 ? static_cast<double>(total_ns) /
                           static_cast<double>(count)
                     : 0;
  }
};

struct TcpCounters {
  std::uint64_t sends = 0;
  std::uint64_t received = 0;
  std::uint64_t writev_calls = 0;
  std::uint64_t recv_calls = 0;
  std::uint64_t backpressure = 0;
  std::uint64_t send_failures = 0;
  std::uint64_t batches = 0;
  std::int64_t batched_frames = 0;

  static TcpCounters read(const obs::MetricsRegistry& reg) {
    const obs::MetricsSnapshot snap = reg.snapshot();
    TcpCounters c;
    const auto value = [&](std::string_view name) {
      const obs::CounterSample* s = snap.find_counter(name);
      return s != nullptr ? s->value : 0;
    };
    c.sends = value("net.tcp.sends");
    c.received = value("net.tcp.received");
    c.writev_calls = value("net.tcp.writev_calls");
    c.recv_calls = value("net.tcp.recv_calls");
    c.backpressure = value("net.tcp.backpressure_events");
    c.send_failures = value("net.tcp.send_failures");
    for (const obs::HistogramSample& h : snap.histograms) {
      if (h.name == "net.tcp.writev_batch") {
        c.batches = h.count;
        c.batched_frames = h.sum;
      }
    }
    return c;
  }

  [[nodiscard]] std::string json_since(const TcpCounters& before) const {
    return JsonObject()
        .u64("sends", sends - before.sends)
        .u64("received", received - before.received)
        .u64("writev_calls", writev_calls - before.writev_calls)
        .u64("recv_calls", recv_calls - before.recv_calls)
        .u64("backpressure", backpressure - before.backpressure)
        .u64("send_failures", send_failures - before.send_failures)
        .u64("writev_batches", batches - before.batches)
        .i64("writev_batched_frames", batched_frames - before.batched_frames)
        .done();
  }
};

/// The requester side: request templates, the in-order ACK check, and the
/// counters the I/O thread updates.
class Requester {
 public:
  Requester(net::TcpBus& bus, std::uint64_t seed) : bus_(&bus) {
    Rng rng(seed);
    seq0_ = rng.next_u64() >> 16;
    templates_.resize(kTemplates);
    for (protocol::Val& v : templates_) {
      // Alternating INIT/ECHO requests, 59..99 B payloads: 80..120 B frames.
      v.type = rng.next_below(2) == 0 ? protocol::MsgType::kInit
                                      : protocol::MsgType::kEcho;
      v.initiator = 0;
      v.round = static_cast<std::uint32_t>(1 + rng.next_below(40));
      v.payload.resize(59 + rng.next_below(41));
      for (auto& b : v.payload) b = static_cast<std::uint8_t>(rng.next_u64());
    }
  }

  /// Node 1 answers a request; node 0 checks an ACK. On the I/O thread.
  void on_frame(NodeId to, Bytes blob) {
    auto val = protocol::parse_val(blob);
    if (to == 1) {
      if (!val) {
        bad_frames_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      val->type = protocol::MsgType::kAck;
      val->initiator = 1;
      Bytes ack;
      protocol::serialize_into(*val, ack);
      if (bus_->send(1, 0, std::move(ack)) != net::SendStatus::kOk) {
        reply_failures_.fetch_add(1, std::memory_order_relaxed);
      }
      return;
    }
    const std::uint64_t index = acked_.load(std::memory_order_relaxed);
    const protocol::Val& req = templates_[index % kTemplates];
    if (!val || val->type != protocol::MsgType::kAck ||
        val->seq != seq0_ + index || val->payload != req.payload) {
      bad_frames_.fetch_add(1, std::memory_order_relaxed);
    }
    acked_.store(index + 1, std::memory_order_release);
  }

  /// Serializes request `index` and hands it to the bus; `timed` records a
  /// span around the bus call.
  net::SendStatus send(std::uint64_t index, bool timed) {
    protocol::Val& req = templates_[index % kTemplates];
    req.seq = seq0_ + index;
    Bytes frame;
    protocol::serialize_into(req, frame);
    if (!timed) return bus_->send(0, 1, std::move(frame));
    const auto t0 = Clock::now();
    const net::SendStatus status = bus_->send(0, 1, std::move(frame));
    send_spans_.total_ns += ns_since(t0);
    ++send_spans_.count;
    return status;
  }

  /// Spins until `count` ACKs arrived; false on timeout.
  [[nodiscard]] bool wait_acked(std::uint64_t count) const {
    const auto t0 = Clock::now();
    while (acked() < count) {
      if (seconds_since(t0) > kWaitSeconds) return false;
      std::this_thread::yield();
    }
    return true;
  }

  [[nodiscard]] std::uint64_t acked() const {
    return acked_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t bad_frames() const { return bad_frames_.load(); }
  [[nodiscard]] std::uint64_t reply_failures() const {
    return reply_failures_.load();
  }
  /// The Vals this workload puts on the wire: every request and its ACK.
  [[nodiscard]] std::vector<protocol::Val> sent_vals() const {
    std::vector<protocol::Val> vals = templates_;
    for (protocol::Val v : templates_) {
      v.type = protocol::MsgType::kAck;
      v.initiator = 1;
      vals.push_back(std::move(v));
    }
    return vals;
  }

  /// Caller-side TcpBus::send spans since the last call (traced runs).
  SendSpans take_send_spans() { return std::exchange(send_spans_, {}); }

 private:
  net::TcpBus* bus_;
  std::uint64_t seq0_ = 0;
  std::vector<protocol::Val> templates_;  // payloads read by the I/O thread
  std::atomic<std::uint64_t> acked_{0};
  std::atomic<std::uint64_t> bad_frames_{0};
  std::atomic<std::uint64_t> reply_failures_{0};
  SendSpans send_spans_;
};

double bring_up_seconds() {
  // A scratch registry keeps the throwaway buses out of the run's counters.
  obs::MetricsRegistry scratch;
  obs::MetricsRegistry::ScopedCurrent bind(scratch);
  const auto t0 = Clock::now();
  net::TcpBus bus(2);
  bus.set_receiver([](NodeId, NodeId, Bytes) {});
  if (!bus.start()) throw std::runtime_error("tcp-ack: bus bring-up failed");
  const double s = seconds_since(t0);
  bus.stop();
  return s;
}

}  // namespace

int run_tcp_ack(const Flags& flags) {
  const std::uint64_t seed = flags.u64("seed", 1);
  const std::uint64_t requests_a = flags.u64("requests-a", 50000);
  const std::uint64_t requests_b = flags.u64("requests-b", 1000000);
  const std::string trace_out = flags.str("trace-out");
  const bool traced = !trace_out.empty();

  std::vector<double> setup_samples;
  for (std::uint64_t i = 0; i < kSetups; ++i) {
    setup_samples.push_back(bring_up_seconds());
  }
  std::vector<double> sorted = setup_samples;
  std::sort(sorted.begin(), sorted.end());
  const double setup_s = (sorted[(sorted.size() - 1) / 2] +
                          sorted[sorted.size() / 2]) / 2;

  obs::MetricsRegistry reg;
  obs::MetricsRegistry::ScopedCurrent bind(reg);
  net::TcpBus bus(2);
  Requester requester(bus, seed);
  bus.set_receiver([&requester](NodeId to, NodeId, Bytes blob) {
    requester.on_frame(to, std::move(blob));
  });
  if (!bus.start()) throw std::runtime_error("tcp-ack: bus bring-up failed");

  std::uint64_t down = 0;
  std::uint64_t index = 0;
  bool stalled = false;

  // ---- phase A: one request outstanding, every round trip timed ----
  const TcpCounters a0 = TcpCounters::read(reg);
  std::vector<double> rtt_us;
  rtt_us.reserve(requests_a);
  for (std::uint64_t i = 0; i < kWarmup + requests_a && !stalled; ++i) {
    if (i == kWarmup) (void)requester.take_send_spans();  // untimed warm-up
    const auto t0 = Clock::now();
    if (requester.send(index, traced) != net::SendStatus::kOk) {
      ++down;
      break;
    }
    ++index;
    stalled = !requester.wait_acked(index);
    if (i >= kWarmup && !stalled) rtt_us.push_back(seconds_since(t0) * 1e6);
  }
  const TcpCounters a1 = TcpCounters::read(reg);
  const SendSpans send_a = requester.take_send_spans();
  // Phase B sends stay untimed even when traced: two clock reads per send
  // slow the sender just enough that the I/O thread drains every frame as
  // it arrives, and coalescing collapses (measured: 11 -> 3.5 frames per
  // writev, half the round trips per second).

  // ---- phase B: kWindow requests outstanding ----
  const std::uint64_t base = index;
  std::uint64_t sent = 0;
  std::uint64_t retries = 0;
  const auto b0 = Clock::now();
  auto progress_at = b0;
  std::uint64_t last_acked = base;
  while (!stalled && down == 0 && requester.acked() < base + requests_b) {
    const std::uint64_t acked = requester.acked();
    if (acked != last_acked) {
      last_acked = acked;
      progress_at = Clock::now();
    } else if (seconds_since(progress_at) > kWaitSeconds) {
      stalled = true;
      break;
    }
    if (sent < requests_b && base + sent - acked < kWindow) {
      const net::SendStatus status = requester.send(base + sent, false);
      if (status == net::SendStatus::kOk) {
        ++sent;
      } else if (status == net::SendStatus::kBackpressure) {
        ++retries;
      } else {
        ++down;
      }
    } else {
      std::this_thread::yield();
    }
  }
  const double phase_b_s = seconds_since(b0);
  const TcpCounters b1 = TcpCounters::read(reg);
  bus.stop();

  const std::uint64_t attempted = requests_a + requests_b;
  const std::uint64_t completed =
      requester.acked() > kWarmup ? requester.acked() - kWarmup : 0;
  const std::uint64_t failed =
      completed >= attempted ? 0 : attempted - completed;

  Checks checks;
  checks.expect("every ACK carries its request's sequence number",
                requester.bad_frames() == 0,
                "bad=" + std::to_string(requester.bad_frames()));
  checks.expect("no send returned kDown",
                down == 0 && requester.reply_failures() == 0,
                "requests=" + std::to_string(down) +
                    " replies=" + std::to_string(requester.reply_failures()));
  checks.expect("every request answered", !stalled && failed == 0,
                std::to_string(completed) + "/" + std::to_string(attempted));

  JsonObject out;
  out.str("workload", "tcp-ack")
      .u64("seed", seed)
      .num("setup_s", setup_s)
      .raw("setup_samples_s", json_array(setup_samples))
      .raw("rtt_us", json_array(rtt_us))
      .u64("window", kWindow)
      .u64("roundtrips_b", requests_b)
      .num("phase_b_s", phase_b_s)
      .u64("backpressure_retries", retries)
      .raw("phase_a", a1.json_since(a0))
      .raw("phase_b", b1.json_since(a1))
      .u64("attempted", attempted)
      .u64("failed", failed);
  if (traced) {
    std::ofstream file(trace_out);
    file << JsonObject()
                .str("workload", "tcp-ack")
                .u64("seed", seed)
                .raw("net.tcp_bus.send", JsonObject()
                                             .u64("count", send_a.count)
                                             .i64("total_ns", send_a.total_ns)
                                             .done())
                .done()
         << '\n';
    if (!file) throw std::runtime_error("cannot write " + trace_out);
    const SerdeCost serde = probe_serde(requester.sent_vals(), kProbeSeconds);
    out.num("send_ns_a", send_a.mean_ns())
        .raw("probes", JsonObject()
                           .num("serialize_ns", serde.serialize_ns)
                           .num("parse_ns", serde.parse_ns)
                           .done());
  }
  out.u64("peak_rss_kb", static_cast<std::uint64_t>(peak_rss_kb()))
      .raw("checks", checks.json())
      .boolean("ok", checks.all_ok());
  std::printf("%s\n", out.done().c_str());
  return checks.all_ok() ? 0 : 1;
}

}  // namespace perfbench
