// The simulated workloads.
//
//   erb-clique  — one honest ERB broadcast, accounted channels, n=1000, t=1.
//   erng-attack — ERNG-basic with attested channels, n=64, t=31; hosts
//                 0..15 are byzantine and cycle through Corrupt, Replay,
//                 Delay and Crash strategies.
//
// Both use the default engine and network configuration. The run phase
// drives Testbed::run_rounds(1) once per round until every honest node has
// output; a node's output latency is the wall time from start() to the end
// of the round in which it first output (outputs are observable at round
// boundaries). With --trace-out, every host strategy is wrapped in the
// span decorator, and after the run the isolated probes replay the run's
// own message mix and schedule.
#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>

#include "adversary/strategies.hpp"
#include "common.hpp"
#include "common/rng.hpp"
#include "net/testbed.hpp"
#include "obs/pool.hpp"
#include "probes.hpp"
#include "protocol/erb_node.hpp"
#include "protocol/erng_basic.hpp"
#include "spans.hpp"

namespace perfbench {

using namespace sgxp2p;

namespace {

constexpr double kProbeSeconds = 0.25;
constexpr std::size_t kMixCap = 200000;
constexpr std::size_t kPayloadBytes = 40;  // erb-clique broadcast payload

struct Spec {
  bool erng = false;
  std::uint32_t n = 0;
  std::uint32_t t = 0;
  std::uint32_t byzantine = 0;  // hosts 0..byzantine-1
  protocol::ChannelMode mode = protocol::ChannelMode::kAccounted;
};

Spec spec_for(const std::string& name, const Flags& flags) {
  Spec s;
  if (name == "erb-clique") {
    s.n = static_cast<std::uint32_t>(flags.u64("n", 1000));
    s.t = 1;
    s.mode = protocol::ChannelMode::kAccounted;
  } else {
    s.erng = true;
    s.n = static_cast<std::uint32_t>(flags.u64("n", 64));
    s.t = (s.n - 1) / 2;
    s.byzantine = static_cast<std::uint32_t>(flags.u64("byz", s.n / 4));
    s.mode = protocol::ChannelMode::kAttested;
  }
  return s;
}

std::unique_ptr<adversary::Strategy> byzantine_strategy(NodeId id,
                                                        std::uint32_t n,
                                                        SimDuration round) {
  switch (id % 4) {
    case 0:
      return std::make_unique<adversary::CorruptStrategy>(0.5, n);
    case 1:
      return std::make_unique<adversary::ReplayStrategy>(round / 3);
    case 2:
      return std::make_unique<adversary::DelayStrategy>(2 * round);
    default:
      return std::make_unique<adversary::CrashStrategy>();
  }
}

struct Output {
  bool done = false;
  bool bottom = false;
  Bytes value;
  SimTime at = 0;
};

Output output_of(sim::Testbed& bed, NodeId id, bool erng) {
  Output out;
  if (!bed.has_enclave(id)) return out;
  if (erng) {
    const auto& r = bed.enclave_as<protocol::ErngBasicNode>(id).result();
    out = Output{r.done, r.is_bottom, r.value, r.decided_at};
  } else {
    const auto& r = bed.enclave_as<protocol::ErbNode>(id).result();
    out = Output{r.decided, !r.value.has_value(), r.value.value_or(Bytes{}),
                 r.decided_at};
  }
  return out;
}

std::uint64_t counter(const obs::MetricsSnapshot& snap, std::string_view name) {
  const obs::CounterSample* c = snap.find_counter(name);
  return c != nullptr ? c->value : 0;
}

}  // namespace

int run_sim_workload(const std::string& name, const Flags& flags) {
  const Spec spec = spec_for(name, flags);
  const std::uint64_t seed = flags.u64("seed", 1);
  const std::string trace_out = flags.str("trace-out");
  const bool traced = !trace_out.empty();

  obs::MetricsRegistry reg;
  obs::MetricsRegistry::ScopedCurrent bind(reg);
  sim::TestbedConfig cfg;
  cfg.n = spec.n;
  cfg.t = spec.t;
  cfg.seed = seed;
  cfg.mode = spec.mode;
  cfg.registry = &reg;
  const SimDuration round = cfg.effective_round();

  Rng input(seed ^ 0x70a7c0adedULL);
  Bytes payload(kPayloadBytes);
  for (auto& b : payload) b = static_cast<std::uint8_t>(input.next_u64());

  SpanLog spans;
  std::vector<std::uint64_t> sent_sizes;
  const auto make_enclave =
      [&](NodeId id, sgx::SgxPlatform& platform, net::Host& host,
          protocol::PeerConfig pc,
          const sgx::SimIAS& ias) -> std::unique_ptr<protocol::PeerEnclave> {
    if (spec.erng) {
      return std::make_unique<protocol::ErngBasicNode>(platform, id, host, pc,
                                                       ias);
    }
    return std::make_unique<protocol::ErbNode>(platform, id, host, pc, ias,
                                               NodeId{0},
                                               id == 0 ? payload : Bytes{});
  };
  const auto make_strategy =
      [&](NodeId id) -> std::unique_ptr<adversary::Strategy> {
    std::unique_ptr<adversary::Strategy> s;
    if (id < spec.byzantine) s = byzantine_strategy(id, spec.n, round);
    if (!traced) return s;
    if (!s) s = std::make_unique<adversary::HonestStrategy>();
    return std::make_unique<TracingStrategy>(std::move(s), spans, sent_sizes);
  };

  // ---- setup: hosts, enclaves, handshakes or fast links, seq exchange ----
  const auto setup_t0 = Clock::now();
  auto bed = std::make_unique<sim::Testbed>(cfg);
  bed->build(make_enclave, make_strategy);
  const double setup_s = seconds_since(setup_t0);

  // ---- run: one round per run_rounds(1) until every honest node output ----
  const std::vector<NodeId> honest = bed->honest_nodes();
  std::vector<double> output_us(spec.n, -1);
  std::size_t outputs = 0;
  std::uint32_t rounds = 0;
  const std::uint32_t max_rounds = spec.t + 4;
  const auto run_t0 = Clock::now();
  bed->start();
  while (rounds < max_rounds && outputs < honest.size()) {
    ++rounds;
    if (traced) spans.begin_round(rounds);
    bed->run_rounds(1);
    if (traced) spans.end_round();
    const double t_us = seconds_since(run_t0) * 1e6;
    for (NodeId id : honest) {
      if (output_us[id] < 0 && output_of(*bed, id, spec.erng).done) {
        output_us[id] = t_us;
        ++outputs;
      }
    }
  }
  const double run_s = seconds_since(run_t0);

  // ---- outputs and checks ----
  bed->network().publish_capacity_gauges();
  const obs::MetricsSnapshot snap = reg.snapshot();
  const std::uint64_t sends = counter(snap, "net.sends");
  const std::uint64_t rejected = counter(snap, "channel.mac_failed") +
                                 counter(snap, "channel.replay_rejected") +
                                 counter(snap, "channel.window_overflow");

  // The agreed value: the broadcast payload, or the most common ERNG output.
  std::map<Bytes, std::size_t> votes;
  for (NodeId id : honest) {
    const Output o = output_of(*bed, id, spec.erng);
    if (o.done && !o.bottom) ++votes[o.value];
  }
  Bytes agreed = payload;
  if (spec.erng) {
    std::size_t best = 0;
    for (const auto& [value, count] : votes) {
      if (count > best) {
        best = count;
        agreed = value;
      }
    }
  }
  std::size_t failed = 0;
  SimTime latest = 0;
  std::vector<double> latencies;
  for (NodeId id : honest) {
    const Output o = output_of(*bed, id, spec.erng);
    if (!o.done || o.bottom || o.value != agreed) {
      ++failed;
      continue;
    }
    latest = std::max(latest, o.at);
    latencies.push_back(output_us[id]);
  }
  std::size_t halted = 0;
  for (NodeId id = 0; id < spec.n; ++id) {
    if (bed->has_enclave(id) && bed->enclave(id).halted()) ++halted;
  }

  Checks checks;
  checks.expect("honest outputs agree", failed == 0,
                std::to_string(honest.size() - failed) + "/" +
                    std::to_string(honest.size()) + " ok");
  if (spec.erng) {
    checks.expect("host attack rejected by the channel", rejected > 0,
                  "channel.rejected=" + std::to_string(rejected));
    checks.expect("a node halted", halted > 0,
                  "halted=" + std::to_string(halted));
  } else {
    const std::uint64_t expect = 2ull * spec.n * (spec.n - 1);
    checks.expect("decided in 2 rounds", rounds == 2,
                  "rounds=" + std::to_string(rounds));
    checks.expect("messages == 2n(n-1)", sends == expect,
                  std::to_string(sends) + " vs " + std::to_string(expect));
  }

  const obs::BufferPool::Stats pool = obs::BufferPool::local().stats();
  JsonObject out;
  out.str("workload", name)
      .u64("seed", seed)
      .u64("n", spec.n)
      .u64("t", spec.t)
      .u64("byzantine", spec.byzantine)
      .num("setup_s", setup_s)
      .num("run_s", run_s)
      .u64("rounds", rounds)
      .i64("virtual_decide_ms", latest - bed->start_time())
      .u64("honest", honest.size())
      .u64("failed", failed)
      .u64("halted", halted)
      .raw("output_us", json_array(latencies))
      .u64("pool_acquires", pool.acquires)
      .u64("pool_hits", pool.hits)
      .raw("registry", snap.to_json());

  if (traced) {
    const SpanLog::Agg r = spans.total(Span::kRound);
    const SpanLog::Agg d = spans.total(Span::kDeliver);
    const SpanLog::Agg f = spans.total(Span::kForward);
    out.raw("spans", JsonObject()
                         .u64("rounds", r.count)
                         .i64("round_total_ns", r.total_ns)
                         .i64("round_self_ns", r.self_ns)
                         .u64("deliver_count", d.count)
                         .i64("deliver_total_ns", d.total_ns)
                         .i64("deliver_self_ns", d.self_ns)
                         .u64("forward_count", f.count)
                         .i64("forward_total_ns", f.total_ns)
                         .u64("outside_rounds", spans.outside_count())
                         .done());
    std::ofstream file(trace_out);
    file << JsonObject()
                .str("workload", name)
                .u64("seed", seed)
                .raw("rounds", spans.json())
                .done()
         << '\n';
    if (!file) throw std::runtime_error("cannot write " + trace_out);

    // Probes replay this run's own traffic. Free the deployment first.
    std::vector<std::pair<protocol::MsgType, std::uint64_t>> types;
    const std::string ns = spec.erng ? "erng" : "erb";
    for (protocol::MsgType type :
         {protocol::MsgType::kInit, protocol::MsgType::kEcho,
          protocol::MsgType::kAck}) {
      const std::uint64_t c = counter(
          snap, ns + ".send{" + protocol::msg_type_name(type) + "}");
      if (c > 0) types.emplace_back(type, c);
    }
    bed.reset();
    obs::MetricsRegistry scratch;
    obs::MetricsRegistry::ScopedCurrent probe_bind(scratch);
    const std::vector<protocol::Val> mix =
        make_val_mix(sent_sizes, types, seed, kMixCap);
    const SerdeCost serde = probe_serde(mix, kProbeSeconds);
    SealCost seal;
    double handshake_us = 0;
    if (spec.mode == protocol::ChannelMode::kAttested) {
      seal = probe_seal_open(mix, kProbeSeconds);
      handshake_us = probe_handshake_us(kProbeSeconds);
    }
    const DispatchCost dispatch = probe_dispatch(
        DispatchSpec{.n = spec.n,
                     .initiators = spec.erng ? spec.n : 1,
                     .base_delay = cfg.net.base_delay,
                     .max_jitter = cfg.net.max_jitter,
                     .round = round,
                     .seed = seed},
        kProbeSeconds);
    std::uint64_t sent_total = 0;
    std::uint64_t sent_bytes = 0;
    for (std::size_t s = 0; s < sent_sizes.size(); ++s) {
      sent_total += sent_sizes[s];
      sent_bytes += s * sent_sizes[s];
    }
    out.raw("probes",
            JsonObject()
                .u64("mix_vals", mix.size())
                .num("mix_mean_wire_b",
                     sent_total > 0 ? static_cast<double>(sent_bytes) /
                                          static_cast<double>(sent_total)
                                    : 0)
                .num("serialize_ns", serde.serialize_ns)
                .num("parse_ns", serde.parse_ns)
                .num("seal_ns", seal.seal_ns)
                .num("open_ns", seal.open_ns)
                .num("handshake_us", handshake_us)
                .num("dispatch_ns", dispatch.ns_per_event)
                .u64("dispatch_events", dispatch.events)
                .done());
  }

  out.u64("peak_rss_kb", static_cast<std::uint64_t>(peak_rss_kb()))
      .raw("checks", checks.json())
      .boolean("ok", checks.all_ok());
  std::printf("%s\n", out.done().c_str());
  return checks.all_ok() ? 0 : 1;
}

}  // namespace perfbench
