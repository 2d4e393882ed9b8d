#include "net/testbed.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "common/serde.hpp"

namespace sgxp2p::sim {

namespace {
Bytes platform_seed(std::uint64_t seed) {
  BinaryWriter w;
  w.str("sgxp2p-platform");
  w.u64(seed);
  return w.take();
}
}  // namespace

Testbed::Testbed(TestbedConfig config)
    : cfg_(config),
      registry_(config.registry != nullptr ? config.registry
                                           : &obs::MetricsRegistry::current()),
      simulator_(*registry_),
      network_(simulator_, config.net, *registry_),
      platform_(simulator_, platform_seed(config.seed)) {
  // Every ecall/ocall on this deployment is counted under sgx.*; when the
  // config carries nonzero costs, each transition also charges virtual time
  // that the Network folds into the next send's arrival.
  platform_.transitions().bind(*registry_);
  platform_.transitions().configure(
      cfg_.sgx_costs, [this](SimDuration c) { simulator_.charge(c); });
  ias_ = std::make_unique<sgx::SimIAS>(platform_);
  CHECK_MSG(cfg_.n >= 1, "Testbed: need at least one node");
  CHECK_MSG(2 * cfg_.effective_t() < cfg_.n, "Testbed: t < N/2 required");
  // Lockstep soundness: a message sent at a round boundary plus its ACK must
  // land inside the same round, so the round must cover two worst-case hops.
  CHECK_MSG(cfg_.effective_round() >= 2 * cfg_.net.worst_delay(),
            "Testbed: round shorter than 2Δ");
}

void Testbed::build(const EnclaveFactory& make_enclave,
                    const StrategyFactory& make_strategy) {
  // Everything below (and transitively: handshakes, seq exchange) runs
  // enclave code that resolves instruments via MetricsRegistry::current().
  obs::MetricsRegistry::ScopedCurrent bind(*registry_);
  hosts_.reserve(cfg_.n);
  enclaves_.reserve(cfg_.n);

  std::vector<NodeId> byzantine;
  for (NodeId id = 0; id < cfg_.n; ++id) {
    std::unique_ptr<adversary::Strategy> strategy;
    if (make_strategy) strategy = make_strategy(id);
    if (!strategy) strategy = std::make_unique<adversary::HonestStrategy>();
    auto host = std::make_unique<net::Host>(id, network_, std::move(strategy),
                                            cfg_.seed * 1000003 + id);
    if (host->is_byzantine()) byzantine.push_back(id);
    hosts_.push_back(std::move(host));
  }

  protocol::PeerConfig pc;
  pc.n = cfg_.n;
  pc.t = cfg_.effective_t();
  pc.round_ms = cfg_.effective_round();
  pc.mode = cfg_.mode;
  for (NodeId id = 0; id < cfg_.n; ++id) {
    pc.self = id;
    auto enclave = make_enclave(id, platform_, *hosts_[id], pc, *ias_);
    CHECK_MSG(enclave != nullptr, "Testbed: factory returned null");
    hosts_[id]->attach_enclave(*enclave);
    hosts_[id]->set_colluders(byzantine);
    hosts_[id]->connect();
    enclaves_.push_back(std::move(enclave));
  }
  run_setup();
}

void Testbed::run_setup() {
  // One-time setup phase (paper Section 4 "Setup Phase"). Modeled as a
  // trusted bootstrap: handshake artifacts are real (quotes, X25519) but are
  // exchanged by the harness rather than over the adversarial wire — the
  // paper assumes setup completes and excludes it from all measurements.
  //
  // Default topology is the paper's full clique. When cfg_.setup_peers is
  // set it names each node's out-neighbors and only those pairs are set up
  // (callers wanting bidirectional channels list symmetric neighbor sets);
  // sharded 100k-node deployments use this to avoid the O(n²) bootstrap.
  const auto peers_of = [this](NodeId a) {
    if (cfg_.setup_peers) return cfg_.setup_peers(a);
    std::vector<NodeId> all;
    all.reserve(cfg_.n - 1);
    for (NodeId b = 0; b < cfg_.n; ++b) {
      if (b != a) all.push_back(b);
    }
    return all;
  };
  // Links go in sender by sender. The exchange below runs receiver by
  // receiver, so it needs the inverse: every node that sets up b,
  // ascending. The clique is its own inverse; a custom topology is
  // inverted in this pass, once and in O(edges).
  std::vector<std::vector<NodeId>> inverse(cfg_.setup_peers ? cfg_.n : 0);
  const auto senders_of = [&](NodeId b) {
    return cfg_.setup_peers ? std::move(inverse[b]) : peers_of(b);
  };
  std::vector<Bytes> hello(cfg_.n);  // computed lazily: sparse setups
  for (NodeId a = 0; a < cfg_.n; ++a) {
    for (NodeId b : peers_of(a)) {
      if (a == b) continue;
      if (cfg_.mode == protocol::ChannelMode::kAttested) {
        if (hello[a].empty()) hello[a] = enclaves_[a]->handshake_blob();
        bool ok = enclaves_[b]->accept_handshake(hello[a]);
        CHECK_MSG(ok, "Testbed: attested handshake failed");
      } else {
        enclaves_[a]->install_fast_link(b);
      }
      if (cfg_.setup_peers) inverse[b].push_back(a);
    }
  }
  // Initial instance-sequence exchange (P6), over the sealed links. Each
  // receiver accepts from all of its senders in a row, so its sequence
  // table fills in id order (appends) while it is in cache. A sender whose
  // SETUP blob is the same for every recipient (accounted links) builds it
  // once; attested links seal one blob per pair.
  std::vector<std::shared_ptr<const Bytes>> shared(cfg_.n);
  for (NodeId b = 0; b < cfg_.n; ++b) {
    for (NodeId a : senders_of(b)) {
      if (!shared[a]) shared[a] = enclaves_[a]->shared_seq_blob();
      bool ok = shared[a] != nullptr
                    ? enclaves_[b]->accept_seq_blob(a, *shared[a])
                    : enclaves_[b]->accept_seq_blob(
                          a, enclaves_[a]->make_seq_blob(b));
      CHECK_MSG(ok, "Testbed: sequence exchange failed");
    }
  }
}

void Testbed::start() {
  obs::MetricsRegistry::ScopedCurrent bind(*registry_);
  // S2: synchronized start at a public reference time.
  t0_ = simulator_.now() + milliseconds(10);
  LOG_INFO("testbed: start N=", cfg_.n, " t=", cfg_.effective_t(),
           " seed=", cfg_.seed, " round_ms=", cfg_.effective_round());
  for (auto& enclave : enclaves_) enclave->start_protocol(t0_);
}

std::uint32_t Testbed::run_rounds(std::uint32_t max_rounds,
                                  const std::function<bool()>& stop_when) {
  obs::MetricsRegistry::ScopedCurrent bind(*registry_);
  const SimDuration rt = cfg_.effective_round();
  // Consecutive calls continue the schedule (rounds_run_ tracks progress).
  for (std::uint32_t r = 1; r <= max_rounds; ++r) {
    SimTime boundary =
        t0_ + static_cast<SimTime>(rounds_run_ + r - 1) * rt;
    simulator_.run_until(boundary);
    // Crash/recovery injection runs first so a node killed "at round R"
    // never observes R's tick and a node relaunched at R ticks immediately.
    if (round_hook_) round_hook_(rounds_run_ + r);
    // Trusted timers fire: every live enclave observes the new round. Each
    // tick is its own ECALL: clear the transition-charge accumulator so one
    // node's tick cost never delays a different node's sends.
    for (NodeId id = 0; id < cfg_.n; ++id) {
      if (enclaves_[id] && network_.attached(id)) {
        simulator_.clear_charge();
        enclaves_[id]->on_tick();
      }
    }
    simulator_.clear_charge();
    // P4: nodes that halted leave the network immediately.
    for (NodeId id = 0; id < cfg_.n; ++id) {
      if (enclaves_[id] && enclaves_[id]->halted() && network_.attached(id)) {
        network_.detach(id);
      }
    }
    // Let the round's traffic settle.
    simulator_.run_until(boundary + rt - 1);
    if (stop_when && stop_when()) {
      rounds_run_ += r;
      return r;
    }
  }
  rounds_run_ += max_rounds;
  return max_rounds;
}

void Testbed::kill_enclave(NodeId id) {
  CHECK_MSG(id < cfg_.n && enclaves_.at(id) != nullptr,
            "kill_enclave: no such enclave");
  if (network_.attached(id)) network_.detach(id);
  hosts_[id]->detach_enclave();
  enclaves_[id].reset();  // everything in-enclave is gone
}

protocol::PeerEnclave& Testbed::relaunch_enclave(
    NodeId id, const EnclaveFactory& make_enclave,
    const std::function<void(protocol::PeerEnclave&)>& before_start) {
  obs::MetricsRegistry::ScopedCurrent bind(*registry_);
  CHECK_MSG(id < cfg_.n && enclaves_.at(id) == nullptr,
            "relaunch_enclave: node still running");
  protocol::PeerConfig pc;
  pc.self = id;
  pc.n = cfg_.n;
  pc.t = cfg_.effective_t();
  pc.round_ms = cfg_.effective_round();
  pc.mode = cfg_.mode;
  auto enclave = make_enclave(id, platform_, *hosts_[id], pc, *ias_);
  CHECK_MSG(enclave != nullptr, "relaunch_enclave: factory returned null");
  hosts_[id]->attach_enclave(*enclave);
  hosts_[id]->connect();
  enclaves_[id] = std::move(enclave);
  if (before_start) before_start(*enclaves_[id]);
  // Same T0 as everyone else: trusted time puts the relaunched enclave into
  // the current round, not round 1.
  enclaves_[id]->start_protocol(t0_);
  return *enclaves_[id];
}

std::vector<NodeId> Testbed::live_nodes() const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < cfg_.n; ++id) {
    if (network_.attached(id)) out.push_back(id);
  }
  return out;
}

std::vector<NodeId> Testbed::honest_nodes() const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < cfg_.n; ++id) {
    if (!hosts_[id]->is_byzantine()) out.push_back(id);
  }
  return out;
}

}  // namespace sgxp2p::sim
