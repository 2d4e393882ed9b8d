// Testbed — one-call harness assembling a full simulated deployment.
//
// Owns the simulator, network, SGX platform, SimIAS, hosts (with their
// byzantine strategies) and protocol enclaves; performs the one-time setup
// phase (attested handshakes + sequence exchange, or fast links in
// accounted mode); then drives the lockstep round loop: at every round
// boundary each live enclave's trusted timer fires, halted nodes are churned
// out of the network, and the loop stops on a caller predicate or a round
// cap. Tests, benches, and examples all build on this.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "common/ids.hpp"
#include "net/host.hpp"
#include "net/network.hpp"
#include "net/simulator.hpp"
#include "protocol/peer_enclave.hpp"
#include "sgx/attestation.hpp"
#include "sgx/platform.hpp"
#include "sgx/transition.hpp"

namespace sgxp2p::sim {

struct TestbedConfig {
  std::uint32_t n = 4;
  std::uint32_t t = 0;  // 0 → ⌊(n−1)/2⌋
  NetworkConfig net;
  SimDuration round_ms = 0;  // 0 → 2 × net.worst_delay()  (round = 2Δ)
  protocol::ChannelMode mode = protocol::ChannelMode::kAttested;
  std::uint64_t seed = 1;
  /// Registry this deployment instruments. nullptr → the thread's current
  /// registry at construction time (usually the global one). Sweep drivers
  /// hand every run its own registry so runs are isolated and mergeable.
  obs::MetricsRegistry* registry = nullptr;
  /// Per-transition virtual costs (sgx/transition.hpp). Default zero: the
  /// meter counts ecalls/ocalls but charges nothing, so every existing
  /// baseline is unchanged unless a run opts into the cost model.
  sgx::TransitionCosts sgx_costs;
  /// Setup-phase topology: returns the peers node `id` exchanges handshake
  /// and sequence blobs with during run_setup(). Unset → full clique (the
  /// paper's setup). Sharded deployments at n=100k pass a sparse (or empty,
  /// in accounted mode) neighbor map so setup stays far below O(n²).
  std::function<std::vector<NodeId>(NodeId)> setup_peers;

  [[nodiscard]] std::uint32_t effective_t() const {
    return t != 0 ? t : (n - 1) / 2;
  }
  [[nodiscard]] SimDuration effective_round() const {
    return round_ms != 0 ? round_ms : 2 * net.worst_delay();
  }
};

class Testbed {
 public:
  /// Builds the protocol enclave for one node. The PeerConfig handed in is
  /// fully populated; factories typically just construct their subclass.
  using EnclaveFactory = std::function<std::unique_ptr<protocol::PeerEnclave>(
      NodeId id, sgx::SgxPlatform& platform, net::Host& host,
      protocol::PeerConfig cfg, const sgx::SimIAS& ias)>;
  /// Chooses each node's OS behavior; nullptr → honest.
  using StrategyFactory =
      std::function<std::unique_ptr<adversary::Strategy>(NodeId id)>;

  explicit Testbed(TestbedConfig config);

  /// Constructs hosts + enclaves and runs the setup phase.
  void build(const EnclaveFactory& make_enclave,
             const StrategyFactory& make_strategy = {});

  /// Fixes T0 slightly in the future and calls start_protocol on all nodes.
  void start();

  /// Runs complete rounds until `stop_when` returns true (checked at each
  /// round boundary, after ticks) or `max_rounds` elapse. Returns the number
  /// of rounds executed.
  std::uint32_t run_rounds(std::uint32_t max_rounds,
                           const std::function<bool()>& stop_when = {});

  // ----- crash / recovery injection (src/recovery/) -----

  /// Adds a hook fired at every round boundary BEFORE the enclaves tick,
  /// with the round number about to begin. Hooks run in installation order.
  /// The RecoveryCoordinator drives checkpoints, crashes and relaunches from
  /// one; the fuzz runner's partition/crash driver follows it.
  void add_round_hook(std::function<void(std::uint32_t)> hook) {
    round_hooks_.push_back(std::move(hook));
  }

  /// Crash injection: destroys node `id`'s enclave (all in-enclave state is
  /// lost) and detaches it from the network. The host object survives, as
  /// does any host-side sealed storage.
  void kill_enclave(NodeId id);

  /// Relaunches a previously killed node: builds a fresh enclave via the
  /// factory, reattaches host + network, runs `before_start` (checkpoint
  /// restore + re-handshakes happen there), then starts the protocol at the
  /// original T0 so the trusted-time round clock stays aligned.
  protocol::PeerEnclave& relaunch_enclave(
      NodeId id, const EnclaveFactory& make_enclave,
      const std::function<void(protocol::PeerEnclave&)>& before_start = {});

  /// False after kill_enclave(id) until the node is relaunched.
  [[nodiscard]] bool has_enclave(NodeId id) const {
    return enclaves_.at(id) != nullptr;
  }

  // ----- access -----
  [[nodiscard]] protocol::PeerEnclave& enclave(NodeId id) {
    return *enclaves_.at(id);
  }
  template <typename T>
  [[nodiscard]] T& enclave_as(NodeId id) {
    auto* p = dynamic_cast<T*>(enclaves_.at(id).get());
    CHECK_MSG(p != nullptr, "enclave_as: wrong protocol type");
    return *p;
  }
  [[nodiscard]] net::Host& host(NodeId id) { return *hosts_.at(id); }
  [[nodiscard]] Network& network() { return network_; }
  [[nodiscard]] Simulator& simulator() { return simulator_; }
  [[nodiscard]] obs::MetricsRegistry& registry() { return *registry_; }
  [[nodiscard]] const TestbedConfig& config() const { return cfg_; }
  [[nodiscard]] sgx::SimIAS& ias() { return *ias_; }
  [[nodiscard]] SimTime start_time() const { return t0_; }
  [[nodiscard]] std::uint32_t rounds_run() const { return rounds_run_; }

  /// Ids of nodes still attached to the network.
  [[nodiscard]] std::vector<NodeId> live_nodes() const;
  /// Ids of honest (HonestStrategy) nodes.
  [[nodiscard]] std::vector<NodeId> honest_nodes() const;

 private:
  /// The paper's setup phase over cfg_.setup_peers (default: the clique):
  /// links go in sender by sender, then the initial sequence exchange runs
  /// receiver by receiver, with one shared SETUP blob per sender where the
  /// channel mode allows it (accounted) and one sealed blob per pair where
  /// it does not (attested).
  void run_setup();

  TestbedConfig cfg_;
  obs::MetricsRegistry* registry_;  // resolved before simulator_/network_
  Simulator simulator_;
  Network network_;
  sgx::SgxPlatform platform_;
  std::unique_ptr<sgx::SimIAS> ias_;
  std::vector<std::unique_ptr<net::Host>> hosts_;
  std::vector<std::unique_ptr<protocol::PeerEnclave>> enclaves_;
  SimTime t0_ = 0;
  std::uint32_t rounds_run_ = 0;
  std::vector<std::function<void(std::uint32_t)>> round_hooks_;
};

}  // namespace sgxp2p::sim
