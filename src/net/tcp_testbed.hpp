// TcpTestbed — the protocol stack over real TCP sockets and wall-clock
// rounds.
//
// Mirrors sim::Testbed's shape (build → start → run_rounds) but with: a
// TcpBus mesh instead of the simulated network, SteadyClock (CLOCK_MONOTONIC)
// as the enclaves' trusted time, and real sleeping between round boundaries.
// All node state is serialized under one mutex: inbound frames arrive on the
// bus I/O thread, ticks on the caller thread. Intended for the localhost
// deployment example, the TCP integration tests, bench_tcp, and the TCP
// fuzz runner (which injects a send hook to fault outbound traffic — see
// fuzz/tcp_shim.hpp).
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "net/tcp_bus.hpp"
#include "protocol/peer_enclave.hpp"
#include "sgx/attestation.hpp"
#include "sgx/platform.hpp"

namespace sgxp2p::net {

struct TcpTestbedConfig {
  std::uint32_t n = 4;
  std::uint32_t t = 0;              // 0 → ⌊(n−1)/2⌋
  SimDuration round_ms = 250;       // wall-clock round (2Δ); localhost Δ≈125ms
  std::uint64_t seed = 1;
};

class TcpTestbed {
 public:
  using EnclaveFactory = std::function<std::unique_ptr<protocol::PeerEnclave>(
      NodeId id, sgx::SgxPlatform& platform, sgx::EnclaveHostIface& host,
      protocol::PeerConfig cfg, const sgx::SimIAS& ias)>;

  /// Outbound-frame interposer (the TCP fuzz shim): return false to
  /// suppress the frame, true to let it through. `round` is the current
  /// wall-clock round (0 before start()). Runs on whichever thread the
  /// enclave sent from; must not call back into the testbed lock.
  using SendHook =
      std::function<bool(NodeId from, NodeId to, ByteView blob,
                         std::uint32_t round)>;

  explicit TcpTestbed(TcpTestbedConfig config);
  ~TcpTestbed();

  /// Installs the outbound interposer. Call before build().
  void set_send_hook(SendHook hook) { send_hook_ = std::move(hook); }

  /// Builds nodes, runs the attested setup, and starts the socket mesh.
  /// Returns false if the mesh could not be established.
  bool build(const EnclaveFactory& make_enclave);

  /// Synchronized start (S2): T0 = now + one round.
  void start();

  /// Drives `max_rounds` wall-clock rounds; `stop_when` is evaluated at each
  /// boundary under the state lock. Returns rounds executed.
  std::uint32_t run_rounds(std::uint32_t max_rounds,
                           const std::function<bool()>& stop_when = {});

  /// Crash injection: destroys node `id`'s enclave under the state lock.
  /// Inbound frames for it are dropped until recover_node(). The socket
  /// mesh stays up — only the enclave dies, as in the simulator testbed.
  void crash_node(NodeId id);

  /// Relaunches a crashed node: rebuilds the enclave, runs `before_start`
  /// (restore + re-handshakes) under the lock, and starts it at the
  /// original T0 so its trusted-time round clock matches the others.
  protocol::PeerEnclave& recover_node(
      NodeId id, const EnclaveFactory& make_enclave,
      const std::function<void(protocol::PeerEnclave&)>& before_start = {});

  /// Runs `fn` under the state lock (for inspecting results).
  template <typename Fn>
  auto locked(Fn&& fn) {
    std::lock_guard<std::mutex> lock(state_mu_);
    return fn();
  }

  /// The wall-clock round in progress: 0 before T0, 1 during [T0, T0+round),
  /// … Safe from any thread (the fuzz shim's delay worker uses it).
  [[nodiscard]] std::uint32_t current_round() const;

  /// Sends a frame on the raw bus, bypassing the send hook — the shim's
  /// delayed/duplicated deliveries re-enter here. Failures are logged once
  /// per connection and counted by the bus.
  SendStatus bus_send_raw(NodeId from, NodeId to, Bytes blob);

  /// False after crash_node(id) until the node is recovered.
  [[nodiscard]] bool has_enclave(NodeId id) const {
    return enclaves_.at(id) != nullptr;
  }
  [[nodiscard]] protocol::PeerEnclave& enclave(NodeId id) {
    return *enclaves_.at(id);
  }
  template <typename T>
  [[nodiscard]] T& enclave_as(NodeId id) {
    return dynamic_cast<T&>(*enclaves_.at(id));
  }
  [[nodiscard]] TcpBus& bus() { return *bus_; }
  [[nodiscard]] const TcpTestbedConfig& config() const { return cfg_; }

 private:
  // The host of a TCP node: transfers blobs over the socket mesh.
  class BusHost final : public sgx::EnclaveHostIface {
   public:
    BusHost(NodeId self, TcpTestbed& bed) : self_(self), bed_(&bed) {}
    void transfer(NodeId to, Bytes blob) override {
      bed_->host_transfer(self_, to, std::move(blob));
    }

   private:
    NodeId self_;
    TcpTestbed* bed_;
  };

  void host_transfer(NodeId from, NodeId to, Bytes blob);

  TcpTestbedConfig cfg_;
  SteadyClock clock_;
  std::unique_ptr<TcpBus> bus_;
  sgx::SgxPlatform platform_;
  std::unique_ptr<sgx::SimIAS> ias_;
  std::vector<std::unique_ptr<BusHost>> hosts_;
  std::vector<std::unique_ptr<protocol::PeerEnclave>> enclaves_;
  SendHook send_hook_;
  // One warn per connection on the first failed send (satellite of the
  // status-enum change: failures used to vanish silently).
  std::unique_ptr<std::atomic<bool>[]> send_warned_;
  std::mutex state_mu_;
  std::atomic<SimTime> t0_{0};
  std::uint32_t rounds_run_ = 0;
};

}  // namespace sgxp2p::net
