// The untrusted host (the "OS" of Fig. 1).
//
// Every peer is a Host + Enclave pair. The host is the only component that
// touches the network; the enclave is the only component that sees
// plaintext. The host routes blobs through its Strategy, which is where
// byzantine behavior lives — an honest node simply carries HonestStrategy.
// A blob the enclave or the network shares among several recipients skips
// a transparent (honest) strategy: the host moves it without a copy. Every
// other strategy gets a copy of its own.
#pragma once

#include <memory>
#include <vector>

#include "adversary/strategy.hpp"
#include "common/ids.hpp"
#include "net/network.hpp"
#include "obs/pool.hpp"
#include "sgx/enclave.hpp"

namespace sgxp2p::net {

class Host final : public sgx::EnclaveHostIface, public adversary::HostContext {
 public:
  Host(NodeId self, sim::Network& network,
       std::unique_ptr<adversary::Strategy> strategy, std::uint64_t rng_seed);

  /// Registers this host as the network sink for its id.
  void connect();

  /// Binds the enclave the host runs. (The host launches the enclave in
  /// real SGX; here the harness constructs both and ties them together.)
  void attach_enclave(sgx::Enclave& enclave) { enclave_ = &enclave; }

  /// Unbinds the enclave (crash injection: the enclave object is about to be
  /// destroyed while the host survives and keeps its sealed storage).
  void detach_enclave() { enclave_ = nullptr; }

  void set_colluders(std::vector<NodeId> ids) { colluders_ = std::move(ids); }

  [[nodiscard]] bool is_byzantine() const { return strategy_->is_byzantine(); }

  /// The host's OS behavior — the recovery layer consults it for checkpoint
  /// storage decisions (Strategy::on_restore).
  [[nodiscard]] adversary::Strategy& strategy() { return *strategy_; }

  // --- sgx::EnclaveHostIface (OCALLs from the enclave) ---
  void transfer(NodeId to, Bytes blob) override {
    strategy_->on_send(*this, to, std::move(blob));
  }
  void transfer_shared(NodeId to, std::shared_ptr<const Bytes> blob) override {
    if (transparent_) {
      network_->send_shared(self_, to, std::move(blob));
    } else {
      strategy_->on_send(*this, to, pooled_copy(*blob));
    }
  }

  // --- network sinks ---
  void on_network(NodeId from, Bytes blob) {
    strategy_->on_receive(*this, from, std::move(blob));
  }
  /// A payload other recipients read too: only a copy may leave this call.
  void on_network_shared(NodeId from, ByteView blob) {
    if (!transparent_) {
      strategy_->on_receive(*this, from, pooled_copy(blob));
    } else if (enclave_ != nullptr) {
      enclave_->ecall_deliver(from, blob);
    }
  }

  // --- adversary::HostContext ---
  [[nodiscard]] NodeId self() const override { return self_; }
  [[nodiscard]] SimTime now() const override {
    return network_->simulator().now();
  }
  void forward(NodeId to, Bytes blob) override {
    network_->send(self_, to, std::move(blob));
  }
  void deliver(NodeId from, Bytes blob) override {
    // The enclave reads the blob as a view and copies what it keeps (the
    // decrypted plaintext lives in its own buffer), so the host's buffer is
    // dead on return — recycle it for the next seal/send.
    if (enclave_ != nullptr) enclave_->ecall_deliver(from, blob);
    obs::BufferPool::local().release(std::move(blob));
  }
  void schedule_in(SimDuration delay, std::function<void()> fn) override {
    network_->simulator().schedule_in(delay, std::move(fn));
  }
  [[nodiscard]] const std::vector<NodeId>& colluders() const override {
    return colluders_;
  }
  Rng& rng() override { return rng_; }

 private:
  static Bytes pooled_copy(ByteView blob) {
    Bytes copy = obs::BufferPool::local().acquire_empty(blob.size());
    copy.assign(blob.begin(), blob.end());
    return copy;
  }

  NodeId self_;
  sim::Network* network_;
  std::unique_ptr<adversary::Strategy> strategy_;
  bool transparent_;  // strategy_->transparent(), read once
  sgx::Enclave* enclave_ = nullptr;
  std::vector<NodeId> colluders_;
  Rng rng_;
};

}  // namespace sgxp2p::net
