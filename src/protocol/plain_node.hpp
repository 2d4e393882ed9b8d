// PlainNode — baseline protocol nodes WITHOUT SGX.
//
// The baselines the paper compares against (strawman Algorithm 1, the
// signature-chain broadcast RBsig of Algorithm 4, the early-stopping
// omission-model broadcast RBearly of Algorithm 5) run on ordinary nodes: no
// enclave, no blinded channel, payloads in the clear. Byzantine behavior is
// expressed by subclassing — a byzantine baseline node can forge and
// equivocate freely, which is exactly the gap the SGX reduction closes.
//
// PlainBed is the matching harness (simulator + network + lockstep loop).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "net/network.hpp"
#include "net/simulator.hpp"

namespace sgxp2p::protocol {

class PlainNode {
 public:
  PlainNode(NodeId self, std::uint32_t n, std::uint32_t t)
      : self_(self), n_(n), t_(t) {}
  virtual ~PlainNode() = default;

  void bind(sim::Network& network, SimDuration round_ms) {
    network_ = &network;
    round_ms_ = round_ms;
    // View sink: on_message only reads, so the network keeps (and recycles)
    // the buffer, and multicasts share one payload across the group.
    network.attach_view(self_, [this](NodeId from, ByteView blob) {
      if (!stopped_) on_message(from, blob);
    });
  }
  void start(SimTime t0) {
    t0_ = t0;
    started_ = true;
  }
  void on_tick() {
    if (started_ && !stopped_) round_begin(round());
  }
  /// Crash/omission-fault injection: when set, outbound messages to peers
  /// failing the filter are silently dropped (the general-omission model).
  void set_send_filter(std::function<bool(NodeId to)> filter) {
    send_filter_ = std::move(filter);
  }
  void stop() { stopped_ = true; }

  [[nodiscard]] NodeId id() const { return self_; }

 protected:
  virtual void round_begin(std::uint32_t rnd) = 0;
  virtual void on_message(NodeId from, ByteView data) = 0;

  [[nodiscard]] std::uint32_t round() const {
    if (!started_ || network_ == nullptr) return 0;
    SimTime now = network_->simulator().now();
    if (now < t0_) return 0;
    return static_cast<std::uint32_t>((now - t0_) / round_ms_) + 1;
  }
  void send(NodeId to, Bytes data) {
    if (send_filter_ && !send_filter_(to)) return;
    network_->send(self_, to, std::move(data));
  }
  void multicast(Bytes data) {
    std::vector<NodeId> group;
    group.reserve(n_ > 0 ? n_ - 1 : 0);
    for (NodeId peer = 0; peer < n_; ++peer) {
      if (peer != self_ && (!send_filter_ || send_filter_(peer))) {
        group.push_back(peer);
      }
    }
    network_->multicast(self_, group, std::move(data));
  }
  /// Sends the same already-encoded wire bytes to every id in `group`
  /// (self skipped): one encode, one shared buffer, |group| deliveries.
  void multicast_to(const std::vector<NodeId>& group, Bytes data) {
    std::vector<NodeId> filtered;
    filtered.reserve(group.size());
    for (NodeId peer : group) {
      if (peer != self_ && (!send_filter_ || send_filter_(peer))) {
        filtered.push_back(peer);
      }
    }
    network_->multicast(self_, filtered, std::move(data));
  }

  NodeId self_;
  std::uint32_t n_;
  std::uint32_t t_;

 private:
  sim::Network* network_ = nullptr;
  SimDuration round_ms_ = 0;
  SimTime t0_ = 0;
  bool started_ = false;
  bool stopped_ = false;
  std::function<bool(NodeId)> send_filter_;
};

}  // namespace sgxp2p::protocol

namespace sgxp2p::sim {

/// Harness for PlainNode protocols (mirrors Testbed's round loop).
class PlainBed {
 public:
  PlainBed(std::uint32_t n, NetworkConfig net_cfg, SimDuration round_ms = 0)
      : n_(n),
        simulator_(obs::MetricsRegistry::current()),
        network_(simulator_, net_cfg),
        round_ms_(round_ms != 0 ? round_ms : 2 * net_cfg.worst_delay()) {}

  using NodeFactory =
      std::function<std::unique_ptr<protocol::PlainNode>(NodeId id)>;

  void build(const NodeFactory& make_node) {
    nodes_.reserve(n_);
    for (NodeId id = 0; id < n_; ++id) {
      auto node = make_node(id);
      node->bind(network_, round_ms_);
      nodes_.push_back(std::move(node));
    }
  }

  void start() {
    t0_ = simulator_.now() + milliseconds(10);
    for (auto& node : nodes_) node->start(t0_);
  }

  std::uint32_t run_rounds(std::uint32_t max_rounds,
                           const std::function<bool()>& stop_when = {}) {
    for (std::uint32_t r = 1; r <= max_rounds; ++r) {
      SimTime boundary = t0_ + static_cast<SimTime>(r - 1) * round_ms_;
      simulator_.run_until(boundary);
      for (auto& node : nodes_) node->on_tick();
      simulator_.run_until(boundary + round_ms_ - 1);
      if (stop_when && stop_when()) return r;
    }
    return max_rounds;
  }

  template <typename T>
  [[nodiscard]] T& node_as(NodeId id) {
    return *static_cast<T*>(nodes_.at(id).get());
  }
  [[nodiscard]] Network& network() { return network_; }
  [[nodiscard]] Simulator& simulator() { return simulator_; }
  [[nodiscard]] SimDuration round_ms() const { return round_ms_; }

 private:
  std::uint32_t n_;
  Simulator simulator_;
  Network network_;
  SimDuration round_ms_;
  SimTime t0_ = 0;
  std::vector<std::unique_ptr<protocol::PlainNode>> nodes_;
};

}  // namespace sgxp2p::sim
