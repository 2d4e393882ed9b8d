// LegacyTcpBus — the original correctness-grade poll(2) TCP mesh.
//
// This is the pre-epoll data plane kept behind the shared TcpBusIface: a
// poll(2) read loop plus blocking full-frame writes serialized by a
// per-connection mutex (one write(2) per message, no coalescing, no
// backpressure, no reconnect — a failed connection stays dead). bench_tcp
// runs it side by side with the epoll TcpBus so the msgs/s, syscalls/msg,
// and decide-latency deltas of the rebuild stay measurable, mirroring how
// the bench_micro legacy namespace keeps a superseded implementation
// runnable as a named reference.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/tcp_bus.hpp"

namespace sgxp2p::net {

class LegacyTcpBus final : public TcpBusIface {
 public:
  using TcpBusIface::send;

  explicit LegacyTcpBus(std::uint32_t n);
  ~LegacyTcpBus() override;

  LegacyTcpBus(const LegacyTcpBus&) = delete;
  LegacyTcpBus& operator=(const LegacyTcpBus&) = delete;

  void set_receiver(Receiver receiver) override {
    receiver_ = std::move(receiver);
  }

  bool start() override;
  void stop() override;

  SendStatus send(NodeId from, NodeId to, Bytes blob) override;
  SendStatus multicast(NodeId from, const std::vector<NodeId>& group,
                       Bytes payload) override;

  [[nodiscard]] std::uint64_t messages_sent() const override {
    return messages_sent_;
  }
  [[nodiscard]] std::uint64_t bytes_sent() const override {
    return bytes_sent_;
  }
  [[nodiscard]] std::uint16_t port_of(NodeId id) const override {
    return ports_.at(id);
  }

 private:
  struct Connection {
    int fd = -1;
    NodeId a = kNoNode;  // lower endpoint id
    NodeId b = kNoNode;  // higher endpoint id
    Bytes rx;            // partial-frame read buffer
    std::mutex write_mu;
  };

  void io_loop();
  bool read_ready(Connection& conn);

  std::uint32_t n_;
  Receiver receiver_;
  std::vector<std::uint16_t> ports_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::map<std::uint64_t, Connection*> by_pair_;
  std::thread io_thread_;
  std::atomic<bool> running_{false};
  int wake_pipe_[2] = {-1, -1};
  std::atomic<std::uint64_t> messages_sent_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
};

}  // namespace sgxp2p::net
