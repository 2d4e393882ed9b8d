// MeshTransport — one node's endpoint of a multi-process TCP mesh.
//
// Unlike TcpBus (which hosts every endpoint of an in-process demo), a
// MeshTransport owns exactly ONE node's sockets, so N independent processes
// — or machines — form the network, as in the paper's DeterLab deployment.
// Mesh formation is deterministic: node i accepts connections from every
// j > i on its own port and dials every j < i (retrying while peers boot).
// Frames are the same length-prefixed layout as TcpBus.
//
// Threading model mirrors TcpBus: one I/O thread reads and dispatches to
// the receiver callback; send() is thread-safe.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/time.hpp"
#include "obs/metrics.hpp"
#include "sgx/trusted_time.hpp"

namespace sgxp2p::net {

/// Wall-clock trusted time shared ACROSS processes: milliseconds of
/// CLOCK_REALTIME. The paper's synchronous-start assumption S2 ("starting at
/// a time posted in public servers", Appendix G) needs a common reference;
/// on one machine — or NTP-synced machines — realtime is that reference.
class RealtimeClock final : public sgx::TrustedClock {
 public:
  [[nodiscard]] SimTime now() const override;
};

struct PeerAddress {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

class MeshTransport {
 public:
  using Receiver = std::function<void(NodeId from, Bytes blob)>;

  /// `peers[i]` is node i's address; `self` indexes into it.
  MeshTransport(NodeId self, std::vector<PeerAddress> peers);
  ~MeshTransport();

  MeshTransport(const MeshTransport&) = delete;
  MeshTransport& operator=(const MeshTransport&) = delete;

  void set_receiver(Receiver receiver) { receiver_ = std::move(receiver); }

  /// Binds, dials lower ids (retrying up to `dial_timeout_ms`), accepts
  /// higher ids (waiting up to `dial_timeout_ms` for all of them), then
  /// starts the I/O thread. Blocking; false on failure.
  bool start(SimDuration dial_timeout_ms = 15000);
  void stop();

  void send(NodeId to, ByteView blob);

  [[nodiscard]] std::uint64_t messages_sent() const { return messages_sent_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  struct Peer {
    int fd = -1;
    Bytes rx;
    std::mutex write_mu;
  };

  void io_loop();
  bool read_ready(NodeId peer_id);

  NodeId self_;
  std::vector<PeerAddress> addresses_;
  std::vector<std::unique_ptr<Peer>> peers_;  // index = node id; self unused
  Receiver receiver_;
  std::thread io_thread_;
  std::atomic<bool> running_{false};
  int wake_pipe_[2] = {-1, -1};
  std::atomic<std::uint64_t> messages_sent_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  // Registry handles (net.mesh.*); counters are relaxed atomics, so the I/O
  // thread and send() callers may bump them without extra locking.
  obs::Counter* sends_ctr_;
  obs::Counter* sent_bytes_ctr_;
  obs::Counter* received_ctr_;
};

}  // namespace sgxp2p::net
