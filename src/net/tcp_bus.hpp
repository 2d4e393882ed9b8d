// Real-sockets transport: a TCP mesh over localhost.
//
// The simulated Network (net/network.hpp) gives determinism for tests and
// benchmarks; this module gives realism — the same protocol enclaves run
// over genuine TCP connections with length-prefixed frames and wall-clock
// rounds (the role Boost.Asio played in the paper's prototype). One TcpBus
// hosts either all N endpoints of an in-process deployment, or just one
// node's endpoints in a multi-process deployment (tools/sgxp2p-node, one
// process per node). All-local: each node gets its own listening socket
// (OS-assigned port) and the full mesh is connected pairwise at start().
// Single-endpoint: the node listens on its entry of a fixed port map, dials
// every lower id and accepts every higher one through the same code that
// heals broken connections.
//
// TcpBus is the production data plane: a nonblocking epoll(7) event loop
// with edge-triggered reads into persistent per-connection rx buffers,
// per-connection bounded outbound queues drained with writev(2) coalescing
// (many small sealed frames per syscall), refcounted serialize-once
// multicast, explicit backpressure (queue high-watermark → kBackpressure),
// and reconnect-on-failure with capped exponential backoff.
//
// Threading: one background I/O thread owns every fd; send() only enqueues
// under a per-connection mutex and kicks the loop through an eventfd.
// Inbound frames are handed to the receiver callback ON the I/O thread —
// callers serialize their own node state (TcpTestbed uses one state mutex).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/time.hpp"
#include "sgx/trusted_time.hpp"

namespace sgxp2p::obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace sgxp2p::obs

namespace sgxp2p::net {

/// Wall-clock trusted time: milliseconds since construction, from
/// CLOCK_MONOTONIC — the deployment analogue of sgx_get_trusted_time.
class SteadyClock final : public sgx::TrustedClock {
 public:
  SteadyClock();
  [[nodiscard]] SimTime now() const override;

 private:
  std::int64_t epoch_ns_;
};

/// Wall-clock trusted time shared ACROSS processes: milliseconds of
/// CLOCK_REALTIME. The paper's synchronous-start assumption S2 ("starting at
/// a time posted in public servers", Appendix G) needs a common reference;
/// on one machine — or NTP-synced machines — realtime is that reference.
class RealtimeClock final : public sgx::TrustedClock {
 public:
  [[nodiscard]] SimTime now() const override;
};

/// What happened to a frame handed to send()/multicast(). kOk means the
/// frame was accepted into the connection's outbound queue (delivery is
/// still best-effort TCP); the error statuses replace the old silent drop.
enum class SendStatus : std::uint8_t {
  kOk = 0,
  kDown = 1,          // no usable connection (failed / reconnecting / bad id)
  kBackpressure = 2,  // outbound queue above the high-watermark; retry later
};

[[nodiscard]] const char* send_status_name(SendStatus status);

struct TcpBusOptions {
  /// Frames with a length prefix above this are a protocol violation: the
  /// connection is closed and net.tcp.bad_frames incremented.
  std::size_t max_frame = 16u * 1024 * 1024;
  /// Per-connection outbound queue bound. Once queued-but-unwritten bytes
  /// exceed this, send() returns kBackpressure (a single frame larger than
  /// the watermark is still admitted into an empty queue, so max_frame-sized
  /// blobs remain sendable).
  std::size_t tx_high_watermark = 4u * 1024 * 1024;
  /// When false a failed connection stays down (tests that want to observe
  /// the kDown state without racing the redialer). A single-endpoint bus
  /// still makes its first dials.
  bool reconnect = true;
};

class TcpBus {
 public:
  /// Frame arriving for `to`, sent by `from`. Invoked on the I/O thread.
  using Receiver = std::function<void(NodeId to, NodeId from, Bytes blob)>;

  /// All-local: endpoints for nodes [0, n) on OS-assigned loopback ports.
  explicit TcpBus(std::uint32_t n, TcpBusOptions options = {});
  /// Single-endpoint: node `self` of ports.size() nodes, where node i
  /// listens on 127.0.0.1:ports[i]. Only `self` can send.
  TcpBus(NodeId self, std::vector<std::uint16_t> ports,
         TcpBusOptions options = {});
  ~TcpBus();

  TcpBus(const TcpBus&) = delete;
  TcpBus& operator=(const TcpBus&) = delete;

  void set_receiver(Receiver receiver) { receiver_ = std::move(receiver); }

  /// All-local: binds N listeners, builds the pairwise mesh, starts the I/O
  /// thread. Single-endpoint: binds ports[self], starts the I/O thread, and
  /// waits up to 15 s until every peer's connection is up (peers may still
  /// be booting). Returns false, with everything closed, if any socket
  /// operation fails or the deadline passes.
  bool start();
  void stop();

  /// Sends a frame; thread-safe. Takes the payload by value so callers can
  /// move pool-backed Bytes straight into the outbound queue (zero-copy).
  SendStatus send(NodeId from, NodeId to, Bytes blob);
  SendStatus send(NodeId from, NodeId to, ByteView blob) {
    return send(from, to, Bytes(blob.begin(), blob.end()));
  }

  /// Serialize-once fan-out: the payload is moved into a shared refcounted
  /// buffer and every connection queue holds a reference — the socket-layer
  /// mirror of broadcast_val's one-serialization semantics. Returns the
  /// worst per-destination status (kBackpressure > kDown > kOk).
  SendStatus multicast(NodeId from, const std::vector<NodeId>& group,
                       Bytes payload);

  [[nodiscard]] std::uint64_t messages_sent() const { return messages_sent_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] std::uint16_t port_of(NodeId id) const {
    return ports_.at(id);
  }

  // ---- fault-injection hooks (tests and the TCP fuzz shim) ----

  /// Abruptly closes both fds of the (a,b) connection from the I/O thread,
  /// as if the kernel reported an error mid-stream. Synchronous: returns
  /// once the break has been applied, so subsequent sends observe kDown
  /// until the pair heals via the normal backoff path (reconnect enabled).
  void debug_break(NodeId a, NodeId b);

  /// Queues raw bytes on the (from→to) connection without framing — for
  /// exercising torn/oversized-frame handling at the receiver.
  SendStatus debug_send_raw(NodeId from, NodeId to, Bytes raw);

 private:
  /// One directed half of a pair's duplex connection: the fd on `self`'s
  /// side. Writes from `self` go out here; reads yield frames from `peer`.
  struct OutFrame {
    std::array<std::uint8_t, 12> header{};  // u32 len ‖ u32 from ‖ u32 to
    std::uint8_t header_len = 0;            // 12, or 8 (hello), or 0 (raw)
    std::shared_ptr<const Bytes> payload;   // null for header-only frames
    std::size_t offset = 0;                 // bytes already written
    [[nodiscard]] std::size_t size() const {
      return header_len + (payload ? payload->size() : 0);
    }
  };
  static constexpr std::uint32_t kNoSib = 0xffffffffu;
  struct Endpoint {
    NodeId self = kNoNode;
    NodeId peer = kNoNode;
    // Index of the pair's other endpoint; kNoSib when it lives in the
    // peer's process (single-endpoint bus).
    std::uint32_t sib = kNoSib;
    bool is_dialer = false;  // self > peer: this side redials on failure
    bool first_dial = false;  // the next connect is not a reconnect

    // I/O-thread-only state.
    int fd = -1;
    Bytes rx;  // persistent read buffer; frames parsed from rx_head
    std::size_t rx_head = 0;
    bool connecting = false;      // nonblocking connect() in flight
    std::uint32_t backoff_ms = 0;  // current retry delay (dialer side)
    std::int64_t retry_at = -1;    // now_ms() deadline; -1 = none pending

    // Sender-visible state, guarded by mu.
    std::mutex mu;
    std::deque<OutFrame> txq;
    std::size_t tx_bytes = 0;  // queued-but-unwritten bytes
    bool scheduled = false;    // already on the kick list
    bool down = false;
  };
  struct Pending {  // accepted fd waiting for its 8-byte hello
    std::array<std::uint8_t, 8> hello{};
    std::size_t got = 0;
  };
  struct Ctl {
    enum class Op : std::uint8_t { kBreak } op = Op::kBreak;
    NodeId a = kNoNode;
    NodeId b = kNoNode;
  };

  static std::uint64_t pair_key(NodeId writer, NodeId peer) {
    return (static_cast<std::uint64_t>(writer) << 32) | peer;
  }
  [[nodiscard]] static std::int64_t now_ms();

  SendStatus enqueue_frame(std::uint32_t idx, OutFrame frame);
  void kick(std::uint32_t idx);

  void io_loop();
  void drain_wake();
  void process_kicks();
  void process_controls();
  void process_retries();
  [[nodiscard]] int next_timeout_ms() const;
  void service_tx(std::uint32_t idx);
  [[nodiscard]] bool drain_tx_locked(Endpoint& e);
  void on_endpoint_event(std::uint32_t idx, std::uint32_t events);
  [[nodiscard]] bool on_readable(Endpoint& e);
  [[nodiscard]] bool drain_rx(Endpoint& e);
  void on_accept(std::uint32_t listener_node);
  void on_pending(int fd, std::uint32_t events);
  void adopt_accepted(int fd, NodeId hi, NodeId lo);
  void fail_pair(std::uint32_t idx);
  void attempt_redial(std::uint32_t idx);
  void redial_failed(Endpoint& d);
  void finish_redial(std::uint32_t idx);
  bool register_fd(int fd, std::uint32_t tag, std::uint32_t idx,
                   std::uint32_t events);
  [[nodiscard]] bool open_local_mesh();
  [[nodiscard]] bool open_own_endpoints();
  [[nodiscard]] bool await_endpoints();

  std::uint32_t n_;
  NodeId self_ = kNoNode;  // kNoNode: all-local bus
  TcpBusOptions options_;
  Receiver receiver_;
  std::vector<std::uint16_t> ports_;
  std::vector<int> listeners_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::map<std::uint64_t, std::uint32_t> by_pair_;  // (writer,peer) → index
  std::map<int, Pending> pending_;

  int epfd_ = -1;
  int wake_fd_ = -1;
  std::thread io_thread_;
  std::atomic<bool> running_{false};

  std::mutex kick_mu_;
  std::vector<std::uint32_t> kicked_;
  std::mutex ctl_mu_;
  std::vector<Ctl> ctl_;
  std::uint64_t ctl_posted_ = 0;  // under ctl_mu_
  std::atomic<std::uint64_t> ctl_done_{0};

  std::atomic<std::uint64_t> messages_sent_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};

  // Instrument handles, resolved once from MetricsRegistry::current() on the
  // constructing thread and touched from the I/O thread as relaxed atomics.
  obs::Counter* sends_ = nullptr;
  obs::Counter* sent_bytes_ = nullptr;
  obs::Counter* received_ = nullptr;
  obs::Counter* received_bytes_ = nullptr;
  obs::Counter* send_failures_ = nullptr;
  obs::Counter* backpressure_events_ = nullptr;
  obs::Counter* bad_frames_ = nullptr;
  obs::Counter* reconnects_ = nullptr;
  obs::Counter* conn_failures_ = nullptr;
  obs::Counter* writev_calls_ = nullptr;
  obs::Counter* recv_calls_ = nullptr;
  obs::Counter* multicasts_ = nullptr;
  obs::Histogram* writev_batch_ = nullptr;
  obs::Gauge* tx_queue_peak_ = nullptr;
};

}  // namespace sgxp2p::net
