#include "net/tcp_bus.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/pool.hpp"

namespace sgxp2p::net {

namespace {

// Frame layout: u32 payload length ‖ u32 from ‖ u32 to ‖ payload.
constexpr std::size_t kFrameHeader = 12;
// Hello frame (connection identification): u32 dialer ‖ u32 acceptor.
constexpr std::size_t kHello = 8;

// epoll_event.data.u64 = (tag << 32) | index.
constexpr std::uint32_t kTagWake = 0;
constexpr std::uint32_t kTagListener = 1;
constexpr std::uint32_t kTagEndpoint = 2;
constexpr std::uint32_t kTagPending = 3;  // index = fd

// iovec slots per sendmsg batch; each frame needs up to two (header,
// payload), so one syscall can carry up to 32 coalesced frames.
constexpr int kMaxIov = 64;

// Reconnect backoff: first retry after 25 ms, doubling up to 2 s.
constexpr std::uint32_t kReconnectBaseMs = 25;
constexpr std::uint32_t kReconnectMaxMs = 2000;
// How long a single-endpoint start() waits for every peer's connection.
constexpr std::int64_t kStartDeadlineMs = 15000;

std::uint64_t epoll_data(std::uint32_t tag, std::uint32_t idx) {
  return (static_cast<std::uint64_t>(tag) << 32) | idx;
}

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

// A listening socket on 127.0.0.1:port (0: OS-assigned); -1 on failure.
int listen_loopback(std::uint16_t port, int backlog) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = loopback(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd, backlog) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool set_nonblocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

bool write_all(int fd, const std::uint8_t* data, std::size_t len) {
  std::size_t sent = 0;
  while (sent < len) {
    ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

SteadyClock::SteadyClock()
    : epoch_ns_(std::chrono::steady_clock::now().time_since_epoch().count()) {}

SimTime SteadyClock::now() const {
  auto now_ns = std::chrono::steady_clock::now().time_since_epoch().count();
  return (now_ns - epoch_ns_) / 1'000'000;
}

SimTime RealtimeClock::now() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

const char* send_status_name(SendStatus status) {
  switch (status) {
    case SendStatus::kOk:
      return "ok";
    case SendStatus::kDown:
      return "down";
    case SendStatus::kBackpressure:
      return "backpressure";
  }
  return "?";
}

TcpBus::TcpBus(std::uint32_t n, TcpBusOptions options)
    : n_(n), options_(options), ports_(n, 0) {
  auto& reg = obs::MetricsRegistry::current();
  sends_ = &reg.counter("net.tcp.sends");
  sent_bytes_ = &reg.counter("net.tcp.sent_bytes");
  received_ = &reg.counter("net.tcp.received");
  received_bytes_ = &reg.counter("net.tcp.received_bytes");
  send_failures_ = &reg.counter("net.tcp.send_failures");
  backpressure_events_ = &reg.counter("net.tcp.backpressure_events");
  bad_frames_ = &reg.counter("net.tcp.bad_frames");
  reconnects_ = &reg.counter("net.tcp.reconnects");
  conn_failures_ = &reg.counter("net.tcp.conn_failures");
  writev_calls_ = &reg.counter("net.tcp.writev_calls");
  recv_calls_ = &reg.counter("net.tcp.recv_calls");
  multicasts_ = &reg.counter("net.tcp.multicasts");
  writev_batch_ =
      &reg.histogram("net.tcp.writev_batch", {1, 2, 4, 8, 16, 32, 64, 128});
  tx_queue_peak_ = &reg.gauge("net.tcp.tx_queue_peak_bytes");
}

TcpBus::TcpBus(NodeId self, std::vector<std::uint16_t> ports,
               TcpBusOptions options)
    : TcpBus(static_cast<std::uint32_t>(ports.size()), options) {
  self_ = self;
  ports_ = std::move(ports);
}

TcpBus::~TcpBus() { stop(); }

std::int64_t TcpBus::now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool TcpBus::register_fd(int fd, std::uint32_t tag, std::uint32_t idx,
                         std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = epoll_data(tag, idx);
  return ::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) == 0;
}

bool TcpBus::start() {
  listeners_.assign(n_, -1);
  auto fail = [&]() {
    for (int& fd : listeners_) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
    for (auto& e : endpoints_) {
      if (e->fd >= 0) ::close(e->fd);
    }
    endpoints_.clear();
    by_pair_.clear();
    if (epfd_ >= 0) ::close(epfd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    epfd_ = wake_fd_ = -1;
    return false;
  };

  if (!(self_ == kNoNode ? open_local_mesh() : open_own_endpoints())) {
    return fail();
  }

  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epfd_ < 0 || wake_fd_ < 0) return fail();
  if (!register_fd(wake_fd_, kTagWake, 0, EPOLLIN)) return fail();
  for (std::uint32_t i = 0; i < n_; ++i) {
    if (listeners_[i] < 0) continue;  // a peer's, in a single-endpoint bus
    if (!set_nonblocking(listeners_[i]) ||
        !register_fd(listeners_[i], kTagListener, i, EPOLLIN)) {
      return fail();
    }
  }
  for (std::uint32_t idx = 0; idx < endpoints_.size(); ++idx) {
    Endpoint& e = *endpoints_[idx];
    if (e.fd < 0) continue;  // not dialed yet
    if (!set_nonblocking(e.fd) ||
        !register_fd(e.fd, kTagEndpoint, idx, EPOLLIN | EPOLLOUT | EPOLLET)) {
      return fail();
    }
  }

  running_.store(true, std::memory_order_release);
  io_thread_ = std::thread([this] { io_loop(); });
  return self_ == kNoNode || await_endpoints();
}

// All-local bring-up: listeners, then the full mesh. On failure the caller
// closes whatever was opened.
bool TcpBus::open_local_mesh() {
  // One listener per node, OS-assigned port on loopback. Listeners stay open
  // (and registered with epoll) so failed connections can redial.
  for (std::uint32_t i = 0; i < n_; ++i) {
    const int fd = listen_loopback(0, static_cast<int>(n_));
    if (fd < 0) return false;
    listeners_[i] = fd;
    sockaddr_in addr{};
    socklen_t len = sizeof addr;
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    ports_[i] = ntohs(addr.sin_port);
  }

  // Mesh: for each pair (lo, hi), hi dials lo's listener and announces the
  // pair with a hello frame of two u32s. This initial bring-up is blocking
  // and sequential; the fds turn nonblocking once handed to epoll.
  for (std::uint32_t hi = 1; hi < n_; ++hi) {
    for (std::uint32_t lo = 0; lo < hi; ++lo) {
      int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) return false;
      sockaddr_in addr = loopback(ports_[lo]);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
        ::close(fd);
        return false;
      }
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      std::uint8_t hello[kHello];
      store_le32(hello, hi);
      store_le32(hello + 4, lo);
      if (!write_all(fd, hello, sizeof hello)) {
        ::close(fd);
        return false;
      }
      int afd = ::accept(listeners_[lo], nullptr, nullptr);
      if (afd < 0) {
        ::close(fd);
        return false;
      }
      ::setsockopt(afd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      std::uint8_t hello_in[kHello];
      std::size_t got = 0;
      while (got < sizeof hello_in) {
        ssize_t r = ::recv(afd, hello_in + got, sizeof hello_in - got, 0);
        if (r <= 0) {
          ::close(fd);
          ::close(afd);
          return false;
        }
        got += static_cast<std::size_t>(r);
      }
      // Two directed endpoints share the duplex connection: the dialer (hi)
      // writes on `fd`, the acceptor (lo) writes on `afd`.
      auto dialer = std::make_unique<Endpoint>();
      dialer->self = hi;
      dialer->peer = lo;
      dialer->is_dialer = true;
      dialer->fd = fd;
      auto acceptor = std::make_unique<Endpoint>();
      acceptor->self = lo;
      acceptor->peer = hi;
      acceptor->fd = afd;
      const auto d_idx = static_cast<std::uint32_t>(endpoints_.size());
      const auto a_idx = d_idx + 1;
      dialer->sib = a_idx;
      acceptor->sib = d_idx;
      by_pair_[pair_key(hi, lo)] = d_idx;
      by_pair_[pair_key(lo, hi)] = a_idx;
      endpoints_.push_back(std::move(dialer));
      endpoints_.push_back(std::move(acceptor));
    }
  }
  return true;
}

// Single-endpoint bring-up: one listener on our own port, and one endpoint
// per peer, all down. They come up through the reconnect path: the dialer
// side (self > peer) dials at once and retries with backoff while the peer
// boots; the acceptor side waits for the peer's hello.
bool TcpBus::open_own_endpoints() {
  if (self_ >= n_) return false;
  listeners_[self_] = listen_loopback(ports_[self_], static_cast<int>(n_));
  if (listeners_[self_] < 0) return false;
  for (NodeId peer = 0; peer < n_; ++peer) {
    if (peer == self_) continue;
    auto e = std::make_unique<Endpoint>();
    e->self = self_;
    e->peer = peer;
    e->is_dialer = self_ > peer;
    e->first_dial = e->is_dialer;
    e->retry_at = e->is_dialer ? now_ms() : -1;
    e->down = true;
    by_pair_[pair_key(self_, peer)] =
        static_cast<std::uint32_t>(endpoints_.size());
    endpoints_.push_back(std::move(e));
  }
  return true;
}

bool TcpBus::await_endpoints() {
  const std::int64_t deadline = now_ms() + kStartDeadlineMs;
  std::size_t missing = 0;
  do {
    missing = 0;
    for (auto& e : endpoints_) {
      std::lock_guard<std::mutex> lock(e->mu);
      if (e->down) ++missing;
    }
    if (missing == 0) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  } while (now_ms() < deadline);
  LOG_WARN("tcp_bus: node ", self_, ": ", missing, " of ", endpoints_.size(),
           " peers not connected after ", kStartDeadlineMs, " ms");
  stop();
  return false;
}

void TcpBus::stop() {
  if (!running_.exchange(false)) return;
  if (wake_fd_ >= 0) {
    std::uint64_t one = 1;
    (void)!::write(wake_fd_, &one, sizeof one);
  }
  if (io_thread_.joinable()) io_thread_.join();
  for (auto& e : endpoints_) {
    std::lock_guard<std::mutex> lock(e->mu);
    if (e->fd >= 0) ::close(e->fd);
    e->fd = -1;
    e->down = true;
    e->txq.clear();
    e->tx_bytes = 0;
  }
  for (auto& [fd, pending] : pending_) ::close(fd);
  pending_.clear();
  for (int& fd : listeners_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  if (epfd_ >= 0) ::close(epfd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  epfd_ = wake_fd_ = -1;
}

// ---- send path ------------------------------------------------------------

SendStatus TcpBus::enqueue_frame(std::uint32_t idx, OutFrame frame) {
  Endpoint& e = *endpoints_[idx];
  const std::size_t sz = frame.size();
  bool do_kick = false;
  std::size_t queued = 0;
  {
    std::lock_guard<std::mutex> lock(e.mu);
    if (e.down) {
      send_failures_->inc();
      return SendStatus::kDown;
    }
    // A frame larger than the watermark is still admitted into an empty
    // queue; otherwise max_frame-sized blobs could never be sent.
    if (!e.txq.empty() && e.tx_bytes + sz > options_.tx_high_watermark) {
      backpressure_events_->inc();
      return SendStatus::kBackpressure;
    }
    e.txq.push_back(std::move(frame));
    e.tx_bytes += sz;
    queued = e.tx_bytes;
    if (!e.scheduled) {
      e.scheduled = true;
      do_kick = true;
    }
  }
  tx_queue_peak_->max_of(static_cast<std::int64_t>(queued));
  if (do_kick) kick(idx);
  return SendStatus::kOk;
}

void TcpBus::kick(std::uint32_t idx) {
  {
    std::lock_guard<std::mutex> lock(kick_mu_);
    kicked_.push_back(idx);
  }
  std::uint64_t one = 1;
  (void)!::write(wake_fd_, &one, sizeof one);
}

SendStatus TcpBus::send(NodeId from, NodeId to, Bytes blob) {
  if (!running_.load(std::memory_order_acquire) || from == to || to >= n_ ||
      from >= n_ || blob.size() > options_.max_frame) {
    send_failures_->inc();
    return SendStatus::kDown;
  }
  auto it = by_pair_.find(pair_key(from, to));
  if (it == by_pair_.end()) {
    send_failures_->inc();
    return SendStatus::kDown;
  }
  const std::size_t len = blob.size();
  OutFrame f;
  store_le32(f.header.data(), static_cast<std::uint32_t>(len));
  store_le32(f.header.data() + 4, from);
  store_le32(f.header.data() + 8, to);
  f.header_len = kFrameHeader;
  f.payload = std::make_shared<const Bytes>(std::move(blob));
  SendStatus st = enqueue_frame(it->second, std::move(f));
  if (st == SendStatus::kOk) {
    sends_->inc();
    sent_bytes_->inc(len);
    ++messages_sent_;
    bytes_sent_ += len;
  }
  return st;
}

SendStatus TcpBus::multicast(NodeId from, const std::vector<NodeId>& group,
                             Bytes payload) {
  if (!running_.load(std::memory_order_acquire) || from >= n_ ||
      payload.size() > options_.max_frame) {
    send_failures_->inc();
    return SendStatus::kDown;
  }
  const std::size_t len = payload.size();
  // Serialize once: every destination queue holds a reference to the same
  // immutable buffer; the bytes are copied only by the kernel at sendmsg.
  auto shared = std::make_shared<const Bytes>(std::move(payload));
  multicasts_->inc();
  SendStatus worst = SendStatus::kOk;
  auto note = [&worst](SendStatus st) {
    if (static_cast<int>(st) > static_cast<int>(worst)) worst = st;
  };
  for (NodeId to : group) {
    if (to == from) continue;
    auto it = to < n_ ? by_pair_.find(pair_key(from, to)) : by_pair_.end();
    if (it == by_pair_.end()) {
      send_failures_->inc();
      note(SendStatus::kDown);
      continue;
    }
    OutFrame f;
    store_le32(f.header.data(), static_cast<std::uint32_t>(len));
    store_le32(f.header.data() + 4, from);
    store_le32(f.header.data() + 8, to);
    f.header_len = kFrameHeader;
    f.payload = shared;
    SendStatus st = enqueue_frame(it->second, std::move(f));
    if (st == SendStatus::kOk) {
      sends_->inc();
      sent_bytes_->inc(len);
      ++messages_sent_;
      bytes_sent_ += len;
    }
    note(st);
  }
  return worst;
}

void TcpBus::debug_break(NodeId a, NodeId b) {
  if (!running_.load(std::memory_order_acquire)) return;
  std::uint64_t target;
  {
    std::lock_guard<std::mutex> lock(ctl_mu_);
    ctl_.push_back({Ctl::Op::kBreak, a, b});
    target = ++ctl_posted_;
  }
  std::uint64_t one = 1;
  (void)!::write(wake_fd_, &one, sizeof one);
  // Synchronous: controls are processed FIFO, so once the done-counter
  // reaches this control's position the pair is genuinely down and sends
  // observe kDown until the redial completes — no window where a frame is
  // accepted only to be wiped by the imminent fail_pair.
  while (ctl_done_.load(std::memory_order_acquire) < target &&
         running_.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
}

SendStatus TcpBus::debug_send_raw(NodeId from, NodeId to, Bytes raw) {
  if (!running_.load(std::memory_order_acquire)) return SendStatus::kDown;
  auto it = by_pair_.find(pair_key(from, to));
  if (it == by_pair_.end()) return SendStatus::kDown;
  OutFrame f;  // header_len = 0: the bytes go on the wire unframed
  f.payload = std::make_shared<const Bytes>(std::move(raw));
  return enqueue_frame(it->second, std::move(f));
}

// ---- I/O loop -------------------------------------------------------------

void TcpBus::io_loop() {
  std::vector<epoll_event> events(512);
  while (running_.load(std::memory_order_acquire)) {
    int nev =
        ::epoll_wait(epfd_, events.data(), static_cast<int>(events.size()),
                     next_timeout_ms());
    if (nev < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < nev; ++i) {
      const std::uint64_t data = events[i].data.u64;
      const auto tag = static_cast<std::uint32_t>(data >> 32);
      const auto idx = static_cast<std::uint32_t>(data & 0xffffffffu);
      switch (tag) {
        case kTagWake:
          drain_wake();
          break;
        case kTagListener:
          on_accept(idx);
          break;
        case kTagPending:
          on_pending(static_cast<int>(idx), events[i].events);
          break;
        case kTagEndpoint:
          on_endpoint_event(idx, events[i].events);
          break;
        default:
          break;
      }
    }
    process_controls();
    process_kicks();
    process_retries();
  }
}

void TcpBus::drain_wake() {
  std::uint64_t drained = 0;
  (void)!::read(wake_fd_, &drained, sizeof drained);
}

void TcpBus::process_kicks() {
  std::vector<std::uint32_t> batch;
  {
    std::lock_guard<std::mutex> lock(kick_mu_);
    batch.swap(kicked_);
  }
  for (std::uint32_t idx : batch) service_tx(idx);
}

void TcpBus::process_controls() {
  std::vector<Ctl> batch;
  {
    std::lock_guard<std::mutex> lock(ctl_mu_);
    batch.swap(ctl_);
  }
  for (const Ctl& c : batch) {
    if (c.a != c.b && c.a < n_ && c.b < n_) {
      auto it = by_pair_.find(pair_key(c.a, c.b));
      if (it != by_pair_.end()) fail_pair(it->second);
    }
    ctl_done_.fetch_add(1, std::memory_order_release);
  }
}

void TcpBus::process_retries() {
  const std::int64_t now = now_ms();
  for (std::uint32_t idx = 0; idx < endpoints_.size(); ++idx) {
    Endpoint& e = *endpoints_[idx];
    if (e.is_dialer && e.retry_at >= 0 && now >= e.retry_at) {
      attempt_redial(idx);
    }
  }
}

int TcpBus::next_timeout_ms() const {
  std::int64_t best = 100;  // idle heartbeat; also bounds shutdown latency
  const std::int64_t now = now_ms();
  for (const auto& e : endpoints_) {
    if (e->retry_at >= 0) best = std::min(best, e->retry_at - now);
  }
  return static_cast<int>(std::max<std::int64_t>(best, 0));
}

void TcpBus::service_tx(std::uint32_t idx) {
  Endpoint& e = *endpoints_[idx];
  bool ok = true;
  {
    std::lock_guard<std::mutex> lock(e.mu);
    e.scheduled = false;
    if (e.down || e.fd < 0 || e.connecting) return;
    ok = drain_tx_locked(e);
  }
  if (!ok) fail_pair(idx);
}

bool TcpBus::drain_tx_locked(Endpoint& e) {
  while (!e.txq.empty()) {
    iovec iov[kMaxIov];
    int n_iov = 0;
    std::int64_t frames = 0;
    for (auto it = e.txq.begin(); it != e.txq.end() && n_iov + 2 <= kMaxIov;
         ++it) {
      OutFrame& f = *it;
      std::size_t off = f.offset;
      if (off < f.header_len) {
        iov[n_iov].iov_base = f.header.data() + off;
        iov[n_iov].iov_len = f.header_len - off;
        ++n_iov;
        off = 0;
      } else {
        off -= f.header_len;
      }
      if (f.payload && off < f.payload->size()) {
        iov[n_iov].iov_base =
            const_cast<std::uint8_t*>(f.payload->data()) + off;
        iov[n_iov].iov_len = f.payload->size() - off;
        ++n_iov;
      }
      ++frames;
    }
    if (n_iov == 0) {  // fully-written frames not yet popped (empty raw)
      e.tx_bytes -= e.txq.front().size();
      e.txq.pop_front();
      continue;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(n_iov);
    ssize_t w = ::sendmsg(e.fd, &msg, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;  // EPOLLOUT
      if (errno == EINTR) continue;
      return false;
    }
    writev_calls_->inc();
    writev_batch_->observe(frames);
    auto left = static_cast<std::size_t>(w);
    while (left > 0 && !e.txq.empty()) {
      OutFrame& f = e.txq.front();
      const std::size_t remain = f.size() - f.offset;
      if (left >= remain) {
        left -= remain;
        e.tx_bytes -= f.size();
        e.txq.pop_front();
      } else {
        f.offset += left;
        left = 0;
      }
    }
  }
  return true;
}

void TcpBus::on_endpoint_event(std::uint32_t idx, std::uint32_t events) {
  Endpoint& e = *endpoints_[idx];
  if (e.fd < 0) return;  // stale event from an fd closed earlier this batch
  if (e.connecting) {
    int err = 0;
    socklen_t len = sizeof err;
    ::getsockopt(e.fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if ((events & (EPOLLERR | EPOLLHUP)) != 0 || err != 0) {
      ::epoll_ctl(epfd_, EPOLL_CTL_DEL, e.fd, nullptr);
      ::close(e.fd);
      e.fd = -1;
      e.connecting = false;
      redial_failed(e);
    } else if ((events & EPOLLOUT) != 0) {
      finish_redial(idx);
    }
    return;
  }
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    fail_pair(idx);
    return;
  }
  if ((events & EPOLLIN) != 0 && !on_readable(e)) {
    fail_pair(idx);
    return;
  }
  if (e.fd >= 0 && (events & EPOLLOUT) != 0) service_tx(idx);
}

bool TcpBus::on_readable(Endpoint& e) {
  std::uint8_t buf[64 * 1024];
  while (true) {  // edge-triggered: must read until EAGAIN
    ssize_t r = ::recv(e.fd, buf, sizeof buf, 0);
    if (r > 0) {
      recv_calls_->inc();
      e.rx.insert(e.rx.end(), buf, buf + r);
      if (!drain_rx(e)) return false;
      continue;
    }
    if (r == 0) return false;  // orderly close
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;
  }
}

bool TcpBus::drain_rx(Endpoint& e) {
  while (true) {
    const std::size_t avail = e.rx.size() - e.rx_head;
    if (avail < kFrameHeader) break;
    const std::uint8_t* p = e.rx.data() + e.rx_head;
    const std::uint32_t len = load_le32(p);
    if (len > options_.max_frame) {
      bad_frames_->inc();
      return false;  // protocol violation: drop the connection
    }
    if (avail < kFrameHeader + len) break;  // incomplete frame; wait
    const NodeId from = load_le32(p + 4);
    const NodeId to = load_le32(p + 8);
    // Transport-level sender binding: this fd only carries peer → self.
    if (from != e.peer || to != e.self) {
      bad_frames_->inc();
      return false;
    }
    Bytes payload = obs::BufferPool::local().acquire_empty(len);
    payload.assign(p + kFrameHeader, p + kFrameHeader + len);
    e.rx_head += kFrameHeader + len;
    received_->inc();
    received_bytes_->inc(len);
    if (receiver_) receiver_(to, from, std::move(payload));
  }
  if (e.rx_head == e.rx.size()) {
    e.rx.clear();
    e.rx_head = 0;
  } else if (e.rx_head >= 256 * 1024) {
    e.rx.erase(e.rx.begin(),
               e.rx.begin() + static_cast<std::ptrdiff_t>(e.rx_head));
    e.rx_head = 0;
  }
  return true;
}

// ---- reconnect ------------------------------------------------------------

void TcpBus::fail_pair(std::uint32_t idx) {
  Endpoint& e = *endpoints_[idx];
  // No sibling in a single-endpoint bus: the peer's process fails its own
  // half when it sees the connection close, and redials if it is the dialer.
  Endpoint* s = e.sib == kNoSib ? nullptr : endpoints_[e.sib].get();
  const bool was_live = e.fd >= 0 || e.connecting ||
                        (s != nullptr && (s->fd >= 0 || s->connecting));
  if (was_live) conn_failures_->inc();
  for (Endpoint* x : {&e, s}) {
    if (x == nullptr) continue;
    std::lock_guard<std::mutex> lock(x->mu);
    if (x->fd >= 0) {
      ::epoll_ctl(epfd_, EPOLL_CTL_DEL, x->fd, nullptr);
      ::close(x->fd);
      x->fd = -1;
    }
    x->connecting = false;
    x->down = true;
    x->txq.clear();
    x->tx_bytes = 0;
    x->scheduled = false;
    // A torn frame (partial write at the moment of failure) dies here: the
    // residual rx prefix is discarded, never delivered.
    x->rx.clear();
    x->rx_head = 0;
  }
  Endpoint* d = e.is_dialer ? &e : s;
  if (d != nullptr && options_.reconnect &&
      running_.load(std::memory_order_acquire)) {
    d->backoff_ms = d->backoff_ms == 0
                        ? kReconnectBaseMs
                        : std::min(d->backoff_ms * 2, kReconnectMaxMs);
    d->retry_at = now_ms() + d->backoff_ms;
  }
}

void TcpBus::attempt_redial(std::uint32_t idx) {
  Endpoint& d = *endpoints_[idx];
  d.retry_at = -1;
  if (!running_.load(std::memory_order_acquire)) return;
  {
    std::lock_guard<std::mutex> lock(d.mu);
    if (!d.down) return;
  }
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    redial_failed(d);
    return;
  }
  sockaddr_in addr = loopback(ports_[d.peer]);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  if (rc == 0) {
    d.fd = fd;
    if (!register_fd(fd, kTagEndpoint, idx, EPOLLIN | EPOLLOUT | EPOLLET)) {
      ::close(fd);
      d.fd = -1;
      redial_failed(d);
      return;
    }
    finish_redial(idx);
  } else if (errno == EINPROGRESS) {
    d.fd = fd;
    d.connecting = true;
    if (!register_fd(fd, kTagEndpoint, idx, EPOLLIN | EPOLLOUT | EPOLLET)) {
      ::close(fd);
      d.fd = -1;
      d.connecting = false;
      redial_failed(d);
    }
  } else {
    ::close(fd);
    redial_failed(d);
  }
}

void TcpBus::redial_failed(Endpoint& d) {
  d.backoff_ms =
      std::min(std::max(d.backoff_ms * 2, kReconnectBaseMs), kReconnectMaxMs);
  d.retry_at = now_ms() + d.backoff_ms;
}

void TcpBus::finish_redial(std::uint32_t idx) {
  Endpoint& d = *endpoints_[idx];
  int one = 1;
  ::setsockopt(d.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  d.connecting = false;
  d.backoff_ms = 0;
  OutFrame hello;
  store_le32(hello.header.data(), d.self);
  store_le32(hello.header.data() + 4, d.peer);
  hello.header_len = kHello;
  {
    std::lock_guard<std::mutex> lock(d.mu);
    d.down = false;
    d.txq.push_front(std::move(hello));
    d.tx_bytes += kHello;
  }
  if (!d.first_dial) reconnects_->inc();
  d.first_dial = false;
  LOG_DEBUG("tcp_bus: connected ", d.self, "->", d.peer);
  service_tx(idx);
}

void TcpBus::on_accept(std::uint32_t listener_node) {
  while (true) {
    int fd = ::accept4(listeners_[listener_node], nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN (or transient error): wait for more events
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    pending_[fd] = Pending{};
    if (!register_fd(fd, kTagPending, static_cast<std::uint32_t>(fd),
                     EPOLLIN | EPOLLET)) {
      pending_.erase(fd);
      ::close(fd);
    }
  }
}

void TcpBus::on_pending(int fd, std::uint32_t events) {
  auto it = pending_.find(fd);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  auto drop = [&]() {
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    pending_.erase(it);
  };
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    drop();
    return;
  }
  while (p.got < kHello) {
    ssize_t r = ::recv(fd, p.hello.data() + p.got, kHello - p.got, 0);
    if (r > 0) {
      p.got += static_cast<std::size_t>(r);
      continue;
    }
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (r < 0 && errno == EINTR) continue;
    drop();
    return;
  }
  const NodeId hi = load_le32(p.hello.data());
  const NodeId lo = load_le32(p.hello.data() + 4);
  ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
  pending_.erase(it);
  adopt_accepted(fd, hi, lo);
}

void TcpBus::adopt_accepted(int fd, NodeId hi, NodeId lo) {
  auto it = lo < hi && hi < n_ ? by_pair_.find(pair_key(lo, hi))
                               : by_pair_.end();
  if (it == by_pair_.end()) {
    bad_frames_->inc();  // malformed hello
    ::close(fd);
    return;
  }
  const std::uint32_t a_idx = it->second;
  Endpoint& a = *endpoints_[a_idx];
  if (a.fd >= 0) {  // replaced by a fresh dial: retire the stale socket
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, a.fd, nullptr);
    ::close(a.fd);
    a.fd = -1;
    a.rx.clear();
    a.rx_head = 0;
  }
  a.fd = fd;
  if (!register_fd(fd, kTagEndpoint, a_idx, EPOLLIN | EPOLLOUT | EPOLLET)) {
    ::close(fd);
    a.fd = -1;
    return;
  }
  {
    std::lock_guard<std::mutex> lock(a.mu);
    a.down = false;
  }
  service_tx(a_idx);
}

}  // namespace sgxp2p::net
