#include "net/mesh_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace sgxp2p::net {

namespace {
constexpr std::size_t kFrameHeader = 8;  // u32 len ‖ u32 from
constexpr std::uint32_t kMaxFrame = 16 * 1024 * 1024;

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

bool read_exact(int fd, std::uint8_t* data, std::size_t len) {
  std::size_t got = 0;
  while (got < len) {
    ssize_t n = ::recv(fd, data + got, len - got, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

// Waits until `fd` is readable; false if `deadline` passes first.
bool wait_readable(int fd, std::chrono::steady_clock::time_point deadline) {
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) return false;
    pollfd p{fd, POLLIN, 0};
    const int r = ::poll(&p, 1, static_cast<int>(left));
    if (r > 0) return true;
    if (r == 0 || errno != EINTR) return false;
  }
}

sockaddr_in make_addr(const PeerAddress& peer) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(peer.port);
  ::inet_pton(AF_INET, peer.host.c_str(), &addr.sin_addr);
  return addr;
}
}  // namespace

SimTime RealtimeClock::now() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

MeshTransport::MeshTransport(NodeId self, std::vector<PeerAddress> peers)
    : self_(self),
      addresses_(std::move(peers)),
      sends_ctr_(&obs::MetricsRegistry::global().counter("net.mesh.sends")),
      sent_bytes_ctr_(
          &obs::MetricsRegistry::global().counter("net.mesh.bytes")),
      received_ctr_(
          &obs::MetricsRegistry::global().counter("net.mesh.received")) {
  peers_.resize(addresses_.size());
  for (auto& p : peers_) p = std::make_unique<Peer>();
}

MeshTransport::~MeshTransport() { stop(); }

bool MeshTransport::start(SimDuration dial_timeout_ms) {
  const auto n = static_cast<NodeId>(addresses_.size());

  // Own listener.
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) return false;
  int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in self_addr = make_addr(addresses_[self_]);
  if (::bind(listener, reinterpret_cast<sockaddr*>(&self_addr),
             sizeof self_addr) < 0 ||
      ::listen(listener, static_cast<int>(n)) < 0) {
    ::close(listener);
    return false;
  }

  // Dial every lower id (they may not be up yet: retry within the budget).
  for (NodeId j = 0; j < self_; ++j) {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(dial_timeout_ms);
    int fd = -1;
    for (;;) {
      fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) break;
      sockaddr_in addr = make_addr(addresses_[j]);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) ==
          0) {
        break;
      }
      ::close(fd);
      fd = -1;
      if (std::chrono::steady_clock::now() > deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (fd < 0) {
      ::close(listener);
      return false;
    }
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    std::uint8_t hello[4];
    store_le32(hello, self_);
    if (!write_all(fd, hello, sizeof hello)) {
      ::close(fd);
      ::close(listener);
      return false;
    }
    peers_[j]->fd = fd;
  }

  // Accept every higher id; the hello tells us who arrived. A peer that
  // never dials (it died, or could not bind its own port) fails the start
  // within the same budget instead of blocking it forever.
  const auto accept_deadline = std::chrono::steady_clock::now() +
                               std::chrono::milliseconds(dial_timeout_ms);
  for (NodeId expected = self_ + 1; expected < n; ++expected) {
    int fd = wait_readable(listener, accept_deadline)
                 ? ::accept(listener, nullptr, nullptr)
                 : -1;
    if (fd < 0) {
      ::close(listener);
      return false;
    }
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    std::uint8_t hello[4];
    if (!read_exact(fd, hello, sizeof hello)) {
      ::close(fd);
      ::close(listener);
      return false;
    }
    NodeId who = load_le32(hello);
    if (who <= self_ || who >= n || peers_[who]->fd >= 0) {
      ::close(fd);
      ::close(listener);
      return false;
    }
    peers_[who]->fd = fd;
  }
  ::close(listener);

  if (::pipe(wake_pipe_) < 0) return false;
  running_ = true;
  io_thread_ = std::thread([this] { io_loop(); });
  return true;
}

void MeshTransport::stop() {
  if (!running_.exchange(false)) return;
  if (wake_pipe_[1] >= 0) {
    std::uint8_t byte = 1;
    (void)!::write(wake_pipe_[1], &byte, 1);
  }
  if (io_thread_.joinable()) io_thread_.join();
  for (auto& peer : peers_) {
    if (peer->fd >= 0) ::close(peer->fd);
    peer->fd = -1;
  }
  for (int& fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

void MeshTransport::send(NodeId to, ByteView blob) {
  if (!running_ || to == self_ || to >= peers_.size()) return;
  Peer& peer = *peers_[to];
  if (peer.fd < 0) return;
  Bytes frame(kFrameHeader + blob.size());
  store_le32(frame.data(), static_cast<std::uint32_t>(blob.size()));
  store_le32(frame.data() + 4, self_);
  std::memcpy(frame.data() + kFrameHeader, blob.data(), blob.size());
  std::lock_guard<std::mutex> lock(peer.write_mu);
  if (write_all(peer.fd, frame.data(), frame.size())) {
    ++messages_sent_;
    bytes_sent_ += blob.size();
    sends_ctr_->inc();
    sent_bytes_ctr_->inc(blob.size());
  }
}

bool MeshTransport::read_ready(NodeId peer_id) {
  Peer& peer = *peers_[peer_id];
  std::uint8_t buf[64 * 1024];
  ssize_t n = ::recv(peer.fd, buf, sizeof buf, 0);
  if (n <= 0) return n == -1 && (errno == EAGAIN || errno == EINTR);
  peer.rx.insert(peer.rx.end(), buf, buf + n);
  while (peer.rx.size() >= kFrameHeader) {
    std::uint32_t len = load_le32(peer.rx.data());
    if (len > kMaxFrame) return false;
    if (peer.rx.size() < kFrameHeader + len) break;
    NodeId from = load_le32(peer.rx.data() + 4);
    Bytes payload(peer.rx.begin() + kFrameHeader,
                  peer.rx.begin() + kFrameHeader + len);
    peer.rx.erase(peer.rx.begin(), peer.rx.begin() + kFrameHeader + len);
    // Transport-level binding: the frame's claimed sender must be the
    // connection's peer.
    if (from == peer_id && receiver_) {
      received_ctr_->inc();
      receiver_(from, std::move(payload));
    }
  }
  return true;
}

void MeshTransport::io_loop() {
  std::vector<pollfd> fds;
  std::vector<NodeId> ids;
  while (running_) {
    fds.clear();
    ids.clear();
    fds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
    ids.push_back(kNoNode);
    for (NodeId id = 0; id < peers_.size(); ++id) {
      if (peers_[id]->fd >= 0) {
        fds.push_back(pollfd{peers_[id]->fd, POLLIN, 0});
        ids.push_back(id);
      }
    }
    int ready = ::poll(fds.data(), fds.size(), 100);
    if (ready <= 0) continue;
    if (fds[0].revents & POLLIN) {
      std::uint8_t drain[16];
      (void)!::read(wake_pipe_[0], drain, sizeof drain);
    }
    for (std::size_t i = 1; i < fds.size(); ++i) {
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        if (!read_ready(ids[i])) {
          // Peer process exited (or misbehaved): retire the fd so the loop
          // does not spin on a permanently-readable closed socket.
          Peer& peer = *peers_[ids[i]];
          std::lock_guard<std::mutex> lock(peer.write_mu);
          ::close(peer.fd);
          peer.fd = -1;
        }
      }
    }
  }
}

}  // namespace sgxp2p::net
