#include "net/tcp_testbed.hpp"

#include <chrono>
#include <thread>

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/serde.hpp"

namespace sgxp2p::net {

namespace {
Bytes tcp_platform_seed(std::uint64_t seed) {
  BinaryWriter w;
  w.str("sgxp2p-tcp-platform");
  w.u64(seed);
  return w.take();
}
}  // namespace

TcpTestbed::TcpTestbed(TcpTestbedConfig config)
    : cfg_(config), platform_(clock_, tcp_platform_seed(config.seed)) {
  ias_ = std::make_unique<sgx::SimIAS>(platform_);
  if (cfg_.t == 0) cfg_.t = (cfg_.n - 1) / 2;
  CHECK_MSG(2 * cfg_.t < cfg_.n, "TcpTestbed: t < N/2 required");
  send_warned_ = std::make_unique<std::atomic<bool>[]>(
      static_cast<std::size_t>(cfg_.n) * cfg_.n);
}

TcpTestbed::~TcpTestbed() {
  if (bus_) bus_->stop();
}

std::uint32_t TcpTestbed::current_round() const {
  const SimTime t0 = t0_.load(std::memory_order_acquire);
  if (t0 == 0) return 0;
  const SimTime now = clock_.now();
  if (now < t0) return 0;
  return 1 + static_cast<std::uint32_t>((now - t0) / cfg_.round_ms);
}

SendStatus TcpTestbed::bus_send_raw(NodeId from, NodeId to, Bytes blob) {
  const std::size_t len = blob.size();
  SendStatus st = bus_->send(from, to, std::move(blob));
  if (st != SendStatus::kOk && from < cfg_.n && to < cfg_.n) {
    std::atomic<bool>& warned =
        send_warned_[static_cast<std::size_t>(from) * cfg_.n + to];
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      LOG_WARN("tcp_testbed: send ", from, "->", to, " failed (",
               send_status_name(st), ", ", len,
               " bytes); further failures on this connection are silent");
    }
  }
  return st;
}

void TcpTestbed::host_transfer(NodeId from, NodeId to, Bytes blob) {
  if (send_hook_ &&
      !send_hook_(from, to, ByteView(blob), current_round())) {
    return;  // the shim swallowed (or rescheduled) the frame
  }
  bus_send_raw(from, to, std::move(blob));
}

bool TcpTestbed::build(const EnclaveFactory& make_enclave) {
  bus_ = std::make_unique<TcpBus>(cfg_.n);

  protocol::PeerConfig pc;
  pc.n = cfg_.n;
  pc.t = cfg_.t;
  pc.round_ms = cfg_.round_ms;
  pc.mode = protocol::ChannelMode::kAttested;
  for (NodeId id = 0; id < cfg_.n; ++id) {
    hosts_.push_back(std::make_unique<BusHost>(id, *this));
    pc.self = id;
    enclaves_.push_back(
        make_enclave(id, platform_, *hosts_[id], pc, *ias_));
    CHECK_MSG(enclaves_.back() != nullptr, "TcpTestbed: factory returned null");
  }

  // Attested setup (handshakes + sequence exchange), as in sim::Testbed.
  std::vector<Bytes> hello(cfg_.n);
  for (NodeId id = 0; id < cfg_.n; ++id) {
    hello[id] = enclaves_[id]->handshake_blob();
  }
  for (NodeId a = 0; a < cfg_.n; ++a) {
    for (NodeId b = 0; b < cfg_.n; ++b) {
      if (a != b && !enclaves_[b]->accept_handshake(hello[a])) return false;
    }
  }
  for (NodeId a = 0; a < cfg_.n; ++a) {
    for (NodeId b = 0; b < cfg_.n; ++b) {
      if (a == b) continue;
      Bytes blob = enclaves_[a]->make_seq_blob(b);
      if (!enclaves_[b]->accept_seq_blob(a, blob)) return false;
    }
  }

  bus_->set_receiver([this](NodeId to, NodeId from, Bytes blob) {
    std::lock_guard<std::mutex> lock(state_mu_);
    // A crashed node's slot is null until recover_node(); drop its frames.
    if (to < enclaves_.size() && enclaves_[to] != nullptr) {
      enclaves_[to]->deliver(from, blob);
    }
  });
  return bus_->start();
}

void TcpTestbed::start() {
  std::lock_guard<std::mutex> lock(state_mu_);
  t0_.store(clock_.now() + cfg_.round_ms, std::memory_order_release);
  for (auto& enclave : enclaves_) enclave->start_protocol(t0_);
}

std::uint32_t TcpTestbed::run_rounds(std::uint32_t max_rounds,
                                     const std::function<bool()>& stop_when) {
  // Consecutive calls continue the wall-clock schedule.
  for (std::uint32_t r = 1; r <= max_rounds; ++r) {
    SimTime boundary =
        t0_ + static_cast<SimTime>(rounds_run_ + r - 1) * cfg_.round_ms;
    // Sleep the caller thread to the wall-clock boundary; inbound frames
    // keep flowing on the bus thread meanwhile.
    SimTime wait = boundary - clock_.now();
    if (wait > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(wait));
    }
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      for (auto& enclave : enclaves_) {
        if (enclave) enclave->on_tick();
      }
    }
    // Let the round's traffic complete before evaluating the predicate.
    SimTime round_end = boundary + cfg_.round_ms - cfg_.round_ms / 8;
    SimTime settle = round_end - clock_.now();
    if (settle > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(settle));
    }
    if (stop_when) {
      std::lock_guard<std::mutex> lock(state_mu_);
      if (stop_when()) {
        rounds_run_ += r;
        return r;
      }
    }
  }
  rounds_run_ += max_rounds;
  return max_rounds;
}

void TcpTestbed::crash_node(NodeId id) {
  std::lock_guard<std::mutex> lock(state_mu_);
  CHECK_MSG(id < enclaves_.size() && enclaves_[id] != nullptr,
            "crash_node: no such enclave");
  enclaves_[id].reset();
}

protocol::PeerEnclave& TcpTestbed::recover_node(
    NodeId id, const EnclaveFactory& make_enclave,
    const std::function<void(protocol::PeerEnclave&)>& before_start) {
  std::lock_guard<std::mutex> lock(state_mu_);
  CHECK_MSG(id < enclaves_.size() && enclaves_[id] == nullptr,
            "recover_node: node still running");
  protocol::PeerConfig pc;
  pc.self = id;
  pc.n = cfg_.n;
  pc.t = cfg_.t;
  pc.round_ms = cfg_.round_ms;
  pc.mode = protocol::ChannelMode::kAttested;
  auto enclave = make_enclave(id, platform_, *hosts_[id], pc, *ias_);
  CHECK_MSG(enclave != nullptr, "recover_node: factory returned null");
  enclaves_[id] = std::move(enclave);
  if (before_start) before_start(*enclaves_[id]);
  enclaves_[id]->start_protocol(t0_);
  return *enclaves_[id];
}

}  // namespace sgxp2p::net
