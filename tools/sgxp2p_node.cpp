// sgxp2p-node — one protocol node as a standalone process.
//
// N instances of this binary form a real multi-process deployment on one
// host (one per terminal or container): each owns a single-endpoint TcpBus,
// the same epoll data plane the in-process TCP runs use, with node i on
// 127.0.0.1:(base-port + i). Each node performs the attested setup over the
// wire, synchronizes the start time through node 0 (assumption S2), and
// then runs ERB or ERNG with wall-clock rounds. This is the closest in-repo
// analogue to the paper's 40-machine DeterLab run.
//
//   for i in $(seq 0 6); do
//     ./sgxp2p-node --id $i --n 7 --base-port 45100 &
//   done; wait
//
// The ports base-port … base-port + N − 1 must lie in 1–65535; a node whose
// peers do not all connect within 15 s exits 1.
//
// Control messages ride the mesh with a tag byte: H handshake, Q sequence
// blob, R ready, S start(t0), D protocol data.
//
// Flags: --id K --n N --base-port P [--t T] [--protocol erb|erng]
//        [--initiator I] [--payload STR] [--round-ms MS] [--seed S]
//        [--out FILE]
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "net/tcp_bus.hpp"
#include "protocol/erb_node.hpp"
#include "protocol/erng_basic.hpp"
#include "sgx/platform.hpp"

using namespace sgxp2p;

namespace {

const char* arg_value(int argc, char** argv, const char* name,
                      const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

class MeshHost final : public sgx::EnclaveHostIface {
 public:
  MeshHost(NodeId self, net::TcpBus& bus) : self_(self), bus_(&bus) {}
  void transfer(NodeId to, Bytes blob) override {
    Bytes framed;
    framed.reserve(blob.size() + 1);
    framed.push_back('D');
    append(framed, blob);
    bus_->send(self_, to, std::move(framed));
  }

 private:
  NodeId self_;
  net::TcpBus* bus_;
};

struct Coordinator {
  std::mutex mu;
  std::condition_variable cv;
  std::uint32_t hellos = 0;
  std::uint32_t seqs = 0;
  std::uint32_t readies = 0;
  SimTime t0 = 0;

  template <typename Pred>
  bool wait_for(Pred pred, int timeout_ms) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                       std::move(pred));
  }
};

}  // namespace

int main(int argc, char** argv) {
  const NodeId id = std::atoi(arg_value(argc, argv, "--id", "0"));
  const std::uint32_t n = std::atoi(arg_value(argc, argv, "--n", "4"));
  const int base_port = std::atoi(arg_value(argc, argv, "--base-port", "45100"));
  std::uint32_t t = std::atoi(arg_value(argc, argv, "--t", "0"));
  const std::string protocol = arg_value(argc, argv, "--protocol", "erb");
  const NodeId initiator = std::atoi(arg_value(argc, argv, "--initiator", "0"));
  const std::string payload_str =
      arg_value(argc, argv, "--payload", "multi-process broadcast");
  const SimDuration round_ms =
      std::atoi(arg_value(argc, argv, "--round-ms", "300"));
  const std::uint64_t seed = std::atoll(arg_value(argc, argv, "--seed", "7"));
  const char* out_path = arg_value(argc, argv, "--out", nullptr);
  if (t == 0) t = (n - 1) / 2;
  if (id >= n || 2 * t >= n) {
    std::fprintf(stderr, "bad --id/--n/--t\n");
    return 2;
  }
  if (base_port < 1 || std::int64_t{base_port} + n - 1 > 65535) {
    std::fprintf(stderr, "bad --base-port\n");
    return 2;
  }

  std::vector<std::uint16_t> ports(n);
  for (NodeId i = 0; i < n; ++i) {
    ports[i] = static_cast<std::uint16_t>(base_port + i);
  }
  net::TcpBus bus(id, std::move(ports));

  // The platform seed is deployment-wide so every process trusts the same
  // attestation root (in production: Intel's actual root).
  static net::RealtimeClock clock;
  std::uint8_t seed_bytes[16];
  store_le64(seed_bytes, seed);
  store_le64(seed_bytes + 8, 0x73677870ULL);
  sgx::SgxPlatform platform(clock, ByteView(seed_bytes, sizeof seed_bytes));
  sgx::SimIAS ias(platform);

  MeshHost host(id, bus);
  protocol::PeerConfig pc;
  pc.self = id;
  pc.n = n;
  pc.t = t;
  pc.round_ms = round_ms;
  pc.mode = protocol::ChannelMode::kAttested;

  std::unique_ptr<protocol::PeerEnclave> enclave;
  if (protocol == "erb") {
    enclave = std::make_unique<protocol::ErbNode>(
        platform, id, host, pc, ias, initiator,
        id == initiator ? to_bytes(payload_str) : Bytes{});
  } else if (protocol == "erng") {
    enclave =
        std::make_unique<protocol::ErngBasicNode>(platform, id, host, pc, ias);
  } else {
    std::fprintf(stderr, "unknown --protocol\n");
    return 2;
  }

  Coordinator coord;
  std::mutex state_mu;  // serializes all enclave access
  Bytes my_hello;

  bus.set_receiver([&](NodeId, NodeId from, Bytes blob) {
    if (blob.empty()) return;
    std::uint8_t tag = blob[0];
    ByteView body(blob.data() + 1, blob.size() - 1);
    switch (tag) {
      case 'H': {
        std::lock_guard<std::mutex> lock(state_mu);
        if (enclave->accept_handshake(body)) {
          std::lock_guard<std::mutex> coord_lock(coord.mu);
          ++coord.hellos;
          coord.cv.notify_all();
        }
        break;
      }
      case 'Q': {
        std::lock_guard<std::mutex> lock(state_mu);
        if (enclave->accept_seq_blob(from, body)) {
          std::lock_guard<std::mutex> clock_lock(coord.mu);
          ++coord.seqs;
          coord.cv.notify_all();
        }
        break;
      }
      case 'R': {
        std::lock_guard<std::mutex> lock(coord.mu);
        ++coord.readies;
        coord.cv.notify_all();
        break;
      }
      case 'S': {
        if (body.size() == 8) {
          std::lock_guard<std::mutex> lock(coord.mu);
          coord.t0 = static_cast<SimTime>(load_le64(body.data()));
          coord.cv.notify_all();
        }
        break;
      }
      case 'D': {
        std::lock_guard<std::mutex> lock(state_mu);
        enclave->deliver(from, body);
        break;
      }
      default:
        break;
    }
  });

  // Stops the I/O thread on every return below, before the state the
  // receiver uses (declared above) goes out of scope.
  struct StopBus {
    net::TcpBus& bus;
    ~StopBus() { bus.stop(); }
  } stop_bus{bus};

  if (!bus.start()) {
    std::fprintf(stderr, "node %u: mesh failed\n", id);
    return 1;
  }

  // --- setup phase over the wire ---
  {
    std::lock_guard<std::mutex> lock(state_mu);
    my_hello = enclave->handshake_blob();
  }
  for (NodeId j = 0; j < n; ++j) {
    if (j == id) continue;
    Bytes h;
    h.push_back('H');
    append(h, my_hello);
    bus.send(id, j, std::move(h));
  }
  // Once every peer's handshake is in, our links exist — ship the sequence
  // blobs. Per-connection TCP FIFO guarantees each peer sees our H before
  // our Q, so its link exists by the time the Q arrives.
  if (!coord.wait_for([&] { return coord.hellos >= n - 1; }, 20000)) {
    std::fprintf(stderr, "node %u: handshake phase timed out\n", id);
    return 1;
  }
  for (NodeId j = 0; j < n; ++j) {
    if (j == id) continue;
    Bytes q;
    q.push_back('Q');
    {
      std::lock_guard<std::mutex> lock(state_mu);
      append(q, enclave->make_seq_blob(j));
    }
    bus.send(id, j, std::move(q));
  }
  if (!coord.wait_for([&] { return coord.seqs >= n - 1; }, 20000)) {
    std::fprintf(stderr, "node %u: sequence phase timed out\n", id);
    return 1;
  }

  // --- synchronized start (S2): node 0 fixes T0 on the shared clock ---
  if (id != 0) {
    bus.send(id, 0, Bytes{'R'});
  }
  if (id == 0) {
    if (!coord.wait_for([&] { return coord.readies >= n - 1; }, 20000)) {
      std::fprintf(stderr, "node 0: barrier timed out\n");
      return 1;
    }
    SimTime t0 = clock.now() + 4 * round_ms;
    Bytes s;
    s.push_back('S');
    std::uint8_t body[8];
    store_le64(body, static_cast<std::uint64_t>(t0));
    s.insert(s.end(), body, body + 8);
    for (NodeId j = 1; j < n; ++j) bus.send(id, j, ByteView(s));
    std::lock_guard<std::mutex> lock(coord.mu);
    coord.t0 = t0;
  } else if (!coord.wait_for([&] { return coord.t0 != 0; }, 20000)) {
    std::fprintf(stderr, "node %u: start signal timed out\n", id);
    return 1;
  }

  {
    std::lock_guard<std::mutex> lock(state_mu);
    enclave->start_protocol(coord.t0);
  }

  // --- lockstep round loop on the shared wall clock ---
  const std::uint32_t max_rounds = t + 4;
  for (std::uint32_t r = 1; r <= max_rounds; ++r) {
    SimTime boundary = coord.t0 + static_cast<SimTime>(r - 1) * round_ms;
    SimTime wait = boundary - clock.now();
    if (wait > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(wait));
    }
    bool done = false;
    {
      std::lock_guard<std::mutex> lock(state_mu);
      enclave->on_tick();
      if (protocol == "erb") {
        done = static_cast<protocol::ErbNode*>(enclave.get())
                   ->result()
                   .decided;
      } else {
        done = static_cast<protocol::ErngBasicNode*>(enclave.get())
                   ->result()
                   .done;
      }
    }
    if (done) {
      // Stay online one extra round so peers still get our ACKs/echoes.
      std::this_thread::sleep_for(std::chrono::milliseconds(2 * round_ms));
      break;
    }
  }

  // --- report ---
  std::string line;
  {
    std::lock_guard<std::mutex> lock(state_mu);
    if (protocol == "erb") {
      const auto& res =
          static_cast<protocol::ErbNode*>(enclave.get())->result();
      line = "id=" + std::to_string(id) +
             " decided=" + (res.decided ? "1" : "0") + " value=" +
             (res.value ? to_string(*res.value) : std::string("BOTTOM")) +
             " round=" + std::to_string(res.round);
    } else {
      const auto& res =
          static_cast<protocol::ErngBasicNode*>(enclave.get())->result();
      line = "id=" + std::to_string(id) + " decided=" +
             (res.done ? "1" : "0") + " value=" + hex_encode(res.value) +
             " set=" + std::to_string(res.set_size);
    }
  }
  std::printf("%s\n", line.c_str());
  if (out_path != nullptr) {
    if (FILE* f = std::fopen(out_path, "w")) {
      std::fprintf(f, "%s\n", line.c_str());
      std::fclose(f);
    }
  }
  return 0;
}
