// Real-sockets deployment: ERB and ERNG over a localhost TCP mesh.
//
// Same enclave code as the simulator examples, but frames travel on genuine
// TCP connections and rounds are wall-clock (2Δ = 250 ms). This is the
// in-process analogue of the paper's DeterLab deployment. tools/sgxp2p-node
// splits it into one process per node over the same TcpBus: each process
// hosts one endpoint, and node i listens on base-port + i.
#include <cstdio>
#include <memory>

#include "net/tcp_testbed.hpp"
#include "protocol/erb_node.hpp"
#include "protocol/erng_basic.hpp"

using namespace sgxp2p;

int main() {
  std::printf("=== TCP cluster: 7 nodes on localhost, 250 ms rounds ===\n\n");

  {
    std::printf("--- ERB over TCP ---\n");
    net::TcpTestbedConfig cfg;
    cfg.n = 7;
    cfg.round_ms = 250;
    net::TcpTestbed bed(cfg);
    Bytes msg = to_bytes("broadcast over real sockets");
    bool ok = bed.build(
        [&](NodeId id, sgx::SgxPlatform& platform, sgx::EnclaveHostIface& host,
            protocol::PeerConfig pc,
            const sgx::SimIAS& ias) -> std::unique_ptr<protocol::PeerEnclave> {
          return std::make_unique<protocol::ErbNode>(
              platform, id, host, pc, ias, NodeId{0}, id == 0 ? msg : Bytes{});
        });
    if (!ok) {
      std::printf("  socket mesh failed to start\n");
      return 1;
    }
    bed.start();
    bed.run_rounds(cfg.t == 0 ? 6 : cfg.t + 3, [&]() {
      for (NodeId id = 0; id < cfg.n; ++id) {
        if (!bed.enclave_as<protocol::ErbNode>(id).result().decided) {
          return false;
        }
      }
      return true;
    });
    bed.locked([&] {
      for (NodeId id = 0; id < cfg.n; ++id) {
        const auto& r = bed.enclave_as<protocol::ErbNode>(id).result();
        std::printf("  node %u (port %u): \"%s\" in round %u\n", id,
                    bed.bus().port_of(id),
                    r.value ? to_string(*r.value).c_str() : "⊥", r.round);
      }
      return 0;
    });
    std::printf("  TCP frames sent: %llu (%llu bytes)\n\n",
                static_cast<unsigned long long>(bed.bus().messages_sent()),
                static_cast<unsigned long long>(bed.bus().bytes_sent()));
  }

  {
    std::printf("--- ERNG over TCP ---\n");
    net::TcpTestbedConfig cfg;
    cfg.n = 5;
    cfg.round_ms = 250;
    net::TcpTestbed bed(cfg);
    bool ok = bed.build(
        [](NodeId id, sgx::SgxPlatform& platform, sgx::EnclaveHostIface& host,
           protocol::PeerConfig pc,
           const sgx::SimIAS& ias) -> std::unique_ptr<protocol::PeerEnclave> {
          return std::make_unique<protocol::ErngBasicNode>(platform, id, host,
                                                           pc, ias);
        });
    if (!ok) {
      std::printf("  socket mesh failed to start\n");
      return 1;
    }
    bed.start();
    bed.run_rounds(8, [&]() {
      for (NodeId id = 0; id < cfg.n; ++id) {
        if (!bed.enclave_as<protocol::ErngBasicNode>(id).result().done) {
          return false;
        }
      }
      return true;
    });
    bed.locked([&] {
      for (NodeId id = 0; id < cfg.n; ++id) {
        const auto& r = bed.enclave_as<protocol::ErngBasicNode>(id).result();
        std::printf("  node %u: r = %s… (%zu contributions)\n", id,
                    r.done ? hex_encode(ByteView(r.value.data(), 8)).c_str()
                           : "undecided",
                    r.set_size);
      }
      return 0;
    });
  }
  return 0;
}
