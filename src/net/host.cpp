#include "net/host.hpp"

namespace sgxp2p::net {

Host::Host(NodeId self, sim::Network& network,
           std::unique_ptr<adversary::Strategy> strategy,
           std::uint64_t rng_seed)
    : self_(self),
      network_(&network),
      strategy_(std::move(strategy)),
      transparent_(strategy_->transparent()),
      rng_(rng_seed) {}

void Host::connect() {
  network_->attach(
      self_,
      [this](NodeId from, Bytes blob) { on_network(from, std::move(blob)); },
      [this](NodeId from, ByteView blob) { on_network_shared(from, blob); });
}

}  // namespace sgxp2p::net
