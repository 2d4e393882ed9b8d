#include "apps/beacon.hpp"

#include <memory>

#include "common/serde.hpp"
#include "crypto/sha256.hpp"
#include "protocol/erng_basic.hpp"
#include "scenario/scenario.hpp"

namespace sgxp2p::apps {

Bytes BeaconEntry::serialize() const {
  BinaryWriter w;
  w.u64(epoch);
  w.bytes(value);
  w.bytes(prev_hash);
  w.u64(contributors);
  return w.take();
}

const BeaconEntry& BeaconLog::append(Bytes value, std::size_t contributors) {
  BeaconEntry entry;
  entry.epoch = entries_.size();
  entry.value = std::move(value);
  entry.prev_hash = entries_.empty()
                        ? Bytes(crypto::kSha256DigestSize, 0)
                        : crypto::Sha256::hash_bytes(entries_.back().serialize());
  entry.contributors = contributors;
  entries_.push_back(std::move(entry));
  return entries_.back();
}

std::vector<Bytes> BeaconLog::leaves() const {
  std::vector<Bytes> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(e.serialize());
  return out;
}

Bytes BeaconLog::root() const { return crypto::MerkleTree(leaves()).root(); }

std::vector<Bytes> BeaconLog::proof(std::size_t i) const {
  return crypto::MerkleTree(leaves()).proof(i);
}

bool BeaconLog::verify(ByteView root, const BeaconEntry& entry, std::size_t i,
                       std::size_t size, const std::vector<Bytes>& proof) {
  return crypto::MerkleTree::verify(root, entry.serialize(), i, size, proof);
}

bool BeaconLog::audit_chain() const {
  for (std::size_t i = 1; i < entries_.size(); ++i) {
    Bytes expected = crypto::Sha256::hash_bytes(entries_[i - 1].serialize());
    if (entries_[i].prev_hash != expected) return false;
  }
  return true;
}

BeaconLog run_beacon(std::uint32_t n, std::uint32_t epochs,
                     std::uint32_t byzantine_omitters, std::uint64_t seed) {
  BeaconLog log;
  for (std::uint32_t epoch = 0; epoch < epochs; ++epoch) {
    sim::Testbed bed(scenario::sim_config(n, seed * 1000 + epoch));
    bed.build(scenario::erng_basic_factory(),
              [&](NodeId id) -> std::unique_ptr<adversary::Strategy> {
                if (id >= n - byzantine_omitters) {
                  return std::make_unique<adversary::RandomOmissionStrategy>(
                      0.5, 0.2);
                }
                return nullptr;
              });
    bed.start();
    bed.run_rounds(scenario::t_budget(bed.config().effective_t()),
                   scenario::honest_done(bed));
    const auto& r =
        bed.enclave_as<protocol::ErngBasicNode>(bed.honest_nodes().front())
            .result();
    log.append(r.value, r.set_size);
  }
  return log;
}

}  // namespace sgxp2p::apps
