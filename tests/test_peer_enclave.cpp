// PeerEnclave runtime surface: setup-phase edge cases, the sequence table
// and its checkpoint bytes, the setup exchange's pairs and SETUP blobs,
// round computation, per-type send statistics, and halted-node semantics.
#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "common/serde.hpp"
#include "crypto/sha256.hpp"
#include "obs/metrics.hpp"
#include "protocol/erb_node.hpp"
#include "scenario/scenario.hpp"

namespace sgxp2p {
namespace {

using protocol::ErbNode;
using protocol::MsgType;
using scenario::erb_factory;
using scenario::sim_config;

// A PeerEnclave with no protocol and its checkpoint and sequence-table
// hooks made public, so tests can drive the table directly.
class TableProbe final : public protocol::PeerEnclave {
 public:
  TableProbe(sgx::SgxPlatform& platform, sgx::CpuId cpu,
             sgx::EnclaveHostIface& host, protocol::PeerConfig config,
             const sgx::SimIAS& ias)
      : PeerEnclave(platform, cpu, ErbNode::program(), host, config, ias) {}
  using PeerEnclave::export_core_state;
  using PeerEnclave::import_core_state;
  using PeerEnclave::install_peer_seq;

 protected:
  void on_round_begin(std::uint32_t /*round*/) override {}
  void on_val(NodeId /*from*/, const protocol::Val& /*val*/) override {}
};

sim::Testbed::EnclaveFactory probe_factory() {
  return [](NodeId id, sgx::SgxPlatform& platform, net::Host& host,
            protocol::PeerConfig cfg, const sgx::SimIAS& ias)
             -> std::unique_ptr<protocol::PeerEnclave> {
    return std::make_unique<TableProbe>(platform, id, host, cfg, ias);
  };
}

/// The (id, seq) entries of an export_core_state() table, in file order.
std::vector<std::pair<NodeId, std::uint64_t>> exported_seqs(ByteView core) {
  BinaryReader r(core);
  EXPECT_EQ(r.str(), "sgxp2p-core-v1");
  (void)r.u64();  // own sequence
  std::vector<std::pair<NodeId, std::uint64_t>> out(r.u32());
  for (auto& [id, seq] : out) {
    id = r.u32();
    seq = r.u64();
  }
  EXPECT_TRUE(r.ok());
  return out;
}

/// A bed of TableProbes whose setup links nobody, so tables start empty.
sim::TestbedConfig unlinked_config(std::uint32_t n, std::uint64_t seed) {
  sim::TestbedConfig cfg = sim_config(n, seed);
  cfg.setup_peers = [](NodeId) { return std::vector<NodeId>{}; };
  return cfg;
}

std::uint64_t pool_acquires(const obs::MetricsRegistry& reg) {
  obs::MetricsSnapshot snap = reg.snapshot();
  const obs::CounterSample* c = snap.find_counter("sim.pool_acquires");
  return c != nullptr ? c->value : 0;
}

/// Builds an accounted bed of probes from `cfg` and checks that exactly the
/// (sender, receiver) pairs in `links` learned the sender's sequence, and
/// that build() acquired one pooled buffer per sender: its SETUP blob.
void expect_accounted_exchange(sim::TestbedConfig cfg,
                               const std::set<std::pair<NodeId, NodeId>>& links,
                               std::uint64_t senders) {
  obs::MetricsRegistry reg;
  cfg.mode = protocol::ChannelMode::kAccounted;
  cfg.registry = &reg;
  sim::Testbed bed(cfg);
  const std::uint64_t before = pool_acquires(reg);
  bed.build(probe_factory());
  EXPECT_EQ(pool_acquires(reg) - before, senders);
  for (NodeId a = 0; a < cfg.n; ++a) {
    for (NodeId b = 0; b < cfg.n; ++b) {
      if (a == b) continue;
      auto seq = bed.enclave(b).expected_seq(a);
      if (links.count({a, b}) != 0) {
        ASSERT_TRUE(seq.has_value()) << a << "->" << b;
        EXPECT_EQ(*seq, bed.enclave(a).my_seq()) << a << "->" << b;
      } else {
        EXPECT_FALSE(seq.has_value()) << a << "->" << b;
      }
    }
  }
}

TEST(PeerEnclave, HandshakeGarbageRejected) {
  sim::Testbed bed(sim_config(3, 1));
  bed.build(erb_factory(0, to_bytes("m")));
  EXPECT_FALSE(bed.enclave(1).accept_handshake(to_bytes("not a handshake")));
  EXPECT_FALSE(bed.enclave(1).accept_handshake({}));
}

TEST(PeerEnclave, HandshakeBlobStableAcrossCalls) {
  // Recovery re-attestation asks a live peer for its blob again after
  // setup; the DH public key is derived once and the blob must not change.
  sim::Testbed bed(sim_config(3, 1));
  bed.build(erb_factory(0, to_bytes("m")));
  ASSERT_EQ(bed.config().mode, protocol::ChannelMode::kAttested);
  Bytes first = bed.enclave(0).handshake_blob();
  EXPECT_EQ(bed.enclave(0).handshake_blob(), first);
  EXPECT_TRUE(bed.enclave(1).accept_handshake(first));
}

TEST(PeerEnclave, SeqBlobFromWrongSenderRejected) {
  sim::Testbed bed(sim_config(3, 2));
  bed.build(erb_factory(0, to_bytes("m")));
  // A genuine blob from 0→1 presented as coming from 2: the directional
  // channel AAD kills it.
  Bytes blob = bed.enclave(0).make_seq_blob(1);
  EXPECT_FALSE(bed.enclave(1).accept_seq_blob(2, blob));
}

TEST(PeerEnclave, ExpectedSeqTableAndBump) {
  sim::Testbed bed(sim_config(3, 3));
  bed.build(erb_factory(0, to_bytes("m")));
  auto& e1 = bed.enclave(1);
  auto s0 = e1.expected_seq(0);
  ASSERT_TRUE(s0.has_value());
  EXPECT_FALSE(e1.expected_seq(99).has_value());
  EXPECT_EQ(*e1.expected_seq(1), e1.my_seq());
  std::uint64_t own = e1.my_seq();
  e1.bump_all_seqs();
  EXPECT_EQ(*e1.expected_seq(0), *s0 + 1);
  EXPECT_EQ(e1.my_seq(), own + 1);
}

TEST(PeerEnclave, SeqExchangeConsistentAcrossNodes) {
  const std::uint32_t n = 5;
  sim::Testbed bed(sim_config(n, 4));
  bed.build(erb_factory(0, to_bytes("m")));
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      if (a == b) continue;
      // b's view of a's sequence equals a's own.
      EXPECT_EQ(*bed.enclave(b).expected_seq(a), bed.enclave(a).my_seq());
    }
  }
}

TEST(PeerEnclave, CheckpointFormatPinned) {
  // The sgxp2p-core-v1 bytes of one node after an attested n=7 setup: own
  // sequence, the id-sorted peer sequence table, then every link's keys and
  // replay window. Sealed checkpoints outlive a relaunch, so a change to the
  // table's storage or to the setup exchange must leave these bytes alone.
  sim::Testbed bed(sim_config(7, 11));
  bed.build(probe_factory());
  ASSERT_EQ(bed.config().mode, protocol::ChannelMode::kAttested);
  const std::string digest = hex_encode(crypto::Sha256::hash(
      bed.enclave_as<TableProbe>(3).export_core_state()));
  EXPECT_EQ(digest,
            "78549c3e5761fe0dc9c29df932bc1957c66ee922ebe95a9d1cbde1234a6ed2ba");
}

TEST(PeerEnclave, SeqTableOutOfOrderInstalls) {
  // Setup installs ascending ids; membership joins may not. Every order
  // must leave the same id-sorted table, and a repeated id overwrites.
  sim::Testbed bed(unlinked_config(3, 12));
  bed.build(probe_factory());
  auto& e = bed.enclave_as<TableProbe>(0);
  e.install_peer_seq(9, 90);
  e.install_peer_seq(2, 20);
  e.install_peer_seq(5, 50);
  e.install_peer_seq(2, 21);
  EXPECT_EQ(e.expected_seq(2), 21u);
  EXPECT_EQ(e.expected_seq(5), 50u);
  EXPECT_EQ(e.expected_seq(9), 90u);
  for (NodeId unknown : {1u, 3u, 6u, 10u}) {
    EXPECT_FALSE(e.expected_seq(unknown).has_value()) << unknown;
  }
  // Self is answered from my_seq(), never from the table.
  EXPECT_EQ(e.expected_seq(0), e.my_seq());
  using Entries = std::vector<std::pair<NodeId, std::uint64_t>>;
  EXPECT_EQ(exported_seqs(e.export_core_state()),
            (Entries{{2, 21}, {5, 50}, {9, 90}}));
  e.bump_all_seqs();
  EXPECT_EQ(exported_seqs(e.export_core_state()),
            (Entries{{2, 22}, {5, 51}, {9, 91}}));
}

TEST(PeerEnclave, ImportRepeatedIdLastWins) {
  // A checkpoint that lists an id twice, out of order: the later entry
  // wins, as it did when the table was a hash map.
  sim::Testbed bed(unlinked_config(3, 13));
  bed.build(probe_factory());
  auto& e = bed.enclave_as<TableProbe>(1);
  BinaryWriter w;
  w.str("sgxp2p-core-v1");
  w.u64(777);
  const std::vector<std::pair<NodeId, std::uint64_t>> listed = {
      {7, 1}, {3, 2}, {7, 3}, {0, 4}, {3, 5}};
  w.u32(static_cast<std::uint32_t>(listed.size()));
  for (const auto& [id, seq] : listed) {
    w.u32(id);
    w.u64(seq);
  }
  w.u32(0);  // no links
  ASSERT_TRUE(e.import_core_state(w.take()));
  EXPECT_EQ(e.my_seq(), 777u);
  EXPECT_EQ(e.expected_seq(0), 4u);
  EXPECT_EQ(e.expected_seq(3), 5u);
  EXPECT_EQ(e.expected_seq(7), 3u);
  EXPECT_FALSE(e.expected_seq(2).has_value());
  using Entries = std::vector<std::pair<NodeId, std::uint64_t>>;
  EXPECT_EQ(exported_seqs(e.export_core_state()),
            (Entries{{0, 4}, {3, 5}, {7, 3}}));
}

TEST(PeerEnclave, CheckpointRoundTripByteIdentical) {
  // Export, relaunch the enclave, import, export again: the same bytes.
  sim::Testbed bed(sim_config(7, 14));
  bed.build(probe_factory());
  const Bytes before = bed.enclave_as<TableProbe>(3).export_core_state();
  bed.kill_enclave(3);
  bed.relaunch_enclave(3, probe_factory(), [&](protocol::PeerEnclave& e) {
    EXPECT_TRUE(static_cast<TableProbe&>(e).import_core_state(before));
  });
  EXPECT_EQ(bed.enclave_as<TableProbe>(3).export_core_state(), before);
}

TEST(PeerEnclave, AccountedCliqueExchangeSharesOneBlobPerSender) {
  const std::uint32_t n = 6;
  std::set<std::pair<NodeId, NodeId>> links;
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      if (a != b) links.insert({a, b});
    }
  }
  expect_accounted_exchange(sim_config(n, 15), links, n);
}

TEST(PeerEnclave, AsymmetricSetupPeersExchangeOnlyListedPairs) {
  // One-way edges, an unsorted list, a self entry and nodes that set up
  // nobody: only the listed (sender, receiver) pairs exchange, and only
  // nodes with a receiver build a SETUP blob.
  sim::TestbedConfig cfg = sim_config(6, 16);
  cfg.setup_peers = [](NodeId id) -> std::vector<NodeId> {
    switch (id) {
      case 0: return {1, 2, 3, 4, 5};
      case 1: return {0};
      case 2: return {5, 3};
      case 4: return {0, 4};
      default: return {};
    }
  };
  const std::set<std::pair<NodeId, NodeId>> links = {
      {0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {1, 0},
      {2, 5}, {2, 3}, {4, 0}};
  expect_accounted_exchange(cfg, links, 4);
}

TEST(PeerEnclave, CurrentRoundTracksTrustedTime) {
  auto cfg = sim_config(3, 5);
  sim::Testbed bed(cfg);
  bed.build(erb_factory(0, to_bytes("m")));
  EXPECT_EQ(bed.enclave(0).current_round(), 0u);  // not started
  bed.start();
  bed.simulator().run_until(bed.start_time());
  EXPECT_EQ(bed.enclave(0).current_round(), 1u);
  SimDuration rt = bed.config().effective_round();
  bed.simulator().run_until(bed.start_time() + 3 * rt + rt / 2);
  EXPECT_EQ(bed.enclave(0).current_round(), 4u);
}

TEST(PeerEnclave, SendStatsBreakdown) {
  const std::uint32_t n = 5;
  sim::Testbed bed(sim_config(n, 6));
  bed.build(erb_factory(0, to_bytes("payload")));
  bed.start();
  bed.run_rounds(4, scenario::honest_done(bed));
  // Initiator: n−1 INITs, n−1 ECHOs (it echoes? no — the initiator never
  // echoes; it sends INIT only) plus ACKs for the echoes it received.
  const auto& init_stats = bed.enclave(0).send_stats();
  EXPECT_EQ(init_stats.of(MsgType::kInit), n - 1);
  EXPECT_EQ(init_stats.of(MsgType::kEcho), 0u);
  EXPECT_EQ(init_stats.of(MsgType::kAck), n - 1);  // one per peer echo
  // A receiver: no INITs, one echo multicast, ACKs for INIT + other echoes.
  const auto& recv_stats = bed.enclave(1).send_stats();
  EXPECT_EQ(recv_stats.of(MsgType::kInit), 0u);
  EXPECT_EQ(recv_stats.of(MsgType::kEcho), n - 1);
  EXPECT_EQ(recv_stats.of(MsgType::kAck), n - 1);  // INIT + (n−2) echoes
  EXPECT_GT(recv_stats.bytes, 0u);
}

TEST(PeerEnclave, DoubleStartAborts) {
  sim::Testbed bed(sim_config(3, 7));
  bed.build(erb_factory(0, to_bytes("m")));
  bed.start();
  EXPECT_DEATH(bed.enclave(0).start_protocol(123), "start_protocol");
}

TEST(PeerEnclave, WireMessageSizesMatchPaperRegime) {
  // The paper reports INIT ≈ 100 B and ACK ≈ 80 B; our sealed vals must sit
  // in the same regime (sanity for the traffic comparisons).
  const std::uint32_t n = 5;
  sim::Testbed bed(sim_config(n, 8));
  bed.build(erb_factory(0, Bytes(32, 0xaa)));  // 32-byte payload, ERNG-like
  bed.start();
  bed.run_rounds(4, scenario::honest_done(bed));
  const auto& stats = bed.enclave(0).send_stats();
  std::uint64_t total_msgs = 0;
  for (auto t : {MsgType::kInit, MsgType::kEcho, MsgType::kAck}) {
    total_msgs += stats.of(t);
  }
  double avg = static_cast<double>(stats.bytes) / total_msgs;
  EXPECT_GT(avg, 60.0);
  EXPECT_LT(avg, 200.0);
}

}  // namespace
}  // namespace sgxp2p
