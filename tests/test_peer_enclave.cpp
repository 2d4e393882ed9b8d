// PeerEnclave runtime surface: setup-phase edge cases, sequence table
// behavior, round computation, per-type send statistics, and halted-node
// semantics.
#include <gtest/gtest.h>

#include "protocol/erb_node.hpp"
#include "testbed_util.hpp"

namespace sgxp2p {
namespace {

using protocol::ErbNode;
using protocol::MsgType;
using testutil::erb_factory;
using testutil::small_config;

TEST(PeerEnclave, HandshakeGarbageRejected) {
  sim::Testbed bed(small_config(3, 1));
  bed.build(erb_factory(0, to_bytes("m")));
  EXPECT_FALSE(bed.enclave(1).accept_handshake(to_bytes("not a handshake")));
  EXPECT_FALSE(bed.enclave(1).accept_handshake({}));
}

TEST(PeerEnclave, HandshakeBlobStableAcrossCalls) {
  // Recovery re-attestation asks a live peer for its blob again after
  // setup; the DH public key is derived once and the blob must not change.
  sim::Testbed bed(small_config(3, 1));
  bed.build(erb_factory(0, to_bytes("m")));
  ASSERT_EQ(bed.config().mode, protocol::ChannelMode::kAttested);
  Bytes first = bed.enclave(0).handshake_blob();
  EXPECT_EQ(bed.enclave(0).handshake_blob(), first);
  EXPECT_TRUE(bed.enclave(1).accept_handshake(first));
}

TEST(PeerEnclave, SeqBlobFromWrongSenderRejected) {
  sim::Testbed bed(small_config(3, 2));
  bed.build(erb_factory(0, to_bytes("m")));
  // A genuine blob from 0→1 presented as coming from 2: the directional
  // channel AAD kills it.
  Bytes blob = bed.enclave(0).make_seq_blob(1);
  EXPECT_FALSE(bed.enclave(1).accept_seq_blob(2, blob));
}

TEST(PeerEnclave, ExpectedSeqTableAndBump) {
  sim::Testbed bed(small_config(3, 3));
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
  sim::Testbed bed(small_config(n, 4));
  bed.build(erb_factory(0, to_bytes("m")));
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      if (a == b) continue;
      // b's view of a's sequence equals a's own.
      EXPECT_EQ(*bed.enclave(b).expected_seq(a), bed.enclave(a).my_seq());
    }
  }
}

TEST(PeerEnclave, CurrentRoundTracksTrustedTime) {
  auto cfg = small_config(3, 5);
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
  sim::Testbed bed(small_config(n, 6));
  bed.build(erb_factory(0, to_bytes("payload")));
  bed.start();
  bed.run_rounds(4, testutil::all_honest_erb_decided(bed));
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
  sim::Testbed bed(small_config(3, 7));
  bed.build(erb_factory(0, to_bytes("m")));
  bed.start();
  EXPECT_DEATH(bed.enclave(0).start_protocol(123), "start_protocol");
}

TEST(PeerEnclave, WireMessageSizesMatchPaperRegime) {
  // The paper reports INIT ≈ 100 B and ACK ≈ 80 B; our sealed vals must sit
  // in the same regime (sanity for the traffic comparisons).
  const std::uint32_t n = 5;
  sim::Testbed bed(small_config(n, 8));
  bed.build(erb_factory(0, Bytes(32, 0xaa)));  // 32-byte payload, ERNG-like
  bed.start();
  bed.run_rounds(4, testutil::all_honest_erb_decided(bed));
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
