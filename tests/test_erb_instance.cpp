// ErbInstance state-machine unit tests: no network, events driven by hand.
// Pins the exact Algorithm 2 semantics — what is ACKed, when ECHO flushes,
// which round/sequence mismatches are dropped (P5/P6), the ACK-shortfall
// halt (P4), and the accept thresholds at their edges.
#include <gtest/gtest.h>

#include <numeric>

#include "crypto/sha256.hpp"
#include "protocol/erb_instance.hpp"

namespace sgxp2p::protocol {
namespace {

ErbConfig base_config(NodeId self, std::uint32_t n, std::uint32_t t,
                      bool initiator = false) {
  ErbConfig cfg;
  cfg.self = self;
  cfg.instance = InstanceId{0, 42};  // initiator node 0, epoch 42
  cfg.participants.resize(n);
  std::iota(cfg.participants.begin(), cfg.participants.end(), NodeId{0});
  cfg.t = t;
  cfg.start_round = 1;
  cfg.is_initiator = initiator;
  cfg.init_payload = to_bytes("m");
  return cfg;
}

Val init_val(std::uint32_t round, std::uint64_t seq = 42) {
  return Val{MsgType::kInit, 0, seq, round, to_bytes("m")};
}
Val echo_val(std::uint32_t round, std::uint64_t seq = 42,
             Bytes payload = to_bytes("m")) {
  return Val{MsgType::kEcho, 0, seq, round, std::move(payload)};
}

// --- initiator behavior ---

TEST(ErbInstance, InitiatorMulticastsInitAtRoundOne) {
  ErbInstance inst(base_config(0, 5, 2, true));
  auto sends = inst.on_round_begin(1);
  // One group-wide multicast val; the owner fans it out to everyone but self.
  ASSERT_EQ(sends.multicasts.size(), 1u);
  EXPECT_TRUE(sends.unicasts.empty());
  ASSERT_NE(sends.group, nullptr);
  EXPECT_EQ(sends.group->size(), 5u);
  const Val& v = sends.multicasts[0];
  EXPECT_EQ(v.type, MsgType::kInit);
  EXPECT_EQ(v.round, 1u);
  EXPECT_EQ(v.seq, 42u);
  EXPECT_EQ(v.payload, to_bytes("m"));
}

TEST(ErbInstance, InitiatorHaltsWithoutAcks) {
  ErbInstance inst(base_config(0, 5, 2, true));
  (void)inst.on_round_begin(1);
  // No ACKs arrive during round 1 → halt detected at round 2.
  (void)inst.on_round_begin(2);
  EXPECT_TRUE(inst.wants_halt());
  // A halted instance goes quiet.
  EXPECT_TRUE(inst.on_round_begin(3).empty());
  EXPECT_TRUE(inst.on_val(1, echo_val(3), 3).empty());
}

TEST(ErbInstance, InitiatorSurvivesWithExactlyTAcks) {
  ErbInstance inst(base_config(0, 5, 2, true));
  auto sends = inst.on_round_begin(1);
  Bytes expected_hash =
      crypto::Sha256::hash_bytes(serialize(sends.multicasts[0]));
  // Exactly t = 2 ACKs (the Algorithm 2 bar is Nack < t → halt).
  Val ack{MsgType::kAck, 0, 42, 1, expected_hash};
  (void)inst.on_val(1, ack, 1);
  (void)inst.on_val(2, ack, 1);
  (void)inst.on_round_begin(2);
  EXPECT_FALSE(inst.wants_halt());
}

TEST(ErbInstance, DuplicateAcksFromSamePeerCountOnce) {
  ErbInstance inst(base_config(0, 5, 2, true));
  auto sends = inst.on_round_begin(1);
  Bytes h = crypto::Sha256::hash_bytes(serialize(sends.multicasts[0]));
  Val ack{MsgType::kAck, 0, 42, 1, h};
  (void)inst.on_val(1, ack, 1);
  (void)inst.on_val(1, ack, 1);
  (void)inst.on_val(1, ack, 1);
  (void)inst.on_round_begin(2);
  EXPECT_TRUE(inst.wants_halt());  // one distinct acker < t = 2
}

TEST(ErbInstance, AckWithWrongHashIgnored) {
  ErbInstance inst(base_config(0, 5, 2, true));
  (void)inst.on_round_begin(1);
  Val bad_ack{MsgType::kAck, 0, 42, 1, Bytes(32, 0xee)};
  (void)inst.on_val(1, bad_ack, 1);
  (void)inst.on_val(2, bad_ack, 1);
  (void)inst.on_round_begin(2);
  EXPECT_TRUE(inst.wants_halt());
}

// --- receiver behavior ---

TEST(ErbInstance, ValidInitIsAckedAndEchoScheduled) {
  ErbInstance inst(base_config(3, 5, 2));
  auto sends = inst.on_val(0, init_val(1), 1);
  ASSERT_EQ(sends.unicasts.size(), 1u);  // the ACK back to the initiator
  EXPECT_TRUE(sends.multicasts.empty());
  EXPECT_EQ(sends.unicasts[0].to, 0u);
  EXPECT_EQ(sends.unicasts[0].val.type, MsgType::kAck);
  EXPECT_EQ(sends.unicasts[0].val.payload,
            crypto::Sha256::hash_bytes(serialize(init_val(1))));
  // ECHO flushes at the start of round 2, tagged round 2.
  auto round2 = inst.on_round_begin(2);
  ASSERT_EQ(round2.multicasts.size(), 1u);
  EXPECT_EQ(round2.multicasts[0].type, MsgType::kEcho);
  EXPECT_EQ(round2.multicasts[0].round, 2u);
}

TEST(ErbInstance, AckHashIsHashOfTheValAcked) {
  // Each ACK must carry H(serialize(val)) of the val it answers, whatever
  // the instance remembers from earlier ACKs.
  ErbInstance inst(base_config(3, 7, 3));
  const auto expect_acked = [&inst](NodeId from, const Val& val) {
    auto sends = inst.on_val(from, val, val.round);
    ASSERT_EQ(sends.unicasts.size(), 1u);
    const Val& ack = sends.unicasts[0].val;
    EXPECT_EQ(sends.unicasts[0].to, from);
    EXPECT_EQ(ack.type, MsgType::kAck);
    EXPECT_EQ(ack.round, val.round);
    EXPECT_EQ(ack.payload, crypto::Sha256::hash_bytes(serialize(val)));
  };
  const Val first = echo_val(1);
  const Val other = echo_val(1, 42, to_bytes("m'"));
  expect_acked(1, first);
  expect_acked(2, first);
  expect_acked(4, first);
  expect_acked(5, other);  // same header, different payload
  expect_acked(6, first);
  // An INIT and an ECHO with the same payload hash differently.
  const Val init = init_val(1);
  expect_acked(0, init);
  expect_acked(1, first);
  EXPECT_NE(crypto::Sha256::hash_bytes(serialize(init)),
            crypto::Sha256::hash_bytes(serialize(first)));
}

TEST(ErbInstance, StaleRoundInitDropped) {
  // P5: message tagged round 1 arriving during round 2 is an omission.
  ErbInstance inst(base_config(3, 5, 2));
  (void)inst.on_round_begin(1);
  (void)inst.on_round_begin(2);
  auto sends = inst.on_val(0, init_val(1), 2);
  EXPECT_TRUE(sends.empty());  // not even an ACK
  EXPECT_TRUE(inst.on_round_begin(3).empty());  // no echo scheduled
}

TEST(ErbInstance, WrongSequenceDropped) {
  // P6: a replayed instance (stale seq) is ignored.
  ErbInstance inst(base_config(3, 5, 2));
  auto sends = inst.on_val(0, init_val(1, /*seq=*/41), 1);
  EXPECT_TRUE(sends.empty());
}

TEST(ErbInstance, InitFromNonInitiatorDropped) {
  ErbInstance inst(base_config(3, 5, 2));
  Val forged = init_val(1);
  auto sends = inst.on_val(2, forged, 1);  // sender 2 is not the initiator
  EXPECT_TRUE(sends.empty());
}

TEST(ErbInstance, NonParticipantSenderDropped) {
  ErbInstance inst(base_config(3, 5, 2));
  auto sends = inst.on_val(77, init_val(1), 1);
  EXPECT_TRUE(sends.empty());
}

TEST(ErbInstance, AcceptsAtExactlyNMinusTEchoSenders) {
  // N = 7, t = 3 → threshold N − t = 4 distinct members of S_echo.
  ErbInstance inst(base_config(6, 7, 3));
  (void)inst.on_val(0, init_val(1), 1);  // S = {0, 6}
  (void)inst.on_round_begin(2);
  (void)inst.on_val(1, echo_val(2), 2);  // S = {0, 1, 6}
  EXPECT_FALSE(inst.accepted());
  (void)inst.on_val(2, echo_val(2), 2);  // S = {0, 1, 2, 6} → 4 = N − t
  EXPECT_TRUE(inst.accepted());
  EXPECT_TRUE(inst.has_value());
  EXPECT_EQ(inst.value(), to_bytes("m"));
  EXPECT_EQ(inst.accept_round(), 2u);
}

TEST(ErbInstance, DuplicateEchoSendersNotDoubleCounted) {
  ErbInstance inst(base_config(6, 7, 3));
  (void)inst.on_round_begin(1);
  (void)inst.on_round_begin(2);
  (void)inst.on_val(1, echo_val(2), 2);
  (void)inst.on_val(1, echo_val(2), 2);
  (void)inst.on_val(1, echo_val(2), 2);
  EXPECT_EQ(inst.echo_count(), 2u);  // {1, self}
  EXPECT_FALSE(inst.accepted());
}

TEST(ErbInstance, EchoFirstWithoutInitStillWorks) {
  // A node whose INIT was omitted learns m from echoes alone.
  ErbInstance inst(base_config(4, 5, 2));
  (void)inst.on_round_begin(1);
  (void)inst.on_val(1, echo_val(2), 2);  // S = {1, 4}
  auto flush = inst.on_round_begin(3);   // echoes m itself
  ASSERT_FALSE(flush.empty());
  EXPECT_EQ(flush.multicasts[0].type, MsgType::kEcho);
  (void)inst.on_val(2, echo_val(3), 3);  // S = {1, 2, 4} = N − t
  EXPECT_TRUE(inst.accepted());
  EXPECT_EQ(inst.value(), to_bytes("m"));
}

TEST(ErbInstance, BottomAfterTimeout) {
  ErbInstance inst(base_config(3, 5, 2));
  for (std::uint32_t r = 1; r <= 5; ++r) (void)inst.on_round_begin(r);
  // max rounds = t + 2 = 4; at round 5 the instance decides ⊥.
  EXPECT_TRUE(inst.accepted());
  EXPECT_FALSE(inst.has_value());
  EXPECT_EQ(inst.accept_round(), 5u);
}

TEST(ErbInstance, MessagesAfterDeadlineIgnored) {
  ErbInstance inst(base_config(3, 5, 2));
  for (std::uint32_t r = 1; r <= 5; ++r) (void)inst.on_round_begin(r);
  auto sends = inst.on_val(0, init_val(5), 5);
  EXPECT_TRUE(sends.empty());
  EXPECT_FALSE(inst.has_value());
}

TEST(ErbInstance, StartRoundOffsetTranslation) {
  // Cluster instances (ERNG-opt) start at global round 2.
  auto cfg = base_config(3, 5, 2);
  cfg.start_round = 2;
  ErbInstance inst(cfg);
  // Global round 1 is before the instance exists.
  EXPECT_TRUE(inst.on_val(0, init_val(1), 1).empty());
  // Global round 2 = instance round 1: INIT is valid (tagged global 2).
  auto sends = inst.on_val(0, init_val(2), 2);
  EXPECT_EQ(sends.unicasts.size(), 1u);
}

TEST(ErbInstance, HaltDisabledKeepsGoing) {
  auto cfg = base_config(0, 5, 2, true);
  cfg.enable_halt = false;
  ErbInstance inst(cfg);
  (void)inst.on_round_begin(1);
  (void)inst.on_round_begin(2);  // zero ACKs, but halt disabled
  EXPECT_FALSE(inst.wants_halt());
}

TEST(ErbInstance, EquivocationImpossibleByConstruction) {
  // The enclave state machine stores m̄ once; later different payloads from
  // the same instance do not overwrite it (and honest echoes carry m̄).
  ErbInstance inst(base_config(3, 5, 2));
  (void)inst.on_val(0, init_val(1), 1);
  (void)inst.on_round_begin(2);
  (void)inst.on_val(1, echo_val(2, 42, to_bytes("OTHER")), 2);
  // Sender 1 still enters S_echo (the channel authenticated it), but the
  // stored message is unchanged.
  (void)inst.on_val(2, echo_val(2), 2);
  EXPECT_TRUE(inst.accepted());
  EXPECT_EQ(inst.value(), to_bytes("m"));
}

}  // namespace
}  // namespace sgxp2p::protocol
