// ERB protocol tests: the Definition 2.1 properties (validity, agreement,
// integrity, termination), the early-stopping bound min{f+2, t+2}, the
// halt-on-divergence sanitization, and the O(N²) traffic envelope — under
// honest and byzantine conditions.
#include <gtest/gtest.h>

#include <algorithm>

#include "scenario/scenario.hpp"

namespace sgxp2p {
namespace {

using protocol::ErbNode;
using scenario::erb_factory;
using scenario::honest_done;
using scenario::sim_config;

Bytes msg() { return to_bytes("the broadcast message"); }

// --- Honest network ---

TEST(Erb, HonestValidityAllAcceptInTwoRounds) {
  sim::Testbed bed(sim_config(7));
  bed.build(erb_factory(0, msg()));
  bed.start();
  bed.run_rounds(10, honest_done(bed));
  for (NodeId id = 0; id < 7; ++id) {
    const auto& r = bed.enclave_as<ErbNode>(id).result();
    ASSERT_TRUE(r.decided) << "node " << id;
    ASSERT_TRUE(r.value.has_value()) << "node " << id;
    EXPECT_EQ(*r.value, msg()) << "node " << id;
    EXPECT_LE(r.round, 2u) << "node " << id;
  }
}

TEST(Erb, HonestNonInitiatorViewsAgree) {
  sim::Testbed bed(sim_config(5, 99));
  bed.build(erb_factory(2, msg()));
  bed.start();
  bed.run_rounds(10, honest_done(bed));
  for (NodeId id = 0; id < 5; ++id) {
    EXPECT_EQ(*bed.enclave_as<ErbNode>(id).result().value, msg());
  }
}

class ErbHonestSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ErbHonestSweep, AllSizesTerminateWithAgreement) {
  const std::uint32_t n = GetParam();
  sim::Testbed bed(sim_config(n, 7 * n));
  bed.build(erb_factory(0, msg()));
  bed.start();
  std::uint32_t rounds =
      bed.run_rounds(bed.config().effective_t() + 3, honest_done(bed));
  EXPECT_LE(rounds, 2u + 1);  // accept within 2 rounds + stop-check granularity
  for (NodeId id = 0; id < n; ++id) {
    const auto& r = bed.enclave_as<ErbNode>(id).result();
    ASSERT_TRUE(r.decided);
    EXPECT_EQ(*r.value, msg());
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ErbHonestSweep,
                         ::testing::Values(2u, 3u, 4u, 5u, 8u, 16u, 33u));

// --- Byzantine: crash initiator → all honest accept ⊥ at t+2 ---

TEST(Erb, CrashedInitiatorYieldsBottomAtTimeout) {
  auto cfg = sim_config(7);
  sim::Testbed bed(cfg);
  bed.build(erb_factory(0, msg()), [](NodeId id) {
    return id == 0
               ? std::make_unique<adversary::CrashStrategy>()
               : std::unique_ptr<adversary::Strategy>{};
  });
  bed.start();
  const std::uint32_t t = bed.config().effective_t();
  bed.run_rounds(scenario::t_budget(t), honest_done(bed));
  for (NodeId id = 1; id < 7; ++id) {
    const auto& r = bed.enclave_as<ErbNode>(id).result();
    ASSERT_TRUE(r.decided) << "node " << id;
    EXPECT_FALSE(r.value.has_value()) << "node " << id;  // ⊥
    EXPECT_EQ(r.round, t + 3) << "node " << id;  // detected when rnd > t+2
  }
}

// --- Byzantine: identity-selective omission cannot split decisions ---

TEST(Erb, SelectiveOmissionStillAgrees) {
  // Byzantine initiator sends INIT to only a minority subset; agreement must
  // still hold: either everyone accepts m or everyone accepts ⊥.
  const std::uint32_t n = 9;
  auto cfg = sim_config(n, 1234);
  sim::Testbed bed(cfg);
  std::set<NodeId> victims = {4, 5, 6, 7, 8};  // never receive from node 0
  bed.build(erb_factory(0, msg()), [&](NodeId id) {
    return id == 0 ? std::make_unique<adversary::SelectiveOmissionStrategy>(
                         victims)
                   : std::unique_ptr<adversary::Strategy>{};
  });
  bed.start();
  bed.run_rounds(scenario::t_budget(bed.config().effective_t()),
                 honest_done(bed));

  std::optional<Bytes> first;
  bool first_set = false;
  for (NodeId id = 1; id < n; ++id) {
    const auto& r = bed.enclave_as<ErbNode>(id).result();
    ASSERT_TRUE(r.decided) << "node " << id;
    if (!first_set) {
      first = r.value;
      first_set = true;
    } else {
      EXPECT_EQ(r.value, first) << "node " << id;
    }
  }
  // The omitting initiator reached only 4 of 8 peers; with t = 4 it collects
  // ACKs from the 4 it contacted, which meets the ≥ t bar only if 4 ≥ t —
  // here 4 ≥ 4, so it survives, and the echoes propagate m to everyone.
  EXPECT_TRUE(first.has_value());
  EXPECT_EQ(*first, msg());
}

TEST(Erb, OmitterBelowAckThresholdHaltsItself) {
  // Initiator reaches only 2 of 8 peers (< t = 4 ACKs) → P4 halts it.
  const std::uint32_t n = 9;
  sim::Testbed bed(sim_config(n, 77));
  std::set<NodeId> victims = {3, 4, 5, 6, 7, 8};
  bed.build(erb_factory(0, msg()), [&](NodeId id) {
    return id == 0 ? std::make_unique<adversary::SelectiveOmissionStrategy>(
                         victims)
                   : std::unique_ptr<adversary::Strategy>{};
  });
  bed.start();
  bed.run_rounds(scenario::t_budget(bed.config().effective_t()),
                 honest_done(bed));

  EXPECT_TRUE(bed.enclave(0).halted());
  EXPECT_FALSE(bed.network().attached(0));  // churned out of P
  // Agreement among honest nodes still holds (all m, via echoes from the two
  // contacted nodes).
  std::optional<Bytes> first = bed.enclave_as<ErbNode>(1).result().value;
  for (NodeId id = 1; id < n; ++id) {
    const auto& r = bed.enclave_as<ErbNode>(id).result();
    ASSERT_TRUE(r.decided);
    EXPECT_EQ(r.value, first);
  }
}

// --- Byzantine: chain-delay worst case (Section 6.3) ---

TEST(Erb, ChainDelayTerminatesAtFPlusTwoAndEliminatesChain) {
  const std::uint32_t n = 13;  // t = 6
  const std::uint32_t f = 4;  // releases to node f, the first honest one
  sim::Testbed bed(sim_config(n, 4242));
  bed.build(erb_factory(0, msg()), scenario::chain(f));
  bed.start();
  bed.run_rounds(scenario::t_budget(bed.config().effective_t()),
                 honest_done(bed));

  std::uint32_t max_round = 0;
  for (NodeId id = f; id < n; ++id) {
    const auto& r = bed.enclave_as<ErbNode>(id).result();
    ASSERT_TRUE(r.decided) << "node " << id;
    ASSERT_TRUE(r.value.has_value()) << "node " << id;
    EXPECT_EQ(*r.value, msg());
    max_round = std::max(max_round, r.round);
  }
  // Early stopping: the chain delays for f rounds, decisions land by f + 2.
  EXPECT_EQ(max_round, f + 2);
  // Sanitization: every chain member halted and left the network.
  for (NodeId id = 0; id < f; ++id) {
    EXPECT_TRUE(bed.enclave(id).halted()) << "byz " << id;
    EXPECT_FALSE(bed.network().attached(id)) << "byz " << id;
  }
}

TEST(Erb, ChainWithNoReleaseYieldsBottomEverywhere) {
  const std::uint32_t n = 9;
  const std::uint32_t f = 3;
  auto plan = std::make_shared<adversary::ChainPlan>();
  for (NodeId id = 0; id < f; ++id) plan->order.push_back(id);
  plan->release = adversary::ChainPlan::Release::kNobody;

  sim::Testbed bed(sim_config(n, 5));
  bed.build(erb_factory(0, msg()), [&](NodeId id) {
    return id < f ? std::make_unique<adversary::ChainStrategy>(plan)
                  : std::unique_ptr<adversary::Strategy>{};
  });
  bed.start();
  const std::uint32_t t = bed.config().effective_t();
  bed.run_rounds(scenario::t_budget(t), honest_done(bed));
  for (NodeId id = f; id < n; ++id) {
    const auto& r = bed.enclave_as<ErbNode>(id).result();
    ASSERT_TRUE(r.decided);
    EXPECT_FALSE(r.value.has_value()) << "node " << id;
  }
}

// --- Attacks on the channel: forgery, replay, delay ---

TEST(Erb, CorruptingHostsAreAbsorbed) {
  // Byzantine hosts flip bits and inject junk; the MAC rejects all of it, so
  // the protocol sees omissions at worst — validity must still hold since
  // the initiator is honest.
  const std::uint32_t n = 9;
  sim::Testbed bed(sim_config(n, 31337));
  bed.build(erb_factory(4, msg()), [&](NodeId id) {
    return (id == 1 || id == 2)
               ? std::make_unique<adversary::CorruptStrategy>(0.5, n)
               : std::unique_ptr<adversary::Strategy>{};
  });
  bed.start();
  bed.run_rounds(scenario::t_budget(bed.config().effective_t()),
                 honest_done(bed));
  for (NodeId id : bed.honest_nodes()) {
    const auto& r = bed.enclave_as<ErbNode>(id).result();
    ASSERT_TRUE(r.decided);
    ASSERT_TRUE(r.value.has_value());
    EXPECT_EQ(*r.value, msg());
  }
}

TEST(Erb, ReplayingHostsAreRejected) {
  const std::uint32_t n = 7;
  sim::Testbed bed(sim_config(n, 8));
  bed.build(erb_factory(0, msg()), [&](NodeId id) {
    return (id == 5 || id == 6)
               ? std::make_unique<adversary::ReplayStrategy>(milliseconds(50))
               : std::unique_ptr<adversary::Strategy>{};
  });
  bed.start();
  bed.run_rounds(scenario::t_budget(bed.config().effective_t()),
                 honest_done(bed));
  for (NodeId id : bed.honest_nodes()) {
    const auto& r = bed.enclave_as<ErbNode>(id).result();
    ASSERT_TRUE(r.decided);
    EXPECT_EQ(*r.value, msg());
  }
}

TEST(Erb, DelayedInitiatorIsExcludedByLockstep) {
  // The initiator's host delays everything by two full rounds: every INIT
  // arrives with a stale round tag and is dropped (P5) — honest nodes decide
  // ⊥, and no honest node is tricked into accepting late data.
  const std::uint32_t n = 7;
  auto cfg = sim_config(n, 21);
  sim::Testbed bed(cfg);
  SimDuration two_rounds = 2 * bed.config().effective_round();
  bed.build(erb_factory(0, msg()), [&](NodeId id) {
    return id == 0 ? std::make_unique<adversary::DelayStrategy>(two_rounds)
                   : std::unique_ptr<adversary::Strategy>{};
  });
  bed.start();
  const std::uint32_t t = bed.config().effective_t();
  bed.run_rounds(scenario::t_budget(t), honest_done(bed));
  for (NodeId id = 1; id < n; ++id) {
    const auto& r = bed.enclave_as<ErbNode>(id).result();
    ASSERT_TRUE(r.decided);
    EXPECT_FALSE(r.value.has_value()) << "node " << id;
  }
}

// --- Accounted channels: one shared blob per fan-out ---

// Scribbles over every blob it receives, then drops it.
class ScribbleStrategy final : public adversary::Strategy {
 public:
  void on_receive(adversary::HostContext&, NodeId, Bytes blob) override {
    std::fill(blob.begin(), blob.end(), std::uint8_t{0xA5});
  }
};

TEST(Erb, AccountedScribblerCannotTouchSharedBlobs) {
  // Honest hosts pass one shared buffer per fan-out to their enclaves; a
  // host that handles blobs itself must get a copy, or its writes would
  // reach every later recipient of the same buffer.
  const std::uint32_t n = 7;
  auto cfg = sim_config(n, 17);
  cfg.mode = protocol::ChannelMode::kAccounted;
  sim::Testbed bed(cfg);
  bed.build(erb_factory(0, msg()), [](NodeId id) {
    return id == 3 ? std::make_unique<ScribbleStrategy>()
                   : std::unique_ptr<adversary::Strategy>{};
  });
  bed.start();
  bed.run_rounds(scenario::t_budget(bed.config().effective_t()),
                 honest_done(bed));
  ASSERT_EQ(bed.honest_nodes().size(), n - 1);
  for (NodeId id : bed.honest_nodes()) {
    const auto& r = bed.enclave_as<ErbNode>(id).result();
    ASSERT_TRUE(r.decided) << "node " << id;
    ASSERT_TRUE(r.value.has_value()) << "node " << id;
    EXPECT_EQ(*r.value, msg()) << "node " << id;
    EXPECT_EQ(r.round, 2u) << "node " << id;
  }
}

// --- Traffic envelope ---

TEST(Erb, HonestTrafficIsQuadratic) {
  // Messages ≈ (N−1) INIT + (N−1)·(N−1) ECHO + one ACK per delivery ⇒
  // strictly under 3·N² for every N; and the N=16→32 ratio is ≈4×.
  std::uint64_t msgs16 = 0, msgs32 = 0;
  for (std::uint32_t n : {16u, 32u}) {
    sim::Testbed bed(sim_config(n, n));
    bed.build(erb_factory(0, msg()));
    bed.start();
    bed.run_rounds(6, honest_done(bed));
    std::uint64_t m = bed.network().meter().messages();
    EXPECT_LT(m, 3ull * n * n);
    (n == 16 ? msgs16 : msgs32) = m;
  }
  double ratio = static_cast<double>(msgs32) / static_cast<double>(msgs16);
  EXPECT_NEAR(ratio, 4.0, 0.8);
}

// --- Integrity: accepted exactly once, value immutable after decision ---

TEST(Erb, DecisionIsStable) {
  sim::Testbed bed(sim_config(5, 3));
  bed.build(erb_factory(0, msg()));
  bed.start();
  bed.run_rounds(3);
  Bytes v1 = *bed.enclave_as<ErbNode>(2).result().value;
  std::uint32_t r1 = bed.enclave_as<ErbNode>(2).result().round;
  bed.run_rounds(3);  // extra rounds change nothing
  EXPECT_EQ(*bed.enclave_as<ErbNode>(2).result().value, v1);
  EXPECT_EQ(bed.enclave_as<ErbNode>(2).result().round, r1);
}

}  // namespace
}  // namespace sgxp2p
