// Baseline protocol tests — and the paper's Section 2.3 attack catalogue in
// executable form: each attack SUCCEEDS against the strawman (Algorithm 1),
// while the corresponding defense holds in RBsig / RBearly / ERB.
#include <gtest/gtest.h>

#include "crypto/sha256.hpp"
#include "protocol/rb_early.hpp"
#include "protocol/rb_sig.hpp"
#include "protocol/strawman.hpp"
#include "scenario/scenario.hpp"

namespace sgxp2p {
namespace {

using protocol::EquivocatingRbSigInitiator;
using protocol::EquivocatingStrawmanInitiator;
using protocol::RbEarlyNode;
using protocol::RbSigNode;
using protocol::StrawmanNode;

sim::NetworkConfig net_cfg() { return scenario::network(scenario::kTestDelta); }

// ---------- Strawman ----------

TEST(Strawman, HonestCaseWorks) {
  const std::uint32_t n = 7, t = 3;
  sim::PlainBed bed(n, net_cfg());
  bed.build([&](NodeId id) {
    return std::make_unique<StrawmanNode>(id, n, t, id == 0,
                                          id == 0 ? to_bytes("m") : Bytes{});
  });
  bed.start();
  bed.run_rounds(t + 2);
  for (NodeId id = 0; id < n; ++id) {
    const auto& r = bed.node_as<StrawmanNode>(id).result();
    ASSERT_TRUE(r.decided);
    ASSERT_TRUE(r.value.has_value());
    EXPECT_EQ(*r.value, to_bytes("m"));
  }
}

TEST(Strawman, EquivocationSplitsTheNetwork) {
  // Attack A2 on Algorithm 1: a byzantine initiator sends m0/m1 to different
  // halves. The attack must SUCCEED: honest nodes end up disagreeing.
  const std::uint32_t n = 9, t = 4;
  sim::PlainBed bed(n, net_cfg());
  bed.build([&](NodeId id) -> std::unique_ptr<protocol::PlainNode> {
    if (id == 0) {
      return std::make_unique<EquivocatingStrawmanInitiator>(
          id, n, t, to_bytes("m0"), to_bytes("m1"));
    }
    return std::make_unique<StrawmanNode>(id, n, t, false);
  });
  bed.start();
  bed.run_rounds(t + 2);

  std::set<Bytes> outcomes;
  for (NodeId id = 1; id < n; ++id) {
    const auto& r = bed.node_as<StrawmanNode>(id).result();
    ASSERT_TRUE(r.decided);
    if (r.value) outcomes.insert(*r.value);
  }
  EXPECT_GE(outcomes.size(), 2u) << "equivocation should split the strawman";
}

TEST(Strawman, ImpersonatedInitPollutesDecisions) {
  // Attack A2 as impersonation: a byzantine node races the real initiator
  // with its own INIT(FORGED) — nothing authenticates the sender, so some
  // honest node adopts the forgery first. Integrity is violated: a value the
  // sender never broadcast gets accepted somewhere.
  const std::uint32_t n = 9, t = 4;
  sim::PlainBed bed(n, net_cfg());
  bed.build([&](NodeId id) -> std::unique_ptr<protocol::PlainNode> {
    if (id == 1) {
      return std::make_unique<protocol::ForgingStrawmanRelay>(
          id, n, t, to_bytes("FORGED"));
    }
    return std::make_unique<StrawmanNode>(id, n, t, id == 0,
                                          id == 0 ? to_bytes("real") : Bytes{});
  });
  bed.start();
  bed.run_rounds(t + 3);
  // Validity demands every honest node accept "real" (the honest initiator's
  // message). The forgery race leaves some nodes stuck on FORGED — they can
  // never gather a quorum for it and end at ⊥ (or worse, decide FORGED).
  std::size_t holding_real = 0, violated = 0;
  for (NodeId id = 2; id < n; ++id) {
    const auto& r = bed.node_as<StrawmanNode>(id).result();
    ASSERT_TRUE(r.decided) << "node " << id;
    if (r.value && *r.value == to_bytes("real")) {
      ++holding_real;
    } else {
      ++violated;
    }
  }
  EXPECT_GE(holding_real, 1u) << "race should not flip everyone";
  EXPECT_GE(violated, 1u) << "the forgery must break validity for someone";
}

// ---------- RBsig ----------

class RbSigBed {
 public:
  RbSigBed(std::uint32_t n, std::uint32_t t) : n_(n), t_(t), bed_(n, net_cfg()) {}

  void build_honest(NodeId initiator, Bytes payload) {
    build([&](NodeId id) {
      return std::make_unique<RbSigNode>(
          id, n_, t_, initiator, id == initiator ? payload : Bytes{},
          seed_for(id));
    });
  }

  void build(const sim::PlainBed::NodeFactory& factory) {
    bed_.build(factory);
    // PKI distribution.
    std::vector<Bytes> pki;
    for (NodeId id = 0; id < n_; ++id) {
      pki.push_back(bed_.node_as<RbSigNode>(id).public_key());
    }
    for (NodeId id = 0; id < n_; ++id) {
      bed_.node_as<RbSigNode>(id).set_pki(pki);
    }
  }

  static Bytes seed_for(NodeId id) {
    return crypto::Sha256::hash_bytes(to_bytes("rbsig-" + std::to_string(id)));
  }

  void run() {
    bed_.start();
    bed_.run_rounds(t_ + 2);
  }

  RbSigNode& node(NodeId id) { return bed_.node_as<RbSigNode>(id); }
  sim::PlainBed& bed() { return bed_; }

 private:
  std::uint32_t n_, t_;
  sim::PlainBed bed_;
};

TEST(RbSig, HonestBroadcastAccepted) {
  const std::uint32_t n = 7, t = 3;
  RbSigBed bed(n, t);
  bed.build_honest(0, to_bytes("signed message"));
  bed.run();
  for (NodeId id = 0; id < n; ++id) {
    const auto& r = bed.node(id).result();
    ASSERT_TRUE(r.decided) << "node " << id;
    ASSERT_TRUE(r.value.has_value()) << "node " << id;
    EXPECT_EQ(*r.value, to_bytes("signed message"));
  }
}

TEST(RbSig, EquivocationYieldsBottomButAgreement) {
  // The same A2 attack that splits the strawman: here every honest node
  // collects both signed values and outputs ⊥ — agreement preserved.
  const std::uint32_t n = 7, t = 3;
  RbSigBed bed(n, t);
  bed.build([&](NodeId id) -> std::unique_ptr<protocol::PlainNode> {
    if (id == 0) {
      return std::make_unique<EquivocatingRbSigInitiator>(
          id, n, t, to_bytes("m0"), to_bytes("m1"), RbSigBed::seed_for(id));
    }
    return std::make_unique<RbSigNode>(id, n, t, NodeId{0}, Bytes{},
                                       RbSigBed::seed_for(id));
  });
  bed.run();
  for (NodeId id = 1; id < n; ++id) {
    const auto& r = bed.node(id).result();
    ASSERT_TRUE(r.decided) << "node " << id;
    EXPECT_FALSE(r.value.has_value()) << "node " << id << " must output ⊥";
  }
}

TEST(RbSig, ChainsCarryQuadraticByteOverhead) {
  // Signature chains make messages grow with the round — the Appendix B
  // point that ERB's identity-append replaces. Bytes per message here are
  // ~2 KiB+ (WOTS), versus ERB's ~100 B.
  const std::uint32_t n = 5, t = 2;
  RbSigBed bed(n, t);
  bed.build_honest(0, to_bytes("m"));
  bed.run();
  double avg_bytes =
      static_cast<double>(bed.bed().network().meter().bytes()) /
      static_cast<double>(bed.bed().network().meter().messages());
  EXPECT_GT(avg_bytes, 1000.0);
}

// ---------- RBearly ----------

TEST(RbEarly, HonestDecidesInTwoRounds) {
  const std::uint32_t n = 7, t = 3;
  sim::PlainBed bed(n, net_cfg());
  bed.build([&](NodeId id) {
    return std::make_unique<RbEarlyNode>(id, n, t, NodeId{0},
                                         id == 0 ? to_bytes("m") : Bytes{});
  });
  bed.start();
  bed.run_rounds(t + 3);
  for (NodeId id = 0; id < n; ++id) {
    const auto& r = bed.node_as<RbEarlyNode>(id).result();
    ASSERT_TRUE(r.decided) << "node " << id;
    ASSERT_TRUE(r.value.has_value());
    EXPECT_EQ(*r.value, to_bytes("m"));
    EXPECT_LE(r.round, 3u);
  }
}

TEST(RbEarly, CrashedInitiatorEarlyBottom) {
  // f = 1 (the initiator omits everything): honest nodes detect one quiet
  // node and settle on ⊥ by round f + 2 = 3, far before t + 1.
  const std::uint32_t n = 9, t = 4;
  sim::PlainBed bed(n, net_cfg());
  bed.build([&](NodeId id) {
    return std::make_unique<RbEarlyNode>(id, n, t, NodeId{0},
                                         id == 0 ? to_bytes("m") : Bytes{});
  });
  bed.node_as<RbEarlyNode>(0).set_send_filter([](NodeId) { return false; });
  bed.start();
  bed.run_rounds(t + 3);
  for (NodeId id = 1; id < n; ++id) {
    const auto& r = bed.node_as<RbEarlyNode>(id).result();
    ASSERT_TRUE(r.decided) << "node " << id;
    EXPECT_FALSE(r.value.has_value());
    EXPECT_LE(r.round, 4u) << "early stopping bound f+2 (+1 slack)";
  }
}

TEST(RbEarly, OmissionChainStillAgrees) {
  // The initiator reaches exactly one node; that node relays to everyone.
  const std::uint32_t n = 7, t = 3;
  sim::PlainBed bed(n, net_cfg());
  bed.build([&](NodeId id) {
    return std::make_unique<RbEarlyNode>(id, n, t, NodeId{0},
                                         id == 0 ? to_bytes("m") : Bytes{});
  });
  bed.node_as<RbEarlyNode>(0).set_send_filter(
      [](NodeId to) { return to == 1; });
  bed.start();
  bed.run_rounds(t + 3);
  std::optional<Bytes> first;
  for (NodeId id = 1; id < n; ++id) {
    const auto& r = bed.node_as<RbEarlyNode>(id).result();
    ASSERT_TRUE(r.decided) << "node " << id;
    if (id == 1) {
      first = r.value;
    } else {
      EXPECT_EQ(r.value, first) << "node " << id;
    }
  }
  EXPECT_TRUE(first.has_value());
  EXPECT_EQ(*first, to_bytes("m"));
}

TEST(RbEarly, PerRoundLivenessCostsCubicMessages) {
  // The structural cost the paper eliminates: every node broadcasts every
  // round. Crash the initiator so the protocol runs ~3 rounds of all-to-all.
  const std::uint32_t n = 16, t = 7;
  sim::PlainBed bed(n, net_cfg());
  bed.build([&](NodeId id) {
    return std::make_unique<RbEarlyNode>(id, n, t, NodeId{0}, Bytes{});
  });
  bed.node_as<RbEarlyNode>(0).set_send_filter([](NodeId) { return false; });
  bed.start();
  bed.run_rounds(t + 3);
  // ≥ 3 rounds × (n−1) broadcasters × (n−1) targets.
  EXPECT_GT(bed.network().meter().messages(), 3ull * (n - 1) * (n - 1));
}

}  // namespace
}  // namespace sgxp2p
