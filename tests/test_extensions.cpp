// Extension tests: Enclaved Byzantine Agreement (EBA) on top of ERB, and
// sequenced multi-execution ERB with P6 epoch advancement.
#include <gtest/gtest.h>

#include "adversary/strategies.hpp"
#include "net/testbed.hpp"
#include "protocol/eba.hpp"
#include "protocol/erb_sequence.hpp"
#include "scenario/scenario.hpp"

namespace sgxp2p {
namespace {

using protocol::EbaNode;
using protocol::ErbSequenceNode;
using scenario::sim_config;

sim::Testbed::EnclaveFactory eba_factory(
    const std::function<Bytes(NodeId)>& input_of) {
  return [input_of](NodeId id, sgx::SgxPlatform& platform, net::Host& host,
                    protocol::PeerConfig cfg, const sgx::SimIAS& ias)
             -> std::unique_ptr<protocol::PeerEnclave> {
    return std::make_unique<EbaNode>(platform, id, host, cfg, ias,
                                     input_of(id));
  };
}

void run_to_done(sim::Testbed& bed) {
  bed.start();
  bed.run_rounds(scenario::t_budget(bed.config().effective_t()), [&]() {
    for (NodeId id : bed.honest_nodes()) {
      if (!bed.enclave_as<EbaNode>(id).result().done) return false;
    }
    return true;
  });
}

TEST(Eba, ValidityWithUnanimousInputs) {
  const std::uint32_t n = 7;
  sim::Testbed bed(sim_config(n, 1));
  bed.build(eba_factory([](NodeId) { return to_bytes("commit"); }));
  run_to_done(bed);
  for (NodeId id = 0; id < n; ++id) {
    const auto& r = bed.enclave_as<EbaNode>(id).result();
    ASSERT_TRUE(r.done);
    ASSERT_TRUE(r.decision.has_value());
    EXPECT_EQ(*r.decision, to_bytes("commit"));
    EXPECT_EQ(r.support, n);
  }
}

TEST(Eba, AgreementWithSplitInputs) {
  const std::uint32_t n = 9;
  sim::Testbed bed(sim_config(n, 2));
  bed.build(eba_factory(
      [](NodeId id) { return to_bytes(id < 4 ? "abort" : "commit"); }));
  run_to_done(bed);
  const auto& r0 = bed.enclave_as<EbaNode>(0).result();
  ASSERT_TRUE(r0.done);
  ASSERT_TRUE(r0.decision.has_value());
  EXPECT_EQ(*r0.decision, to_bytes("commit"));  // 5 > 4
  for (NodeId id = 1; id < n; ++id) {
    EXPECT_EQ(bed.enclave_as<EbaNode>(id).result().decision, r0.decision);
  }
}

TEST(Eba, AgreementUnderByzantineOmission) {
  const std::uint32_t n = 9;
  sim::Testbed bed(sim_config(n, 3));
  bed.build(
      eba_factory([](NodeId id) { return to_bytes(id % 2 ? "x" : "y"); }),
      [](NodeId id) -> std::unique_ptr<adversary::Strategy> {
        if (id >= 6) {
          return std::make_unique<adversary::RandomOmissionStrategy>(0.6, 0.3);
        }
        return nullptr;
      });
  run_to_done(bed);
  std::optional<Bytes> first;
  bool first_set = false;
  for (NodeId id : bed.honest_nodes()) {
    const auto& r = bed.enclave_as<EbaNode>(id).result();
    ASSERT_TRUE(r.done) << "node " << id;
    if (!first_set) {
      first = r.decision;
      first_set = true;
    } else {
      EXPECT_EQ(r.decision, first) << "node " << id;
    }
  }
}

TEST(Eba, TieBreaksDeterministically) {
  const std::uint32_t n = 8;  // t = 3; inputs split 4/4
  auto cfg = sim_config(n, 4);
  sim::Testbed bed(cfg);
  bed.build(eba_factory(
      [](NodeId id) { return to_bytes(id < 4 ? "bbb" : "aaa"); }));
  run_to_done(bed);
  for (NodeId id = 0; id < n; ++id) {
    const auto& r = bed.enclave_as<EbaNode>(id).result();
    ASSERT_TRUE(r.decision.has_value());
    EXPECT_EQ(*r.decision, to_bytes("aaa"));  // lexicographic tie-break
  }
}

// --- sequenced executions ---

sim::Testbed::EnclaveFactory seq_factory(NodeId initiator,
                                         std::vector<Bytes> payloads) {
  return [initiator, payloads](NodeId id, sgx::SgxPlatform& platform,
                               net::Host& host, protocol::PeerConfig cfg,
                               const sgx::SimIAS& ias)
             -> std::unique_ptr<protocol::PeerEnclave> {
    return std::make_unique<ErbSequenceNode>(platform, id, host, cfg, ias,
                                             initiator, payloads);
  };
}

TEST(ErbSequence, ConsecutiveExecutionsDeliverInOrder) {
  const std::uint32_t n = 5;
  std::vector<Bytes> payloads = {to_bytes("first"), to_bytes("second"),
                                 to_bytes("third")};
  sim::Testbed bed(sim_config(n, 6));
  bed.build(seq_factory(0, payloads));
  bed.start();
  std::uint32_t window = bed.config().effective_t() + 2;
  bed.run_rounds(window * 3 + 2, [&]() {
    for (NodeId id = 0; id < n; ++id) {
      if (!bed.enclave_as<ErbSequenceNode>(id).all_done()) return false;
    }
    return true;
  });
  for (NodeId id = 0; id < n; ++id) {
    const auto& results = bed.enclave_as<ErbSequenceNode>(id).results();
    ASSERT_EQ(results.size(), 3u) << "node " << id;
    for (std::size_t e = 0; e < 3; ++e) {
      ASSERT_TRUE(results[e].decided) << "node " << id << " exec " << e;
      ASSERT_TRUE(results[e].value.has_value()) << "node " << id;
      EXPECT_EQ(*results[e].value, payloads[e]);
      EXPECT_LE(results[e].round, 2u);  // honest: each execution in 2 rounds
    }
  }
}

TEST(ErbSequence, CrossExecutionReplayRejected) {
  // A byzantine host records every ciphertext of execution 0 and replays it
  // during execution 1 (delayed by one full window). Both the channel's
  // wire window and the advanced instance sequence kill the replays; every
  // execution still delivers its own payload.
  const std::uint32_t n = 5;
  std::vector<Bytes> payloads = {to_bytes("e0"), to_bytes("e1")};
  auto cfg = sim_config(n, 8);
  sim::Testbed bed(cfg);
  SimDuration window_ms =
      static_cast<SimDuration>(cfg.effective_t() + 2) * cfg.effective_round();
  bed.build(seq_factory(0, payloads),
            [&](NodeId id) -> std::unique_ptr<adversary::Strategy> {
              if (id == 4) {
                return std::make_unique<adversary::ReplayStrategy>(window_ms);
              }
              return nullptr;
            });
  bed.start();
  std::uint32_t window = bed.config().effective_t() + 2;
  bed.run_rounds(window * 2 + 2);
  for (NodeId id : bed.honest_nodes()) {
    const auto& results = bed.enclave_as<ErbSequenceNode>(id).results();
    ASSERT_EQ(results.size(), 2u) << "node " << id;
    EXPECT_EQ(*results[0].value, to_bytes("e0"));
    EXPECT_EQ(*results[1].value, to_bytes("e1"));
  }
}

TEST(ErbSequence, CrashedInitiatorGivesBottomThenNothingBreaks) {
  const std::uint32_t n = 5;
  std::vector<Bytes> payloads = {to_bytes("a"), to_bytes("b")};
  sim::Testbed bed(sim_config(n, 10));
  bed.build(seq_factory(0, payloads),
            [](NodeId id) -> std::unique_ptr<adversary::Strategy> {
              if (id == 0) return std::make_unique<adversary::CrashStrategy>();
              return nullptr;
            });
  bed.start();
  std::uint32_t window = bed.config().effective_t() + 2;
  bed.run_rounds(window * 2 + 2);
  for (NodeId id = 1; id < n; ++id) {
    const auto& results = bed.enclave_as<ErbSequenceNode>(id).results();
    ASSERT_EQ(results.size(), 2u);
    EXPECT_FALSE(results[0].value.has_value());  // ⊥ both times
    EXPECT_FALSE(results[1].value.has_value());
  }
}

}  // namespace
}  // namespace sgxp2p
