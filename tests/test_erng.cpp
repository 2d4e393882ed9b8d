// ERNG tests (basic, Algorithm 3; optimized, Algorithm 6): agreement on the
// final set, early output in the honest case, unbiasedness under active
// adversaries (A3 content-selective / A4 lookahead attempts), and the
// cluster concentration behavior of the optimized variant.
#include <gtest/gtest.h>

#include <map>

#include "scenario/scenario.hpp"

namespace sgxp2p {
namespace {

using protocol::ErngBasicNode;
using protocol::ErngOptNode;
using scenario::erng_basic_factory;
using scenario::erng_opt_factory;
using scenario::honest_done;
using scenario::sim_config;

// --- Basic ERNG ---

TEST(ErngBasic, HonestAllAgreeOnFullSet) {
  const std::uint32_t n = 7;
  sim::Testbed bed(sim_config(n, 11));
  bed.build(erng_basic_factory());
  bed.start();
  bed.run_rounds(scenario::t_budget(bed.config().effective_t()),
                 honest_done(bed));

  const auto& r0 = bed.enclave_as<ErngBasicNode>(0).result();
  ASSERT_TRUE(r0.done);
  EXPECT_EQ(r0.set_size, n);  // every initiator delivered
  EXPECT_FALSE(r0.is_bottom);
  for (NodeId id = 1; id < n; ++id) {
    const auto& r = bed.enclave_as<ErngBasicNode>(id).result();
    ASSERT_TRUE(r.done) << "node " << id;
    EXPECT_EQ(r.value, r0.value) << "node " << id;
    EXPECT_EQ(r.set_size, r0.set_size);
  }
}

TEST(ErngBasic, HonestTerminatesEarlyIndependentOfT) {
  // The paper's Fig. 2b: honest-case termination is ~2 rounds, not t+2.
  const std::uint32_t n = 11;  // t = 5
  sim::Testbed bed(sim_config(n, 42));
  bed.build(erng_basic_factory());
  bed.start();
  bed.run_rounds(scenario::t_budget(bed.config().effective_t()),
                 honest_done(bed));
  for (NodeId id = 0; id < n; ++id) {
    EXPECT_LE(bed.enclave_as<ErngBasicNode>(id).result().round, 3u);
  }
}

TEST(ErngBasic, OutputIsXorOfContributions) {
  const std::uint32_t n = 5;
  sim::Testbed bed(sim_config(n, 17));
  bed.build(erng_basic_factory());
  bed.start();
  bed.run_rounds(scenario::t_budget(bed.config().effective_t()),
                 honest_done(bed));
  Bytes expected(32, 0);
  for (NodeId id = 0; id < n; ++id) {
    xor_into(expected, bed.enclave_as<ErngBasicNode>(id).own_contribution());
  }
  EXPECT_EQ(bed.enclave_as<ErngBasicNode>(0).result().value, expected);
}

TEST(ErngBasic, CrashNodesExcludedButAgreementHolds) {
  const std::uint32_t n = 9;  // t = 4
  sim::Testbed bed(sim_config(n, 5));
  bed.build(erng_basic_factory(), [](NodeId id) {
    return id >= 7 ? std::make_unique<adversary::CrashStrategy>()
                   : std::unique_ptr<adversary::Strategy>{};
  });
  bed.start();
  bed.run_rounds(scenario::t_budget(bed.config().effective_t()),
                 honest_done(bed));
  const auto& r0 = bed.enclave_as<ErngBasicNode>(0).result();
  ASSERT_TRUE(r0.done);
  EXPECT_EQ(r0.set_size, 7u);  // crashed initiators contribute ⊥
  for (NodeId id = 1; id < 7; ++id) {
    const auto& r = bed.enclave_as<ErngBasicNode>(id).result();
    ASSERT_TRUE(r.done);
    EXPECT_EQ(r.value, r0.value);
  }
}

TEST(ErngBasic, LateStartContributionIsNeglected) {
  // A4: a byzantine host withholds its node's INIT for two rounds hoping to
  // choose participation after seeing others. P5 rejects the stale rounds;
  // the honest nodes agree and the delayed node's value is excluded.
  const std::uint32_t n = 7;
  auto cfg = sim_config(n, 23);
  sim::Testbed bed(cfg);
  SimDuration two_rounds = 2 * bed.config().effective_round();
  bed.build(erng_basic_factory(), [&](NodeId id) {
    return id == 6 ? std::make_unique<adversary::DelayStrategy>(two_rounds)
                   : std::unique_ptr<adversary::Strategy>{};
  });
  bed.start();
  bed.run_rounds(scenario::t_budget(bed.config().effective_t()),
                 honest_done(bed));
  const auto& r0 = bed.enclave_as<ErngBasicNode>(0).result();
  ASSERT_TRUE(r0.done);
  EXPECT_EQ(r0.set_size, n - 1);  // node 6's instance decided ⊥ everywhere
  for (NodeId id = 1; id < 6; ++id) {
    EXPECT_EQ(bed.enclave_as<ErngBasicNode>(id).result().value, r0.value);
  }
}

TEST(ErngBasic, CiphertextSelectiveOmissionCannotSplitOrBias) {
  // A3 (content-based): the byzantine host drops blobs based on ciphertext
  // bytes. It cannot target values (P3); agreement must survive since drops
  // are content-independent omissions.
  const std::uint32_t n = 9;
  sim::Testbed bed(sim_config(n, 1001));
  bed.build(erng_basic_factory(), [&](NodeId id) {
    return id < 2
               ? std::make_unique<adversary::CiphertextSelectiveStrategy>(64)
               : std::unique_ptr<adversary::Strategy>{};
  });
  bed.start();
  bed.run_rounds(scenario::t_budget(bed.config().effective_t()),
                 honest_done(bed));
  const auto& r2 = bed.enclave_as<ErngBasicNode>(2).result();
  ASSERT_TRUE(r2.done);
  for (NodeId id = 3; id < n; ++id) {
    const auto& r = bed.enclave_as<ErngBasicNode>(id).result();
    ASSERT_TRUE(r.done);
    EXPECT_EQ(r.value, r2.value) << "node " << id;
  }
}

class ErngBasicSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ErngBasicSeeds, AgreementAcrossSeeds) {
  const std::uint32_t n = 6;
  sim::Testbed bed(sim_config(n, GetParam()));
  bed.build(erng_basic_factory());
  bed.start();
  bed.run_rounds(scenario::t_budget(bed.config().effective_t()),
                 honest_done(bed));
  const auto& r0 = bed.enclave_as<ErngBasicNode>(0).result();
  for (NodeId id = 1; id < n; ++id) {
    EXPECT_EQ(bed.enclave_as<ErngBasicNode>(id).result().value, r0.value);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ErngBasicSeeds,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// Unbiasedness: across many executions with an active omission adversary,
// the low bit of the output should be fair. (Statistical smoke test — the
// formal claim is Theorem 5.1.)
TEST(ErngBasic, OutputBitBalanceUnderAdversary) {
  int ones = 0;
  const int kTrials = 40;
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::uint32_t n = 5;
    sim::Testbed bed(sim_config(n, 9000 + trial));
    bed.build(erng_basic_factory(), [&](NodeId id) {
      return id == 4 ? std::make_unique<adversary::RandomOmissionStrategy>(
                           0.5, 0.0)
                     : std::unique_ptr<adversary::Strategy>{};
    });
    bed.start();
    bed.run_rounds(scenario::t_budget(bed.config().effective_t()),
                   honest_done(bed));
    const auto& r = bed.enclave_as<ErngBasicNode>(0).result();
    ASSERT_TRUE(r.done);
    ASSERT_FALSE(r.is_bottom);
    ones += r.value[0] & 1;
  }
  // Binomial(40, 1/2): outside [8, 32] has probability < 1e-4.
  EXPECT_GE(ones, 8);
  EXPECT_LE(ones, 32);
}

// --- Optimized ERNG ---

TEST(ErngOpt, SmallNetworkFallbackAgrees) {
  const std::uint32_t n = 12;
  auto cfg = sim_config(n, 3);
  cfg.t = 4;  // t ≤ N/3 required by the optimized variant
  sim::Testbed bed(cfg);
  bed.build(erng_opt_factory());
  bed.start();
  bed.run_rounds(40, honest_done(bed));

  const auto& r0 = bed.enclave_as<ErngOptNode>(0).result();
  ASSERT_TRUE(r0.done);
  EXPECT_FALSE(r0.is_bottom);
  EXPECT_GE(r0.set_size, 1u);
  for (NodeId id = 1; id < n; ++id) {
    const auto& r = bed.enclave_as<ErngOptNode>(id).result();
    ASSERT_TRUE(r.done) << "node " << id;
    EXPECT_EQ(r.value, r0.value) << "node " << id;
  }
  // Fallback cluster = ⌈2N/3⌉ = 8 nodes.
  EXPECT_EQ(r0.cluster_size, 8u);
}

TEST(ErngOpt, LargeNetworkSampledClusterAgrees) {
  const std::uint32_t n = 80;
  auto cfg = sim_config(n, 7);
  cfg.t = 26;  // ≈ N/3
  protocol::ErngOptParams params;
  params.gamma = 5;  // N/(2γ) = 8 → E[cluster] = 10
  sim::Testbed bed(cfg);
  bed.build(erng_opt_factory(params));
  bed.start();
  bed.run_rounds(40, honest_done(bed));

  const auto& r0 = bed.enclave_as<ErngOptNode>(0).result();
  ASSERT_TRUE(r0.done);
  EXPECT_FALSE(r0.is_bottom) << "no cluster initiator delivered";
  for (NodeId id = 1; id < n; ++id) {
    const auto& r = bed.enclave_as<ErngOptNode>(id).result();
    ASSERT_TRUE(r.done) << "node " << id;
    EXPECT_EQ(r.value, r0.value) << "node " << id;
  }
  // Every node observed the same cluster.
  for (NodeId id = 1; id < n; ++id) {
    EXPECT_EQ(bed.enclave_as<ErngOptNode>(id).result().cluster_size,
              r0.cluster_size);
  }
}

TEST(ErngOpt, ClusterSizeConcentrates) {
  // Lemma F.1-flavored check: over seeds, the sampled cluster lands within a
  // wide band around E = 2γ, and never empties.
  const std::uint32_t n = 128;
  protocol::ErngOptParams params;
  params.gamma = 8;  // E[cluster] = 16
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    auto cfg = sim_config(n, seed);
    cfg.t = 42;
    // Honest-only statistical sweep: accounted links keep it fast.
    cfg.mode = protocol::ChannelMode::kAccounted;
    sim::Testbed bed(cfg);
    bed.build(erng_opt_factory(params));
    bed.start();
    bed.run_rounds(40, honest_done(bed));
    std::size_t cluster = bed.enclave_as<ErngOptNode>(0).result().cluster_size;
    EXPECT_GE(cluster, 4u) << "seed " << seed;
    EXPECT_LE(cluster, 40u) << "seed " << seed;
  }
}

TEST(ErngOpt, ByzantineClusterMinorityCannotBreakAgreement) {
  // Byzantine nodes inside the fallback cluster crash mid-protocol; honest
  // majority of the cluster still produces ≥ threshold identical FINAL sets.
  const std::uint32_t n = 12;
  auto cfg = sim_config(n, 13);
  cfg.t = 3;
  sim::Testbed bed(cfg);
  bed.build(erng_opt_factory(), [](NodeId id) {
    return (id == 1 || id == 3)
               ? std::make_unique<adversary::RandomOmissionStrategy>(0.7, 0.7)
               : std::unique_ptr<adversary::Strategy>{};
  });
  bed.start();
  bed.run_rounds(40, honest_done(bed));
  std::map<Bytes, int> outputs;
  for (NodeId id : bed.honest_nodes()) {
    const auto& r = bed.enclave_as<ErngOptNode>(id).result();
    if (r.done && !r.is_bottom) ++outputs[r.value];
  }
  // All non-⊥ outputs must be identical.
  EXPECT_LE(outputs.size(), 1u);
}

TEST(ErngOpt, RoundComplexityIsClusterBound) {
  // Total rounds ≈ t_c + 4 where t_c = ⌊(cluster−1)/2⌋ — much less than the
  // network-wide t+2 of the basic variant for large N.
  const std::uint32_t n = 96;
  auto cfg = sim_config(n, 55);
  cfg.t = 31;
  protocol::ErngOptParams params;
  params.gamma = 6;
  sim::Testbed bed(cfg);
  bed.build(erng_opt_factory(params));
  bed.start();
  bed.run_rounds(40, honest_done(bed));
  const auto& r0 = bed.enclave_as<ErngOptNode>(0).result();
  ASSERT_TRUE(r0.done);
  std::uint32_t t_c = (static_cast<std::uint32_t>(r0.cluster_size) - 1) / 2;
  EXPECT_LE(r0.round, t_c + 5);
  EXPECT_LT(r0.round, cfg.t + 2);  // beats basic ERNG's deadline
}

}  // namespace
}  // namespace sgxp2p
