// Property-based sweeps: the paper's theorem statements checked over a grid
// of network sizes, byzantine loads, and seeds (parameterized gtest).
//
//   Theorem 4.1 (ERB is reliable broadcast): validity, agreement, integrity,
//   termination — plus the early-stopping bound min{f+2, t+2} and the O(N²)
//   traffic envelope.
//   Determinism: identical seeds replay identical executions bit-for-bit.
//   Channel-mode equivalence: accounted links carry the same protocol.
#include <gtest/gtest.h>

#include <tuple>

#include "scenario/scenario.hpp"

namespace sgxp2p {
namespace {

using protocol::ErbNode;
using protocol::ErngBasicNode;
using scenario::erb_factory;
using scenario::erng_basic_factory;
using scenario::honest_done;
using scenario::sim_config;

// ---------- ERB grid: (n, f, seed) with the chain adversary ----------

using ErbGridParam = std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>;

class ErbGrid : public ::testing::TestWithParam<ErbGridParam> {};

TEST_P(ErbGrid, ReliableBroadcastProperties) {
  const auto [n, f, seed] = GetParam();
  if (f >= (n - 1) / 2) {
    GTEST_SKIP() << "infeasible combination: f must stay below t";
  }

  sim::Testbed bed(sim_config(n, seed));
  Bytes payload = to_bytes("grid");
  bed.build(erb_factory(0, payload), scenario::chain(f));
  bed.start();
  const std::uint32_t t = bed.config().effective_t();
  bed.run_rounds(scenario::t_budget(t), honest_done(bed));

  std::optional<Bytes> agreed;
  bool agreed_set = false;
  std::uint32_t max_round = 0;
  for (NodeId id : bed.honest_nodes()) {
    const auto& r = bed.enclave_as<ErbNode>(id).result();
    // Termination: every honest node decided.
    ASSERT_TRUE(r.decided) << "node " << id;
    // Agreement: all equal.
    if (!agreed_set) {
      agreed = r.value;
      agreed_set = true;
    } else {
      EXPECT_EQ(r.value, agreed) << "node " << id;
    }
    max_round = std::max(max_round, r.round);
  }
  // Validity: with f = 0 the initiator is honest — everyone holds payload.
  if (f == 0) {
    ASSERT_TRUE(agreed.has_value());
    EXPECT_EQ(*agreed, payload);
    EXPECT_LE(max_round, 2u);
  }
  // Integrity: the decided value, when present, is the initiator's m.
  if (agreed.has_value()) {
    EXPECT_EQ(*agreed, payload);
  }
  // Early stopping: min{f+2, t+2}.
  EXPECT_LE(max_round, std::min(f + 2, t + 2));
  // Traffic envelope: < 3·N² messages for every grid point.
  EXPECT_LT(bed.network().meter().messages(), 3ull * n * n);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ErbGrid,
    ::testing::Combine(::testing::Values(7u, 11u, 15u),
                       ::testing::Values(0u, 1u, 2u, 4u),
                       ::testing::Values(1u, 7u)),
    [](const ::testing::TestParamInfo<ErbGridParam>& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_f" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

// ---------- determinism ----------

struct Fingerprint {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::vector<std::uint32_t> rounds;
  std::vector<Bytes> values;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

Fingerprint run_fingerprint(std::uint64_t seed) {
  sim::Testbed bed(sim_config(9, seed));
  bed.build(erng_basic_factory(), [](NodeId id)
                                      -> std::unique_ptr<adversary::Strategy> {
    if (id >= 7) {
      return std::make_unique<adversary::RandomOmissionStrategy>(0.4, 0.2);
    }
    return nullptr;
  });
  bed.start();
  bed.run_rounds(scenario::t_budget(bed.config().effective_t()));
  Fingerprint fp;
  fp.messages = bed.network().meter().messages();
  fp.bytes = bed.network().meter().bytes();
  for (NodeId id : bed.honest_nodes()) {
    const auto& r = bed.enclave_as<ErngBasicNode>(id).result();
    fp.rounds.push_back(r.round);
    fp.values.push_back(r.value);
  }
  return fp;
}

TEST(Determinism, SameSeedSameExecution) {
  EXPECT_EQ(run_fingerprint(123), run_fingerprint(123));
}

TEST(Determinism, DifferentSeedsDiffer) {
  EXPECT_NE(run_fingerprint(123).values, run_fingerprint(124).values);
}

// ---------- channel-mode equivalence ----------

TEST(ChannelMode, AccountedMatchesAttestedShape) {
  // Honest ERB at the same seed in both channel modes: identical message
  // counts, identical wire bytes (the accounted mode pads the AEAD
  // overhead), identical decisions.
  auto run = [](protocol::ChannelMode mode) {
    auto cfg = sim_config(9, 55);
    cfg.mode = mode;
    sim::Testbed bed(cfg);
    bed.build(erb_factory(2, to_bytes("equivalence")));
    bed.start();
    bed.run_rounds(6, honest_done(bed));
    std::vector<std::uint32_t> rounds;
    for (NodeId id = 0; id < 9; ++id) {
      rounds.push_back(bed.enclave_as<ErbNode>(id).result().round);
    }
    return std::tuple(bed.network().meter().messages(),
                      bed.network().meter().bytes(), rounds);
  };
  auto attested = run(protocol::ChannelMode::kAttested);
  auto accounted = run(protocol::ChannelMode::kAccounted);
  EXPECT_EQ(std::get<0>(attested), std::get<0>(accounted));
  EXPECT_EQ(std::get<1>(attested), std::get<1>(accounted));
  EXPECT_EQ(std::get<2>(attested), std::get<2>(accounted));
}

// ---------- ERNG agreement under omission-rate sweep ----------

class ErngOmissionSweep : public ::testing::TestWithParam<int> {};

TEST_P(ErngOmissionSweep, AgreementHolds) {
  const double drop = GetParam() / 100.0;
  sim::Testbed bed(sim_config(7, 300 + GetParam()));
  bed.build(erng_basic_factory(),
            [&](NodeId id) -> std::unique_ptr<adversary::Strategy> {
              if (id >= 5) {
                return std::make_unique<adversary::RandomOmissionStrategy>(
                    drop, drop / 2);
              }
              return nullptr;
            });
  bed.start();
  bed.run_rounds(scenario::t_budget(bed.config().effective_t()));
  const auto& r0 = bed.enclave_as<ErngBasicNode>(0).result();
  ASSERT_TRUE(r0.done);
  for (NodeId id : bed.honest_nodes()) {
    const auto& r = bed.enclave_as<ErngBasicNode>(id).result();
    ASSERT_TRUE(r.done) << "node " << id;
    EXPECT_EQ(r.value, r0.value) << "node " << id;
    EXPECT_EQ(r.set_size, r0.set_size) << "node " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(DropRates, ErngOmissionSweep,
                         ::testing::Values(0, 10, 25, 50, 75, 100));

}  // namespace
}  // namespace sgxp2p
