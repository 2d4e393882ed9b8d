// Sharded epoch overlay (src/shard/): deterministic bias-resistant
// committee election, committee-local ERB with CONFIRM-gated digests, tree
// dissemination, and the coordinator's end-to-end agreement/validity
// oracles — including the adversarial case the design argument hinges on
// (byzantine hosts concentrated inside one committee, its reps included).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "adversary/strategies.hpp"
#include "common/serde.hpp"
#include "net/testbed.hpp"
#include "obs/metrics.hpp"
#include "shard/coordinator.hpp"
#include "shard/election.hpp"

namespace sgxp2p::shard {
namespace {

Bytes seed_bytes(std::uint64_t x) {
  BinaryWriter w;
  w.str("test-shard-seed");
  w.u64(x);
  return w.take();
}

// ----- election ----------------------------------------------------------

TEST(ShardElection, PartitionsEveryNodeExactlyOnce) {
  const Bytes seed = seed_bytes(7);
  for (std::uint32_t n : {5u, 24u, 100u, 1000u}) {
    Election e = Election::compute(n, 0, 3, ByteView(seed), 1);
    const std::uint32_t c = e.committee_size();
    EXPECT_EQ(c, auto_committee_size(n));
    std::set<NodeId> seen;
    for (std::uint32_t k = 0; k < e.committees().size(); ++k) {
      const CommitteeInfo& ci = e.committees()[k];
      EXPECT_TRUE(std::is_sorted(ci.members.begin(), ci.members.end()));
      EXPECT_EQ(ci.t_c, (ci.members.size() - 1) / 2);
      EXPECT_EQ(ci.m_init, ci.t_c + 1);
      // All committees carry exactly c members except the last, which
      // absorbs the remainder (size in [c, 2c − 1]).
      if (e.committees().size() > 1) {
        if (k + 1 < e.committees().size()) {
          EXPECT_EQ(ci.members.size(), c);
        } else {
          EXPECT_GE(ci.members.size(), c);
          EXPECT_LT(ci.members.size(), 2 * c);
        }
      }
      for (NodeId id : ci.members) {
        EXPECT_TRUE(seen.insert(id).second) << "node in two committees";
        EXPECT_EQ(e.committee_of(id), k);
      }
    }
    EXPECT_EQ(seen.size(), n);
  }
}

TEST(ShardElection, TreeShapeAndSubtreeCounts) {
  const Bytes seed = seed_bytes(9);
  Election e = Election::compute(2000, 0, 1, ByteView(seed), 1);
  const auto& cs = e.committees();
  ASSERT_GT(cs.size(), kTreeFanout);  // multi-level tree
  EXPECT_EQ(cs[0].parent, kNoCommittee);
  EXPECT_EQ(cs[0].subtree_count, cs.size());  // root covers everyone
  for (std::uint32_t k = 1; k < cs.size(); ++k) {
    const std::uint32_t p = (k - 1) / kTreeFanout;
    EXPECT_EQ(cs[k].parent, p);
    const auto& kids = cs[p].children;
    EXPECT_NE(std::find(kids.begin(), kids.end(), k), kids.end());
    EXPECT_LE(cs[p].children.size(), kTreeFanout);
  }
  for (const CommitteeInfo& ci : cs) {
    std::uint64_t sum = 1;
    for (std::uint32_t kid : ci.children) sum += cs[kid].subtree_count;
    EXPECT_EQ(ci.subtree_count, sum);
  }
}

TEST(ShardElection, SameSeedIsByteIdenticalDifferentSeedIsNot) {
  const Bytes seed = seed_bytes(11);
  Election a = Election::compute(500, 0, 4, ByteView(seed), 9);
  Election b = Election::compute(500, 0, 4, ByteView(seed), 9);
  ASSERT_EQ(a.committees().size(), b.committees().size());
  for (std::size_t k = 0; k < a.committees().size(); ++k) {
    EXPECT_EQ(a.committees()[k].members, b.committees()[k].members);
    EXPECT_EQ(a.committees()[k].start_round, b.committees()[k].start_round);
  }
  // A different seed — and a different epoch under the same seed — must
  // both reshuffle (the permutation is keyed on H(tag ‖ seed ‖ epoch)).
  const Bytes other = seed_bytes(12);
  Election c = Election::compute(500, 0, 4, ByteView(other), 9);
  Election d = Election::compute(500, 0, 5, ByteView(seed), 9);
  bool differs_seed = false;
  bool differs_epoch = false;
  for (std::size_t k = 0; k < a.committees().size(); ++k) {
    differs_seed |= a.committees()[k].members != c.committees()[k].members;
    differs_epoch |= a.committees()[k].members != d.committees()[k].members;
  }
  EXPECT_TRUE(differs_seed);
  EXPECT_TRUE(differs_epoch);
}

// Bias sanity: over many independent seeds, a fixed node's committee index
// is uniform. 8 committees, 2000 seeds → expected 250 per cell; χ² with
// 7 degrees of freedom stays far below 40 (p < 10⁻⁵) unless the
// permutation is skewed. Deterministic: the seed list is fixed.
TEST(ShardElection, CommitteeAssignmentIsUnbiasedChiSquared) {
  const std::uint32_t n = 40;
  const std::uint32_t c = 5;
  const std::uint32_t kCells = n / c;  // 8 committees
  const std::uint32_t kTrials = 2000;
  std::vector<std::uint32_t> counts(kCells, 0);
  for (std::uint32_t i = 0; i < kTrials; ++i) {
    const Bytes seed = seed_bytes(1000 + i);
    Election e = Election::compute(n, c, 0, ByteView(seed), 1);
    ASSERT_EQ(e.committees().size(), kCells);
    ++counts[e.committee_of(0)];
  }
  const double expected = static_cast<double>(kTrials) / kCells;
  double chi2 = 0;
  for (std::uint32_t cell : counts) {
    const double d = static_cast<double>(cell) - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 40.0) << "assignment of node 0 is biased";
}

// ----- full epochs over the testbed --------------------------------------

sim::TestbedConfig shard_cfg(std::uint32_t n, std::uint64_t seed) {
  sim::TestbedConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.t = 1;  // ShardNode budgets per committee (t_c), not via PeerConfig
  cfg.net.base_delay = milliseconds(100);
  cfg.net.max_jitter = milliseconds(100);
  return cfg;
}

TEST(ShardEpochs, ChainedEpochsDecideAndReseed) {
  obs::MetricsRegistry reg;
  obs::MetricsRegistry::ScopedCurrent bind(reg);
  sim::Testbed bed(shard_cfg(24, 5));
  bed.build(ShardCoordinator::make_factory());
  bed.start();

  ShardConfig cfg;
  cfg.committee_size = 6;
  cfg.epochs = 3;
  ShardCoordinator coord(bed, cfg);
  std::vector<EpochSummary> epochs = coord.run_all();

  ASSERT_EQ(epochs.size(), 3u);
  EXPECT_TRUE(coord.all_ok());
  for (const EpochSummary& e : epochs) {
    EXPECT_TRUE(e.termination);
    EXPECT_TRUE(e.agreement);
    EXPECT_TRUE(e.validity);
    EXPECT_EQ(e.decided, e.honest);
    EXPECT_LE(e.rounds_used, e.budget_rounds);
    ASSERT_FALSE(e.global_digest.empty());
  }
  // Distinct digests per epoch, and the beacon chain hands epoch e's digest
  // to epoch e+1's election.
  EXPECT_NE(epochs[0].global_digest, epochs[1].global_digest);
  EXPECT_NE(epochs[1].global_digest, epochs[2].global_digest);
  EXPECT_EQ(coord.next_seed(), epochs[2].global_digest);
  EXPECT_EQ(reg.counter("shard.epochs").value(), 3u);
  EXPECT_GE(reg.counter("shard.decides").value(), 3u * 24u);
}

// The epoch digests are pinned as committed hex constants and must repeat
// byte-identically in a second same-seed run: the digest hashes every
// committee's accepted values, so it transitively pins the election, ERB
// scheduling, CONFIRM gating, and the dissemination tree.
TEST(ShardEpochs, WheelAndHeapEnginesAgreeByteIdentically) {
  auto run = []() {
    obs::MetricsRegistry reg;
    obs::MetricsRegistry::ScopedCurrent bind(reg);
    sim::Testbed bed(shard_cfg(30, 9));
    bed.build(ShardCoordinator::make_factory());
    bed.start();
    ShardConfig scfg;
    scfg.epochs = 2;
    ShardCoordinator coord(bed, scfg);
    coord.run_all();
    EXPECT_TRUE(coord.all_ok());
    std::vector<Bytes> digests;
    for (const EpochSummary& e : coord.summaries()) {
      digests.push_back(e.global_digest);
    }
    return digests;
  };
  std::vector<Bytes> first = run();
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(hex_encode(first[0]),
            "8626596faf5fa2b14fae9523a5f1b8bf31db082def640c6c1b14f108acd7a259");
  EXPECT_EQ(hex_encode(first[1]),
            "6be3c3ef37cb44a4c42a2c7621e60df61e996d01cf92cb71636e20ba044b2ddc");
  EXPECT_EQ(run(), first);
}

// The t-budget argument end to end: up to t_c byzantine hosts land inside
// ONE committee — including that committee's reps, the nodes that CONFIRM,
// RECORD, and forward GLOBAL. Omission there starves neither the committee
// ERB (≥ sz − t_c honest echoes remain) nor dissemination (t_c + 1 reps, so
// one honest rep always survives), and global agreement/validity hold.
TEST(ShardEpochs, ByzantineCommitteeRepsCannotBreakAgreement) {
  const std::uint32_t n = 20;
  const std::uint32_t csize = 5;
  const Bytes genesis = seed_bytes(77);

  // The election is a pure function of public inputs, so the test computes
  // the epoch-0 assignment up front and plants the byzantine hosts on the
  // first t_c members of committee 0 — exactly its lowest-id reps.
  Election e0 = Election::compute(n, csize, 0, ByteView(genesis), 1);
  const CommitteeInfo& target = e0.committees()[0];
  const std::uint32_t t_c = target.t_c;
  ASSERT_GE(t_c, 2u);
  std::vector<NodeId> byz(target.members.begin(),
                          target.members.begin() + t_c);

  obs::MetricsRegistry reg;
  obs::MetricsRegistry::ScopedCurrent bind(reg);
  sim::TestbedConfig cfg = shard_cfg(n, 13);
  cfg.t = t_c;
  sim::Testbed bed(cfg);
  bed.build(ShardCoordinator::make_factory(),
            [&byz](NodeId id) -> std::unique_ptr<adversary::Strategy> {
              if (std::find(byz.begin(), byz.end(), id) != byz.end()) {
                return std::make_unique<adversary::RandomOmissionStrategy>(
                    0.5, 0.3);
              }
              return nullptr;
            });
  bed.start();

  ShardConfig scfg;
  scfg.committee_size = csize;
  scfg.epochs = 2;
  scfg.genesis_seed = genesis;
  ShardCoordinator coord(bed, scfg);
  std::vector<EpochSummary> epochs = coord.run_all();

  ASSERT_EQ(epochs.size(), 2u);
  for (const EpochSummary& e : epochs) {
    EXPECT_TRUE(e.termination) << "epoch " << e.epoch;
    EXPECT_TRUE(e.agreement) << "epoch " << e.epoch;
    EXPECT_TRUE(e.validity) << "epoch " << e.epoch;
    EXPECT_EQ(e.honest, n - byz.size());
    ASSERT_FALSE(e.global_digest.empty());
  }
}

// Satellite: a sharded deployment must not allocate O(n²) network state.
// With sparse setup (no pre-wired clique) the per-pair FIFO slots grow with
// the pairs that actually talk — committee-mates plus tree reps, O(n·c) —
// and the capacity gauges expose that for the bench baselines.
TEST(ShardEpochs, SparseSetupKeepsNetworkStateProportional) {
  const std::uint32_t n = 256;
  obs::MetricsRegistry reg;
  obs::MetricsRegistry::ScopedCurrent bind(reg);
  sim::TestbedConfig cfg = shard_cfg(n, 3);
  cfg.mode = protocol::ChannelMode::kAccounted;
  cfg.setup_peers = [](NodeId) { return std::vector<NodeId>{}; };
  sim::Testbed bed(cfg);
  bed.build(ShardCoordinator::make_factory());
  bed.start();
  ShardConfig scfg;
  scfg.committee_size = 8;  // reps stay under the dense-promotion threshold
  scfg.epochs = 1;
  ShardCoordinator coord(bed, scfg);
  coord.run_all();
  EXPECT_TRUE(coord.all_ok());

  bed.network().publish_capacity_gauges();
  const std::size_t pair_slots = bed.network().fifo_pair_slots();
  EXPECT_GT(pair_slots, 0u);
  EXPECT_LE(pair_slots, static_cast<std::size_t>(64) * n)
      << "FIFO state grew superlinearly";
  EXPECT_LT(pair_slots, static_cast<std::size_t>(n) * n / 4);
  EXPECT_EQ(reg.gauge("net.fifo_pair_slots").value(),
            static_cast<std::int64_t>(pair_slots));
  EXPECT_EQ(reg.gauge("net.sink_slots").value(),
            static_cast<std::int64_t>(bed.network().sink_slots()));
}

}  // namespace
}  // namespace sgxp2p::shard
