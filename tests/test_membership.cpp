// Membership (Appendix G S1) and sparse-topology flooding (S5) tests.
#include <gtest/gtest.h>

#include "protocol/flood.hpp"
#include "protocol/membership.hpp"
#include "scenario/scenario.hpp"

namespace sgxp2p {
namespace {

using protocol::FloodNode;
using protocol::JoinPlanEntry;
using protocol::RosterNode;
using scenario::sim_config;

sim::Testbed::EnclaveFactory roster_factory(std::vector<NodeId> initial,
                                            std::vector<JoinPlanEntry> plan) {
  return [initial, plan](NodeId id, sgx::SgxPlatform& platform,
                         net::Host& host, protocol::PeerConfig cfg,
                         const sgx::SimIAS& ias)
             -> std::unique_ptr<protocol::PeerEnclave> {
    return std::make_unique<RosterNode>(platform, id, host, cfg, ias, initial,
                                        plan);
  };
}

TEST(Membership, SingleJoinConverges) {
  // Nodes 0–4 form the roster; node 5 joins via sponsor 0.
  const std::uint32_t n = 6;
  std::vector<NodeId> initial = {0, 1, 2, 3, 4};
  std::vector<JoinPlanEntry> plan = {{5, 0}};
  sim::Testbed bed(sim_config(n, 21));
  bed.build(roster_factory(initial, plan));
  bed.start();
  std::uint32_t window = bed.config().effective_t() + 2;
  bed.run_rounds(2 * window + 1);

  std::vector<NodeId> expect = {0, 1, 2, 3, 4, 5};
  for (NodeId id = 0; id < n; ++id) {
    auto& node = bed.enclave_as<RosterNode>(id);
    EXPECT_EQ(node.roster(), expect) << "node " << id;
    EXPECT_TRUE(node.is_member()) << "node " << id;
  }
  EXPECT_EQ(bed.enclave_as<RosterNode>(0).admitted(),
            std::vector<NodeId>{5});
}

TEST(Membership, SequentialJoinsGrowTheRoster) {
  // 5, then 6 (sponsored by a different member), then 7 — the later joins
  // run their ERB over the grown roster, including the earlier joiners.
  const std::uint32_t n = 8;
  std::vector<NodeId> initial = {0, 1, 2, 3, 4};
  std::vector<JoinPlanEntry> plan = {{5, 0}, {6, 2}, {7, 1}};
  sim::Testbed bed(sim_config(n, 22));
  bed.build(roster_factory(initial, plan));
  bed.start();
  std::uint32_t window = bed.config().effective_t() + 2;
  bed.run_rounds(4 * window + 1);

  std::vector<NodeId> expect = {0, 1, 2, 3, 4, 5, 6, 7};
  for (NodeId id = 0; id < n; ++id) {
    auto& node = bed.enclave_as<RosterNode>(id);
    EXPECT_EQ(node.roster(), expect) << "node " << id;
    EXPECT_TRUE(node.is_member()) << "node " << id;
  }
  // Admission order is the plan order at every member.
  EXPECT_EQ(bed.enclave_as<RosterNode>(3).admitted(),
            (std::vector<NodeId>{5, 6, 7}));
}

TEST(Membership, CrashedSponsorFailsJoinConsistently) {
  // The sponsor crashes; the join must fail at EVERY member identically
  // (no roster split), and a later window with a live sponsor succeeds.
  const std::uint32_t n = 7;
  std::vector<NodeId> initial = {0, 1, 2, 3, 4};
  std::vector<JoinPlanEntry> plan = {{5, 1}, {6, 2}};
  sim::Testbed bed(sim_config(n, 23));
  bed.build(roster_factory(initial, plan),
            [](NodeId id) -> std::unique_ptr<adversary::Strategy> {
              if (id == 1) return std::make_unique<adversary::CrashStrategy>();
              return nullptr;
            });
  bed.start();
  std::uint32_t window = bed.config().effective_t() + 2;
  bed.run_rounds(3 * window + 1);

  // Node 5's join (sponsor 1, crashed) failed; node 6's succeeded.
  std::vector<NodeId> expect = {0, 1, 2, 3, 4, 6};
  for (NodeId id : {0u, 2u, 3u, 4u}) {
    auto& node = bed.enclave_as<RosterNode>(id);
    EXPECT_EQ(node.roster(), expect) << "node " << id;
  }
  EXPECT_FALSE(bed.enclave_as<RosterNode>(5).is_member());
  EXPECT_TRUE(bed.enclave_as<RosterNode>(6).is_member());
  EXPECT_EQ(bed.enclave_as<RosterNode>(6).roster(), expect);
}

// ---------- flooding over a sparse overlay ----------

struct FloodBed {
  apps::Overlay overlay;
  sim::PlainBed bed;

  FloodBed(std::uint32_t n, std::uint32_t chords, std::uint64_t seed)
      : overlay(n, chords), bed(n, net_cfg(seed)) {
    bed.build([&](NodeId id) {
      return std::make_unique<FloodNode>(id, n, overlay, id == 0,
                                         id == 0 ? to_bytes("flood!") : Bytes{});
    });
  }

  static sim::NetworkConfig net_cfg(std::uint64_t seed) {
    sim::NetworkConfig cfg = scenario::network(scenario::kTestDelta);
    cfg.seed = seed;
    return cfg;
  }
};

TEST(Flood, ReachesEveryoneWithinEccentricityRounds) {
  const std::uint32_t n = 64;
  FloodBed fx(n, 5, 3);
  std::uint32_t ecc = fx.overlay.eccentricity(0);
  fx.bed.start();
  fx.bed.run_rounds(ecc + 2);
  for (NodeId id = 0; id < n; ++id) {
    const auto& r = fx.bed.node_as<FloodNode>(id).result();
    ASSERT_TRUE(r.received) << "node " << id;
    EXPECT_LE(r.round, ecc + 1) << "node " << id;
  }
}

TEST(Flood, SparseCostBeatsMeshAtScale) {
  const std::uint32_t n = 128;
  FloodBed fx(n, 6, 4);
  fx.bed.start();
  fx.bed.run_rounds(fx.overlay.eccentricity(0) + 2);
  std::uint64_t flood_msgs = fx.bed.network().meter().messages();
  // Each node relays once to its ~2(chords+1) neighbors: O(N·deg) — far
  // below the N·(N−1) a full-mesh multicast costs per round of flooding.
  EXPECT_LT(flood_msgs, static_cast<std::uint64_t>(n) * 16);
  EXPECT_GT(flood_msgs, static_cast<std::uint64_t>(n));
}

TEST(Flood, HopCountsAreShortestPathLike) {
  const std::uint32_t n = 32;
  FloodBed fx(n, 4, 9);
  fx.bed.start();
  fx.bed.run_rounds(fx.overlay.eccentricity(0) + 2);
  // A neighbor of the origin hears it with hop count 1.
  NodeId neighbor = fx.overlay.neighbors(0).front();
  EXPECT_EQ(fx.bed.node_as<FloodNode>(neighbor).result().hops, 1u);
}

}  // namespace
}  // namespace sgxp2p
