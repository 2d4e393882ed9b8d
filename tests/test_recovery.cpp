// Crash-recovery subsystem tests (src/recovery/): sealed checkpoints with
// monotonic-counter rollback protection, the scripted crash → relaunch →
// re-attest → rejoin episode on the simulator, and the same injection
// points over real sockets. The simulator scenarios are the executable
// acceptance criteria: both restore paths (honest host vs. stale-seal
// replay) must converge, and two same-seed runs must be byte-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "scenario/scenario.hpp"

namespace sgxp2p {
namespace {

using recovery::RecoverableNode;
using recovery::RestoreOutcome;

// ---------------------------------------------------------------------------
// Full scenario driver, mirroring `sgxp2p-sim --protocol recovery`: N initial
// members, node 1 crashes and recovers, node N joins fresh afterwards (the
// post-recovery liveness proof — its join runs a complete ERB instance).
// ---------------------------------------------------------------------------

struct ScenarioOptions {
  std::uint32_t n = 4;  // initial members; node `n` joins fresh at the end
  std::uint64_t seed = 1;
  std::uint32_t crash_at = 6;
  std::uint32_t recover_after = 4;
  std::uint32_t checkpoint_every = 2;
  bool stale_replay = false;
};

struct ScenarioResult {
  std::uint32_t rounds = 0;
  std::uint32_t rejoin_round = 0;
  RestoreOutcome outcome = RestoreOutcome::kInvalid;
  bool fallback = false;
  bool rejoined = false;
  bool converged = false;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::vector<Bytes> victim_seals;        // full sealed history, in order
  std::vector<std::vector<NodeId>> rosters;  // per node, post-run
  std::vector<std::uint64_t> seqs;           // per node my_seq, post-run
};

ScenarioResult run_scenario(const ScenarioOptions& o) {
  const NodeId victim = 1;
  auto cfg = scenario::sim_config(o.n + 1, o.seed);
  cfg.t = (o.n - 1) / 2;  // tolerance sized to the initial membership
  sim::Testbed bed(cfg);
  scenario::Recovery rec(
      bed, victim, o.crash_at, o.crash_at + o.recover_after,
      o.checkpoint_every,
      [&](NodeId id) -> std::unique_ptr<adversary::Strategy> {
        if (o.stale_replay && id == victim) {
          return std::make_unique<adversary::StaleSealReplayStrategy>();
        }
        return nullptr;
      });
  const recovery::RecoveryCoordinator& coord = rec.coordinator();
  bed.start();

  ScenarioResult r;
  r.rounds = bed.run_rounds(rec.windows().budget(),
                            [&]() { return rec.converged(); });
  r.rejoin_round = coord.rejoin_round();
  r.outcome = coord.restore_outcome();
  r.fallback = coord.used_fresh_fallback();
  r.rejoined = coord.rejoin_complete();
  r.converged = rec.converged();
  r.messages = bed.network().meter().messages();
  r.bytes = bed.network().meter().bytes();
  r.victim_seals = coord.store(victim).history();
  for (NodeId id = 0; id < cfg.n; ++id) {
    auto& node = bed.enclave_as<RecoverableNode>(id);
    r.rosters.push_back(node.roster());
    r.seqs.push_back(node.my_seq());
  }
  return r;
}

// Honest host: the newest sealed checkpoint passes the monotonic-counter
// check, the victim rejoins with restored state, and the post-recovery
// fresh join converges on every node.
TEST(Recovery, HonestHostRestoresLatestCheckpoint) {
  auto& m = recovery::RecoveryMetrics::get();
  const std::uint64_t rollbacks0 = m.rollback_detected->value();
  const std::uint64_t restores0 = m.restores_ok->value();

  ScenarioResult r = run_scenario({});
  EXPECT_EQ(r.outcome, RestoreOutcome::kRestored);
  EXPECT_FALSE(r.fallback);
  EXPECT_TRUE(r.rejoined);
  EXPECT_TRUE(r.converged);
  // Two checkpoints sealed before the crash (rounds 2 and 4), more after.
  EXPECT_GE(r.victim_seals.size(), 2u);
  EXPECT_EQ(m.rollback_detected->value(), rollbacks0);
  EXPECT_EQ(m.restores_ok->value(), restores0 + 1);
  // Everyone — including the rejoined victim and the fresh joiner — ends on
  // the same roster.
  for (const auto& roster : r.rosters) EXPECT_EQ(roster, r.rosters.front());
}

// Byzantine host replays the oldest sealed blob: the embedded counter no
// longer matches the platform counter, the rollback is detected, and the
// victim is re-admitted through the fresh-joiner path instead.
TEST(Recovery, StaleSealReplayDetectedAndConvergesFresh) {
  auto& m = recovery::RecoveryMetrics::get();
  const std::uint64_t rollbacks0 = m.rollback_detected->value();
  const std::uint64_t fallbacks0 = m.fresh_fallbacks->value();

  ScenarioOptions o;
  o.stale_replay = true;
  ScenarioResult r = run_scenario(o);
  EXPECT_EQ(r.outcome, RestoreOutcome::kStale);
  EXPECT_TRUE(r.fallback);
  EXPECT_TRUE(r.rejoined);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(m.rollback_detected->value(), rollbacks0 + 1);
  EXPECT_EQ(m.fresh_fallbacks->value(), fallbacks0 + 1);
  for (const auto& roster : r.rosters) EXPECT_EQ(roster, r.rosters.front());
}

// Crash before the first checkpoint interval elapses: the store is empty,
// there is nothing to restore, and recovery degrades to a fresh join.
TEST(Recovery, CrashBeforeFirstCheckpointFallsBackFresh) {
  ScenarioOptions o;
  o.crash_at = 1;
  o.recover_after = 4;
  ScenarioResult r = run_scenario(o);
  EXPECT_EQ(r.outcome, RestoreOutcome::kInvalid);
  EXPECT_TRUE(r.fallback);
  EXPECT_TRUE(r.rejoined);
  EXPECT_TRUE(r.converged);
  for (const auto& roster : r.rosters) EXPECT_EQ(roster, r.rosters.front());
}

// Same seed ⇒ identical timeline: round counts, traffic totals, sequence
// numbers, rosters, and every sealed checkpoint byte-for-byte. Covers both
// restore paths.
TEST(Recovery, SameSeedRunsAreIdentical) {
  for (bool stale : {false, true}) {
    ScenarioOptions o;
    o.seed = 7;
    o.stale_replay = stale;
    ScenarioResult a = run_scenario(o);
    ScenarioResult b = run_scenario(o);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.rejoin_round, b.rejoin_round);
    EXPECT_EQ(a.outcome, b.outcome);
    EXPECT_EQ(a.fallback, b.fallback);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.seqs, b.seqs);
    EXPECT_EQ(a.rosters, b.rosters);
    EXPECT_EQ(a.victim_seals, b.victim_seals);
    EXPECT_TRUE(a.converged);
  }
}

// ---------------------------------------------------------------------------
// Unit-level rollback protection, without the coordinator: an old blob must
// fail the counter check even though it unseals perfectly, truncated blobs
// must be rejected outright, and only the newest blob restores.
// ---------------------------------------------------------------------------
TEST(Recovery, MonotonicCounterAcceptsOnlyNewestSeal) {
  const scenario::Factory factory =
      scenario::recoverable_factory({0, 1, 2, 3}, {});
  sim::Testbed bed(scenario::sim_config(4, 3));
  bed.build(factory);
  bed.start();
  bed.run_rounds(2);

  auto& victim = bed.enclave_as<RecoverableNode>(1);
  Bytes old_seal = victim.take_checkpoint();
  Bytes new_seal = victim.take_checkpoint();
  ASSERT_NE(old_seal, new_seal);

  bed.kill_enclave(1);
  ASSERT_FALSE(bed.has_enclave(1));
  bed.relaunch_enclave(1, factory, [&](protocol::PeerEnclave& enclave) {
    auto& node = dynamic_cast<RecoverableNode&>(enclave);
    Bytes truncated(new_seal.begin(), new_seal.end() - 1);
    EXPECT_EQ(node.restore_checkpoint(truncated), RestoreOutcome::kInvalid);
    // Unseals fine, but carries counter value 1 while the platform says 2.
    EXPECT_EQ(node.restore_checkpoint(old_seal), RestoreOutcome::kStale);
    // Rejected blobs leave the node untouched: no rejoin was scheduled.
    EXPECT_FALSE(node.rejoin_pending());
    EXPECT_EQ(node.restore_checkpoint(new_seal), RestoreOutcome::kRestored);
    EXPECT_TRUE(node.is_member());
    EXPECT_TRUE(node.rejoin_pending());
  });
  ASSERT_TRUE(bed.has_enclave(1));
}

// ---------------------------------------------------------------------------
// The same crash/recover injection points over real TCP sockets: checkpoint,
// kill the enclave mid-run, relaunch from the seal, re-attest, and complete
// a scheduled REJOIN window. Wall-clock, so outcomes only — determinism is
// the simulator's job. (Not tier-1: real sleeping across ~15 rounds.)
// ---------------------------------------------------------------------------
TEST(TcpRecovery, CrashRecoverRejoinOverSockets) {
  net::TcpTestbedConfig cfg;
  cfg.n = 3;
  cfg.round_ms = 150;
  cfg.seed = 11;
  const NodeId victim = 1;
  // Window length W = t + 2 = 3; the relaunch lands mid-window 1, so the
  // REJOIN runs in windows 2 and 3 (sponsor retry).
  const scenario::RecoveryWindows w = scenario::recovery_windows(1, 3, 5);
  const std::uint32_t W = w.W;

  std::vector<NodeId> roster0{0, 1, 2};
  const scenario::Factory factory = scenario::recoverable_factory(
      roster0, scenario::join_plan(w, victim, kNoNode));

  net::TcpTestbed bed(cfg);
  ASSERT_TRUE(bed.build(factory));
  bed.start();
  bed.run_rounds(2);

  Bytes seal = bed.locked(
      [&] { return bed.enclave_as<RecoverableNode>(victim).take_checkpoint(); });
  bed.crash_node(victim);
  bed.run_rounds(2);  // the survivors keep ticking; victim frames are dropped

  bed.recover_node(victim, factory, [&](protocol::PeerEnclave& enclave) {
    auto& node = dynamic_cast<RecoverableNode&>(enclave);
    ASSERT_EQ(node.restore_checkpoint(seal), RestoreOutcome::kRestored);
    // Re-attest with the survivors (their replay windows moved on). Runs
    // under the testbed state lock, so peer enclaves are safe to touch.
    Bytes hello = node.handshake_blob();
    for (NodeId id : roster0) {
      if (id == victim) continue;
      auto& peer = bed.enclave(id);
      ASSERT_TRUE(peer.accept_handshake(hello));
      ASSERT_TRUE(node.accept_handshake(peer.handshake_blob()));
    }
  });

  std::uint32_t ran = bed.run_rounds(4 * W, [&] {
    auto& node = bed.enclave_as<RecoverableNode>(victim);
    return node.is_member() && !node.rejoin_pending();
  });
  EXPECT_LT(ran, 4 * W) << "victim never completed its REJOIN window";
  bed.locked([&] {
    for (NodeId id : roster0) {
      auto& node = bed.enclave_as<RecoverableNode>(id);
      EXPECT_TRUE(node.is_member());
      EXPECT_EQ(node.roster(), roster0);
    }
  });
}

}  // namespace
}  // namespace sgxp2p
