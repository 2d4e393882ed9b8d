// Scenario library — the ERB, ERNG-basic, ERNG-opt and crash-recovery
// stacks built, driven and reported in one place.
//
// Every runner of these stacks (the figure benches, the tests, both fuzz
// runners, sgxp2p-sim and the beacon app) takes from here:
//   - the enclave factory, typed on sgx::EnclaveHostIface& so that one
//     factory builds a sim::Testbed and a net::TcpTestbed;
//   - the config rules: Δ split into base Δ/2 and jitter Δ − Δ/2, ERNG-opt's
//     t, the t + 4 and n + 8 round budgets, and the Section 6.3 chain;
//   - the honest-done stop predicate and one Report per run;
//   - the recovery scenario's roster, join plan, window arithmetic and
//     convergence check.
// The oracle judgement over a Report lives with the fuzz oracles
// (fuzz/oracles.hpp). A caller whose loop differs (a timed bench, a golden
// run to its round cap) builds through this library and keeps its own loop.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "adversary/strategies.hpp"
#include "net/tcp_testbed.hpp"
#include "net/testbed.hpp"
#include "protocol/erb_node.hpp"
#include "protocol/erng_basic.hpp"
#include "protocol/erng_opt.hpp"
#include "protocol/membership.hpp"
#include "recovery/coordinator.hpp"

namespace sgxp2p::scenario {

/// Builds one node's enclave. Converts to both sim::Testbed::EnclaveFactory
/// and net::TcpTestbed::EnclaveFactory.
using Factory = std::function<std::unique_ptr<protocol::PeerEnclave>(
    NodeId id, sgx::SgxPlatform& platform, sgx::EnclaveHostIface& host,
    protocol::PeerConfig cfg, const sgx::SimIAS& ias)>;

// ----- config rules -------------------------------------------------------

/// Δ of the tests, the fuzz runner and the beacon: 100 + 100 ms.
inline constexpr SimDuration kTestDelta = milliseconds(200);
/// Δ of the figure benches: 500 + 500 ms, so a round (2Δ) is 2 s.
inline constexpr SimDuration kBenchDelta = milliseconds(1000);

/// The one-way delay bound Δ split into base = Δ/2 and jitter = Δ − Δ/2.
[[nodiscard]] sim::NetworkConfig network(SimDuration delta);

/// `n` nodes with network(delta), `seed` and `mode`; t stays the default.
[[nodiscard]] sim::TestbedConfig sim_config(
    std::uint32_t n, std::uint64_t seed = 1, SimDuration delta = kTestDelta,
    protocol::ChannelMode mode = protocol::ChannelMode::kAttested);

/// ERNG-opt's fault bound: max(1, ⌊n/3⌋), since the protocol assumes
/// t ≤ N/3, lowered to ⌊(n−1)/2⌋ where it would break 2t < n.
[[nodiscard]] std::uint32_t erng_opt_t(std::uint32_t n);

/// Round cap of ERB and ERNG-basic runs: t + 4.
[[nodiscard]] constexpr std::uint32_t t_budget(std::uint32_t t) {
  return t + 4;
}
/// Round cap of ERNG-opt runs: n + 8.
[[nodiscard]] constexpr std::uint32_t n_budget(std::uint32_t n) {
  return n + 8;
}

/// The Section 6.3 chain: byzantine nodes 0..f−1 relay only down the chain
/// and the last one releases to the single honest node f; the other nodes
/// are honest.
[[nodiscard]] sim::Testbed::StrategyFactory chain(std::uint32_t f);

// ----- factories ----------------------------------------------------------

/// ERB: node `initiator` broadcasts `payload`. `enable_halt` = false turns
/// halt-on-divergence (P4) off, for the ablation.
[[nodiscard]] Factory erb_factory(NodeId initiator, Bytes payload,
                                  bool enable_halt = true);
[[nodiscard]] Factory erng_basic_factory();
[[nodiscard]] Factory erng_opt_factory(protocol::ErngOptParams params = {});
/// RecoverableNode with initial membership `roster` and join plan `plan`.
[[nodiscard]] Factory recoverable_factory(
    std::vector<NodeId> roster, std::vector<protocol::JoinPlanEntry> plan);

// ----- one report per run -------------------------------------------------

/// One node at the end of a run. `bottom` and `value` mean something only
/// when `done`.
struct NodeReport {
  bool live = false;    // its enclave exists (not crashed)
  bool honest = false;  // counted by the honest-node predicates
  bool done = false;    // decided (ERB, EBA) or produced its output (ERNG)
  bool bottom = false;  // the decision or output is ⊥
  Bytes value;
  SimTime decided_at = 0;
};

struct Report {
  std::uint32_t rounds = 0;       // rounds executed
  SimTime start = 0;              // T0 (sim::Testbed only)
  std::vector<NodeReport> nodes;  // indexed by NodeId
  std::uint64_t messages = 0;     // sim::Testbed's traffic meter; 0 over TCP
  std::uint64_t bytes = 0;

  /// Every honest node is live and done.
  [[nodiscard]] bool honest_done() const;
  /// Latest honest decision, in virtual seconds after T0.
  [[nodiscard]] double termination_s() const;
};

/// Done, ⊥, value and decide time of an ERB, ERNG-basic, ERNG-opt or EBA
/// enclave; `live` and `honest` are the caller's.
[[nodiscard]] NodeReport node_report(const protocol::PeerEnclave& enclave);

/// Stop predicate: every node of `honest` is live and done. Without a set,
/// the sim::Testbed's honest hosts at each check.
[[nodiscard]] std::function<bool()> honest_done(sim::Testbed& bed);
[[nodiscard]] std::function<bool()> honest_done(sim::Testbed& bed,
                                                std::vector<NodeId> honest);
[[nodiscard]] std::function<bool()> honest_done(net::TcpTestbed& bed,
                                                std::vector<NodeId> honest);

/// The report of a run of `rounds` rounds. Without a set, the honest nodes
/// are the sim::Testbed's honest hosts. The TcpTestbed overload reads under
/// the state lock.
[[nodiscard]] Report collect(sim::Testbed& bed, std::uint32_t rounds);
[[nodiscard]] Report collect(sim::Testbed& bed, std::uint32_t rounds,
                             const std::vector<NodeId>& honest);
[[nodiscard]] Report collect(net::TcpTestbed& bed, std::uint32_t rounds,
                             const std::vector<NodeId>& honest);

// Whole runs on a fresh sim::Testbed: build, start, run until every honest
// host is done or the round budget elapses, and report.

/// ERB with node 0 broadcasting `payload` against chain(f), in
/// t_budget(t) rounds.
[[nodiscard]] Report run_erb(const sim::TestbedConfig& cfg,
                             const Bytes& payload, std::uint32_t f = 0,
                             bool enable_halt = true);
/// ERNG-basic in t_budget(t) rounds.
[[nodiscard]] Report run_erng_basic(const sim::TestbedConfig& cfg);
/// ERNG-opt with t = erng_opt_t(n), in n_budget(n) rounds.
[[nodiscard]] Report run_erng_opt(sim::TestbedConfig cfg,
                                  protocol::ErngOptParams params = {});

// ----- crash recovery -----------------------------------------------------

/// Membership-window geometry of the recovery scenario.
struct RecoveryWindows {
  std::uint32_t W = 0;       // rounds per membership window: t + 2
  std::size_t w_rejoin = 0;  // first window at or after the relaunch
  std::size_t w_extra = 0;   // the fresh join's window

  /// Round cap of a run with a relaunch: (w_rejoin + 4)·W.
  [[nodiscard]] std::uint32_t budget() const {
    return static_cast<std::uint32_t>((w_rejoin + 4) * W);
  }
};

/// Windows for fault bound `t`, a crash at `crash_round` and a relaunch at
/// `recover_round` (0 = none). With a relaunch the victim rejoins in
/// ⌈(recover − 1)/W⌉ and the fresh join follows two windows later; without
/// one the fresh join takes the window after the crash, or window 1.
[[nodiscard]] RecoveryWindows recovery_windows(std::uint32_t t,
                                               std::uint32_t crash_round,
                                               std::uint32_t recover_round);

/// `rejoiner` (kNoNode = none) rejoins in w_rejoin through sponsor 0 and
/// retries in the next window through sponsor 2; `joiner` (kNoNode = none)
/// joins fresh in w_extra through sponsor 0.
[[nodiscard]] std::vector<protocol::JoinPlanEntry> join_plan(
    const RecoveryWindows& w, NodeId rejoiner, NodeId joiner);

/// The crash-recovery scenario on a sim::Testbed of n nodes: ids 0..n−2 are
/// the initial roster, `victim` crashes at `crash_round` and relaunches at
/// `recover_round` (0 = never) from checkpoints sealed every
/// `checkpoint_every` rounds, and node n−1 joins fresh afterwards — the
/// post-recovery liveness proof. The constructor builds `bed` and installs
/// the coordinator's round hook; the bed must outlive this object.
class Recovery {
 public:
  Recovery(sim::Testbed& bed, NodeId victim, std::uint32_t crash_round,
           std::uint32_t recover_round, std::uint32_t checkpoint_every,
           const sim::Testbed::StrategyFactory& strategies = {});

  [[nodiscard]] const RecoveryWindows& windows() const { return windows_; }
  [[nodiscard]] recovery::RecoveryCoordinator& coordinator() { return *coord_; }

  /// The victim rejoined (if it relaunches) and every node of `nodes` is a
  /// live member whose roster holds the joiner.
  [[nodiscard]] bool converged(const std::vector<NodeId>& nodes) const;
  /// converged(nodes) over every node, and every roster holds all n nodes.
  [[nodiscard]] bool converged() const;

 private:
  sim::Testbed* bed_;
  NodeId joiner_;
  bool rejoins_;
  RecoveryWindows windows_;
  std::unique_ptr<recovery::RecoveryCoordinator> coord_;
};

}  // namespace sgxp2p::scenario
