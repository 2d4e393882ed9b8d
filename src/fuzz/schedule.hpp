// Schedule — the serializable unit of adversarial search.
//
// A Schedule fixes everything one fuzz execution depends on: the protocol
// target, the deployment shape (n, t, testbed seed, round budget), and a
// list of per-(node, round) fault actions. Running the same schedule twice
// therefore produces byte-identical traces, metrics, and decisions — which
// is what makes oracle violations replayable (`sgxp2p-sim
// --replay-schedule`) and shrinkable (delta debugging re-runs candidate
// subsets and compares outcomes).
//
// The on-disk form is a line-oriented text format (docs/ROBUSTNESS.md):
//
//   sgxp2p-schedule-v1
//   target erb
//   n 6
//   t 2
//   seed 42
//   rounds 8
//   action drop 2 1 * 0
//   action partition 3 2 * 2
//   expect_violation erb.agreement
//   expect_digest 9f8a…
//   end
//
// `expect_*` lines are written when a failure is emitted; replay checks
// them. Unknown lines are rejected, not skipped — a corpus file that stops
// parsing is a bug worth hearing about.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/ids.hpp"

namespace sgxp2p::fuzz {

/// Everything a schedule can do to the deployment. The first five map to
/// adversary::MsgFaultKind and run inside the victim node's host; the rest
/// are driven by the runner at round boundaries.
enum class ActionKind : std::uint8_t {
  kDrop,
  kDelay,
  kDuplicate,
  kCorrupt,
  kReorder,
  kPartition,  // isolate `node` from everyone for `param` rounds
  kCrash,      // kill the node's enclave at the `round` boundary
  kRecover,    // relaunch it (recovery target only)
  kStaleSeal,  // its host answers the restore with its oldest sealed blob
};

[[nodiscard]] const char* action_kind_name(ActionKind kind);
[[nodiscard]] std::optional<ActionKind> action_kind_from(
    const std::string& name);

struct FaultAction {
  ActionKind kind = ActionKind::kDrop;
  NodeId node = 0;
  std::uint32_t round = 1;
  NodeId peer = kNoNode;    // message-level kinds: target peer, kNoNode = all
  std::uint64_t param = 0;  // kind-specific (ms, rounds, corrupt seed)

  friend bool operator==(const FaultAction&, const FaultAction&) = default;
};

/// The five protocol stacks the fuzzer exercises.
enum class FuzzTarget : std::uint8_t {
  kErb,
  kErngBasic,
  kErngOpt,
  kRecovery,
  kShard,
};

[[nodiscard]] const char* target_name(FuzzTarget target);
[[nodiscard]] std::optional<FuzzTarget> target_from(const std::string& name);

struct Schedule {
  FuzzTarget target = FuzzTarget::kErb;
  std::uint32_t n = 4;  // testbed size (recovery: roster + 1 fresh joiner)
  std::uint32_t t = 0;  // byzantine bound handed to the testbed
  std::uint64_t seed = 1;
  std::uint32_t max_rounds = 8;
  std::uint32_t checkpoint_every = 2;  // recovery target only
  std::uint32_t committee_size = 0;    // shard target only; 0 = auto c(n)
  std::vector<FaultAction> actions;

  // Replay expectations, filled when a failing case is emitted.
  std::vector<std::string> expect_violations;  // sorted oracle names
  std::string expect_digest;                   // hex sha256; empty = unchecked

  /// Nodes whose faults void the honest-node guarantees: any message-level
  /// or partition action, or a crash with no later recover. (A recovered
  /// crash victim and a stale-seal host are still expected to converge —
  /// that is exactly what the recovery oracles assert.)
  [[nodiscard]] std::vector<NodeId> faulted_nodes() const;
  /// The other nodes, ascending: those the honest-node oracles judge.
  [[nodiscard]] std::vector<NodeId> honest_nodes() const;

  /// Structural soundness: fields in range, every action's node < n, the
  /// faulted set within the byzantine budget t. Runner and corpus loading
  /// both gate on this, so the shrinker (which only removes) cannot leave
  /// the sound set.
  [[nodiscard]] bool validate(std::string* error) const;

  /// Smallest round budget under which the liveness/termination oracles are
  /// fair assertions (forced-⊥ timeouts and join windows have run to
  /// completion). validate() rejects schedules below this floor — otherwise
  /// the shrinker could "minimize" a liveness failure by starving the run of
  /// rounds until any schedule at all fails the same way.
  [[nodiscard]] std::uint32_t min_rounds() const;

  [[nodiscard]] std::string to_text() const;
  [[nodiscard]] static std::optional<Schedule> from_text(
      const std::string& text, std::string* error);

  [[nodiscard]] bool write_file(const std::string& path) const;
  [[nodiscard]] static std::optional<Schedule> load_file(
      const std::string& path, std::string* error);
};

}  // namespace sgxp2p::fuzz
