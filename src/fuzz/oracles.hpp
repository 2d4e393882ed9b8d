// Property oracles — the machine-readable pass/fail judgments of one run.
//
// Each oracle is a named predicate over the post-run state of a testbed,
// derived from the paper's theorem statements (quantified over HONEST nodes
// only — the schedule's faulted set is excluded, which Schedule::validate
// keeps within the byzantine budget t):
//
//   erb.termination      every honest node decided within the round budget
//   erb.agreement        all honest decisions carry the same value (or all ⊥)
//   erb.validity         honest initiator ⇒ every honest node decided m
//   erng.termination     every honest node produced an output
//   erng.agreement       all honest outputs are byte-identical (incl. ⊥-ness)
//   recovery.liveness    victim rejoined and every honest roster converged
//                        on admitting the fresh joiner
//   shard.termination    every honest node adopted a global digest in every
//                        epoch, within the epoch round budget
//   shard.agreement      all honest global digests per epoch are identical
//                        (and intra-committee digests match)
//   shard.validity       the agreed global digest equals an independent
//                        bottom-up recomputation from honest members'
//                        committee digests
//   recovery.restore     clean seal ⇒ the checkpoint restore succeeded
//   recovery.stale_detect stale-seal replay ⇒ detected, fresh re-admission
//   metrics.conservation delivered ≤ sends and delivered_bytes ≤ bytes
//   causal.conservation  (opt-in via RunOptions.check_causal) the causal
//                        trace DAG is well-formed: spans contiguous, every
//                        cause precedes its effect, every delivery's cause
//                        is the matching recorded send
//   canary.no_bottom     (test-only, opt-in) no honest ERB node decides ⊥ —
//                        deliberately FALSE under omission faults; exists so
//                        tests can prove the fuzzer finds and shrinks real
//                        violations without planting a bug in protocol code
//
// A Violation records which oracle fired and a human-readable detail line;
// the shrinker compares sorted oracle-name sets, so two runs "fail the same
// way" iff violated_oracles() match.
#pragma once

#include <string>
#include <vector>

#include "fuzz/coverage.hpp"
#include "fuzz/schedule.hpp"
#include "scenario/scenario.hpp"

namespace sgxp2p::fuzz {

namespace oracle {
inline constexpr const char* kErbTermination = "erb.termination";
inline constexpr const char* kErbAgreement = "erb.agreement";
inline constexpr const char* kErbValidity = "erb.validity";
inline constexpr const char* kErngTermination = "erng.termination";
inline constexpr const char* kErngAgreement = "erng.agreement";
inline constexpr const char* kRecoveryLiveness = "recovery.liveness";
inline constexpr const char* kRecoveryRestore = "recovery.restore";
inline constexpr const char* kRecoveryStaleDetect = "recovery.stale_detect";
inline constexpr const char* kShardTermination = "shard.termination";
inline constexpr const char* kShardAgreement = "shard.agreement";
inline constexpr const char* kShardValidity = "shard.validity";
inline constexpr const char* kMetricsConservation = "metrics.conservation";
inline constexpr const char* kCausalConservation = "causal.conservation";
inline constexpr const char* kCanaryNoBottom = "canary.no_bottom";
}  // namespace oracle

struct Violation {
  std::string oracle;  // one of the oracle:: names
  std::string detail;  // human-readable evidence ("node 3 decided ⊥, …")
};

/// Everything one schedule execution produced.
struct RunReport {
  std::uint32_t rounds = 0;      // rounds actually executed
  std::vector<Violation> violations;
  std::string outcome;           // per-node outcome summary (digest input)
  std::string digest;            // sha256 hex over (metrics, outcome, rounds)
  CoverageMap coverage;          // protocol-state feature bitmap of this run

  [[nodiscard]] bool passed() const { return violations.empty(); }

  /// Sorted, deduplicated oracle names — the shrinker's equivalence key.
  [[nodiscard]] std::vector<std::string> violated_oracles() const;
};

/// True iff both runs violated exactly the same oracle set (the shrinker's
/// acceptance test: a smaller schedule still "fails the same way").
[[nodiscard]] bool same_violations(const RunReport& a, const RunReport& b);

// ----- the ERB and ERNG judgement, shared by both runners -----------------

/// The message the ERB target's initiator, node 0, broadcasts.
inline constexpr const char* kErbPayload = "fuzz erb payload";

/// ERB's honest-node oracles over one run: erb.termination, erb.agreement,
/// erb.validity (an honest `initiator` ⇒ every honest node decided
/// `payload`) and, when `canary` is set, canary.no_bottom. Dead and faulted
/// nodes never fire.
[[nodiscard]] std::vector<Violation> judge_erb(const scenario::Report& report,
                                               NodeId initiator,
                                               const Bytes& payload,
                                               bool canary);

/// ERNG's (basic and opt): erng.termination and erng.agreement — the same
/// ⊥-ness, and the same value unless ⊥.
[[nodiscard]] std::vector<Violation> judge_erng(const scenario::Report& report);

/// One node's outcome token: ":m=<first 8 bytes hex>", ":bot" or
/// ":undecided" for ERB; ":r=…", ":bot" or ":pending" for ERNG.
[[nodiscard]] std::string node_outcome(const scenario::NodeReport& node,
                                       bool erb);

}  // namespace sgxp2p::fuzz
