// Schedule runner — executes one Schedule on a fresh deterministic testbed
// and judges the outcome against the property oracles.
//
// Each run gets its own MetricsRegistry (rebound via ScopedCurrent), so runs
// are hermetic: the digest covers exactly this run's metrics, and campaigns
// never bleed counters into each other or into the global registry.
//
// Determinism contract: everything the run observes is a pure function of
// the Schedule — testbed seed, fault script, partition windows, crash and
// relaunch rounds, join plan. run_schedule on the same Schedule therefore
// returns byte-identical RunReports (including the digest); the replay and
// shrinking machinery is built on this.
#pragma once

#include "fuzz/oracles.hpp"
#include "fuzz/schedule.hpp"

namespace sgxp2p::fuzz {

struct RunOptions {
  /// Arms the test-only canary.no_bottom oracle (deliberately too strong —
  /// see oracles.hpp). Used by tests and --fuzz-canary to prove the
  /// find-shrink-replay loop works end to end.
  bool canary = false;
  /// Records a causal trace of the run and checks the span DAG against the
  /// conservation oracle (causal.conservation). Off by default: tracing
  /// does not touch metrics, so digests are unaffected either way, but the
  /// ring costs memory on big campaigns.
  bool check_causal = false;
};

[[nodiscard]] RunReport run_schedule(const Schedule& schedule,
                                     const RunOptions& options = {});

}  // namespace sgxp2p::fuzz
