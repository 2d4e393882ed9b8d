#include "fuzz/generator.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "scenario/scenario.hpp"

namespace sgxp2p::fuzz {

namespace {

// Message-level + partition fault menu with rough paper-attack weights
// (omission is the historically fruitful family, so it dominates).
ActionKind sample_message_kind(Rng& rng, bool allow_crash) {
  std::uint64_t roll = rng.next_below(100);
  if (roll < 30) return ActionKind::kDrop;
  if (roll < 45) return ActionKind::kDelay;
  if (roll < 55) return ActionKind::kDuplicate;
  if (roll < 70) return ActionKind::kCorrupt;
  if (roll < 80) return ActionKind::kReorder;
  if (roll < 92 || !allow_crash) return ActionKind::kPartition;
  return ActionKind::kCrash;
}

FaultAction sample_action(Rng& rng, NodeId node, std::uint32_t n,
                          std::uint32_t hot_rounds, bool allow_crash) {
  FaultAction a;
  a.kind = sample_message_kind(rng, allow_crash);
  a.node = node;
  a.round = 1 + static_cast<std::uint32_t>(rng.next_below(hot_rounds));
  a.peer = kNoNode;
  switch (a.kind) {
    case ActionKind::kDrop:
    case ActionKind::kCorrupt:
      // 30%: target one victim peer instead of everyone (selective flavor).
      if (rng.chance(0.3)) {
        NodeId peer = static_cast<NodeId>(rng.next_below(n));
        if (peer != node) a.peer = peer;
      }
      if (a.kind == ActionKind::kCorrupt) a.param = rng.next_u64();
      break;
    case ActionKind::kDelay:
      // 100 ms (harmless jitter) … 1000 ms (beyond the round ⇒ P5 rejects).
      a.param = 100 + rng.next_below(901);
      break;
    case ActionKind::kDuplicate:
      a.param = rng.next_below(301);
      break;
    case ActionKind::kReorder:
      break;
    case ActionKind::kPartition:
      a.param = 1 + rng.next_below(2);  // isolate for 1–2 rounds
      break;
    case ActionKind::kCrash:
      break;
    case ActionKind::kRecover:
    case ActionKind::kStaleSeal:
      break;  // never sampled here
  }
  return a;
}

/// Picks `want` distinct faulted nodes from `pool` (shuffled), honoring an
/// optional cap on how many may come from ids < cluster_limit.
std::vector<NodeId> pick_faulted(Rng& rng, std::vector<NodeId> pool,
                                 std::size_t want, NodeId cluster_limit,
                                 std::size_t cluster_cap) {
  std::shuffle(pool.begin(), pool.end(), rng);
  std::vector<NodeId> out;
  std::size_t in_cluster = 0;
  for (NodeId id : pool) {
    if (out.size() == want) break;
    if (id < cluster_limit) {
      if (in_cluster == cluster_cap) continue;
      ++in_cluster;
    }
    out.push_back(id);
  }
  return out;
}

void add_faulted_actions(Rng& rng, Schedule& s,
                         const std::vector<NodeId>& faulted,
                         std::uint32_t hot_rounds, bool allow_crash) {
  for (NodeId node : faulted) {
    std::uint32_t count = 1 + static_cast<std::uint32_t>(rng.next_below(3));
    for (std::uint32_t i = 0; i < count; ++i) {
      s.actions.push_back(
          sample_action(rng, node, s.n, hot_rounds, allow_crash));
    }
  }
}

}  // namespace

Schedule generate_schedule(FuzzTarget target, std::uint64_t campaign_seed,
                           std::uint32_t index) {
  // One independent stream per (seed, index, target) cell.
  Rng rng(campaign_seed * 0x9e3779b97f4a7c15ULL + index * 2654435761ULL +
          static_cast<std::uint64_t>(target));
  Schedule s;
  s.target = target;
  s.seed = 1 + rng.next_below(1u << 20);

  switch (target) {
    case FuzzTarget::kErb: {
      s.n = 4 + static_cast<std::uint32_t>(rng.next_below(5));  // 4–8
      s.t = (s.n - 1) / 2;
      s.max_rounds = scenario::t_budget(s.t);
      std::vector<NodeId> pool;
      for (NodeId id = 0; id < s.n; ++id) pool.push_back(id);
      std::size_t want = 1 + rng.next_below(s.t);
      add_faulted_actions(rng, s, pick_faulted(rng, pool, want, 0, 0),
                          s.t + 2, /*allow_crash=*/true);
      break;
    }
    case FuzzTarget::kErngBasic: {
      s.n = 4 + static_cast<std::uint32_t>(rng.next_below(4));  // 4–7
      s.t = (s.n - 1) / 2;
      s.max_rounds = scenario::t_budget(s.t);
      std::vector<NodeId> pool;
      for (NodeId id = 0; id < s.n; ++id) pool.push_back(id);
      std::size_t want = 1 + rng.next_below(s.t);
      add_faulted_actions(rng, s, pick_faulted(rng, pool, want, 0, 0),
                          s.t + 2, /*allow_crash=*/true);
      break;
    }
    case FuzzTarget::kErngOpt: {
      s.n = 6 + static_cast<std::uint32_t>(rng.next_below(7));  // 6–12
      s.t = scenario::erng_opt_t(s.n);
      s.max_rounds = scenario::n_budget(s.n);
      // Fallback cluster = ids < ⌈2n/3⌉; leave the FINAL quorum reachable.
      const NodeId n_c = (2 * s.n + 2) / 3;
      const std::size_t cap = n_c - (n_c / 2 + 1);
      std::vector<NodeId> pool;
      for (NodeId id = 0; id < s.n; ++id) pool.push_back(id);
      std::size_t want = 1 + rng.next_below(s.t);
      add_faulted_actions(rng, s, pick_faulted(rng, pool, want, n_c, cap),
                          std::min(s.max_rounds, scenario::t_budget(s.t)),
                          /*allow_crash=*/true);
      break;
    }
    case FuzzTarget::kRecovery: {
      const std::uint32_t roster = 4 + static_cast<std::uint32_t>(
                                           rng.next_below(3));  // 4–6
      s.n = roster + 1;  // one fresh joiner rides along (liveness proof)
      s.t = (roster - 1) / 2;
      s.checkpoint_every = 1 + static_cast<std::uint32_t>(rng.next_below(3));

      // Victim: any roster member except the sponsors (0 and 2).
      std::vector<NodeId> victims;
      for (NodeId id = 1; id < roster; ++id) {
        if (id != 2) victims.push_back(id);
      }
      const NodeId victim = victims[rng.next_below(victims.size())];
      const std::uint32_t crash_at =
          2 + static_cast<std::uint32_t>(rng.next_below(4));  // 2–5
      const bool recovers = rng.chance(0.85);
      const std::uint32_t recover_at =
          crash_at + 2 + static_cast<std::uint32_t>(rng.next_below(3));
      const scenario::RecoveryWindows rw = scenario::recovery_windows(
          s.t, crash_at, recovers ? recover_at : 0);
      // Without a relaunch, the budget of a rejoin in window 2.
      s.max_rounds = recovers ? rw.budget() : 6 * rw.W;

      s.actions.push_back({ActionKind::kCrash, victim, crash_at, kNoNode, 0});
      if (recovers) {
        s.actions.push_back(
            {ActionKind::kRecover, victim, recover_at, kNoNode, 0});
        if (rng.chance(0.3)) {
          s.actions.push_back(
              {ActionKind::kStaleSeal, victim, 1, kNoNode, 0});
        }
      }

      // Remaining byzantine budget goes to scripted message faults on nodes
      // that are neither scenario pivots nor sponsors. The victim occupies
      // one slot either way: permanently when it never recovers, and as a
      // crash-fault during its outage when it does (see Schedule::validate).
      std::size_t budget = s.t - 1;
      std::vector<NodeId> pool;
      for (NodeId id = 1; id < roster; ++id) {
        if (id != 2 && id != victim) pool.push_back(id);
      }
      if (budget > 0 && !pool.empty() && rng.chance(0.6)) {
        std::size_t want = 1 + rng.next_below(budget);
        add_faulted_actions(rng, s, pick_faulted(rng, pool, want, 0, 0),
                            std::min(s.max_rounds, crash_at + rw.W),
                            /*allow_crash=*/false);
      }
      break;
    }
    case FuzzTarget::kShard: {
      // Small multi-committee topologies: enough nodes for 2–4 committees,
      // committees small enough that t ≤ (c−1)/2 leaves room for faults.
      s.n = 10 + static_cast<std::uint32_t>(rng.next_below(15));  // 10–24
      s.committee_size = 5 + static_cast<std::uint32_t>(rng.next_below(3));
      const std::uint32_t t_c = (s.committee_size - 1) / 2;
      s.t = 1 + static_cast<std::uint32_t>(rng.next_below(t_c));
      s.max_rounds = s.min_rounds();
      std::vector<NodeId> pool;
      for (NodeId id = 0; id < s.n; ++id) pool.push_back(id);
      std::size_t want = 1 + rng.next_below(s.t);
      add_faulted_actions(rng, s, pick_faulted(rng, pool, want, 0, 0),
                          s.max_rounds, /*allow_crash=*/true);
      break;
    }
  }

  std::string error;
  CHECK_MSG(s.validate(&error), "generator produced unsound schedule");
  return s;
}

namespace {

bool is_message_kind(ActionKind k) {
  switch (k) {
    case ActionKind::kDrop:
    case ActionKind::kDelay:
    case ActionKind::kDuplicate:
    case ActionKind::kCorrupt:
    case ActionKind::kReorder:
    case ActionKind::kPartition:
      return true;
    default:
      return false;
  }
}

/// Indices of parent actions a generic mutation may touch. The recovery
/// pivots (crash/recover/stale_seal) are excluded: they must stay mutually
/// consistent (same victim, ordered rounds), so blind per-field edits on
/// them mostly burn retry attempts.
std::vector<std::size_t> mutable_actions(const Schedule& s) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < s.actions.size(); ++i) {
    if (s.target != FuzzTarget::kRecovery || is_message_kind(s.actions[i].kind)) {
      out.push_back(i);
    }
  }
  return out;
}

void reset_param_for_kind(FaultAction& a, Rng& rng) {
  switch (a.kind) {
    case ActionKind::kCorrupt:
      a.param = rng.next_u64();
      break;
    case ActionKind::kDelay:
      a.param = 50 + rng.next_below(1451);  // wider than the generator's menu
      break;
    case ActionKind::kDuplicate:
      a.param = rng.next_below(301);
      break;
    case ActionKind::kPartition:
      a.param = 1 + rng.next_below(3);  // generator never isolates 3 rounds
      break;
    default:
      a.param = 0;
      break;
  }
}

/// Applies one mutation operator in place; returns false when the operator
/// has nothing to act on (empty action list, no mutable action, …) so the
/// caller rolls another.
bool apply_mutation(Schedule& s, Rng& rng) {
  const std::vector<std::size_t> idx = mutable_actions(s);
  switch (rng.next_below(7)) {
    case 0: {  // testbed reseed — same faults, different delivery jitter
      s.seed = 1 + rng.next_below(1u << 20);
      return true;
    }
    case 1: {  // round shift, over the FULL budget (not just the hot window)
      if (idx.empty()) return false;
      FaultAction& a = s.actions[idx[rng.next_below(idx.size())]];
      a.round = 1 + static_cast<std::uint32_t>(rng.next_below(s.max_rounds));
      return true;
    }
    case 2: {  // victim swap
      if (idx.empty()) return false;
      FaultAction& a = s.actions[idx[rng.next_below(idx.size())]];
      a.node = static_cast<NodeId>(rng.next_below(s.n));
      return true;
    }
    case 3: {  // fault-type flip (message-level kinds only)
      if (idx.empty()) return false;
      FaultAction& a = s.actions[idx[rng.next_below(idx.size())]];
      if (!is_message_kind(a.kind)) return false;
      constexpr ActionKind kMenu[] = {
          ActionKind::kDrop,      ActionKind::kDelay,
          ActionKind::kDuplicate, ActionKind::kCorrupt,
          ActionKind::kReorder,   ActionKind::kPartition,
      };
      ActionKind next = kMenu[rng.next_below(std::size(kMenu))];
      if (next == a.kind) return false;
      a.kind = next;
      if (a.kind == ActionKind::kPartition) a.peer = kNoNode;
      reset_param_for_kind(a, rng);
      return true;
    }
    case 4: {  // action splice: extra fault on an ALREADY-faulted node, so
               // the byzantine budget is unchanged
      std::vector<NodeId> faulted = s.faulted_nodes();
      if (faulted.empty() || s.actions.size() >= 256) return false;
      NodeId node = faulted[rng.next_below(faulted.size())];
      s.actions.push_back(sample_action(rng, node, s.n, s.max_rounds,
                                        /*allow_crash=*/false));
      return true;
    }
    case 5: {  // peer flip: broadcast fault ↔ selective single-peer fault
      if (idx.empty()) return false;
      FaultAction& a = s.actions[idx[rng.next_below(idx.size())]];
      if (a.kind != ActionKind::kDrop && a.kind != ActionKind::kCorrupt) {
        return false;
      }
      if (a.peer == kNoNode) {
        NodeId peer = static_cast<NodeId>(rng.next_below(s.n));
        if (peer == a.node) return false;
        a.peer = peer;
      } else {
        a.peer = kNoNode;
      }
      return true;
    }
    default: {  // param widen / re-roll
      if (idx.empty()) return false;
      FaultAction& a = s.actions[idx[rng.next_below(idx.size())]];
      reset_param_for_kind(a, rng);
      return true;
    }
  }
}

}  // namespace

Schedule mutate_schedule(const Schedule& parent, Rng& rng) {
  for (int attempt = 0; attempt < 24; ++attempt) {
    Schedule s = parent;
    s.expect_violations.clear();  // mutants carry no replay stamps
    s.expect_digest.clear();
    if (!apply_mutation(s, rng)) continue;
    if (s.validate(nullptr)) return s;
  }
  // Every operator kept failing (e.g. a pivot-only recovery schedule at the
  // edge of its budget): fall back to a reseed, valid whenever parent is.
  Schedule s = parent;
  s.expect_violations.clear();
  s.expect_digest.clear();
  s.seed = 1 + rng.next_below(1u << 20);
  std::string error;
  CHECK_MSG(s.validate(&error), "mutate_schedule fallback unsound");
  return s;
}

}  // namespace sgxp2p::fuzz
