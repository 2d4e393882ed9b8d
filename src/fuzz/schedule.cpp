#include "fuzz/schedule.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "scenario/scenario.hpp"
#include "shard/election.hpp"

namespace sgxp2p::fuzz {

namespace {

constexpr const char* kMagic = "sgxp2p-schedule-v1";

struct KindName {
  ActionKind kind;
  const char* name;
};

constexpr KindName kKindNames[] = {
    {ActionKind::kDrop, "drop"},           {ActionKind::kDelay, "delay"},
    {ActionKind::kDuplicate, "duplicate"}, {ActionKind::kCorrupt, "corrupt"},
    {ActionKind::kReorder, "reorder"},     {ActionKind::kPartition, "partition"},
    {ActionKind::kCrash, "crash"},         {ActionKind::kRecover, "recover"},
    {ActionKind::kStaleSeal, "stale_seal"},
};

constexpr const char* kTargetNames[] = {"erb", "erng_basic", "erng_opt",
                                        "recovery", "shard"};

}  // namespace

const char* action_kind_name(ActionKind kind) {
  for (const auto& [k, name] : kKindNames) {
    if (k == kind) return name;
  }
  return "?";
}

std::optional<ActionKind> action_kind_from(const std::string& name) {
  for (const auto& [k, n] : kKindNames) {
    if (name == n) return k;
  }
  return std::nullopt;
}

const char* target_name(FuzzTarget target) {
  return kTargetNames[static_cast<std::size_t>(target)];
}

std::optional<FuzzTarget> target_from(const std::string& name) {
  for (std::size_t i = 0; i < std::size(kTargetNames); ++i) {
    if (name == kTargetNames[i]) return static_cast<FuzzTarget>(i);
  }
  return std::nullopt;
}

std::vector<NodeId> Schedule::faulted_nodes() const {
  std::vector<NodeId> out;
  for (const FaultAction& a : actions) {
    bool faulting = false;
    switch (a.kind) {
      case ActionKind::kDrop:
      case ActionKind::kDelay:
      case ActionKind::kDuplicate:
      case ActionKind::kCorrupt:
      case ActionKind::kReorder:
      case ActionKind::kPartition:
        faulting = true;
        break;
      case ActionKind::kCrash:
        // Permanent crash only; a later recover restores the liveness
        // obligation (the recovery oracles then assert it).
        faulting = std::none_of(actions.begin(), actions.end(),
                                [&a](const FaultAction& b) {
                                  return b.kind == ActionKind::kRecover &&
                                         b.node == a.node && b.round > a.round;
                                });
        break;
      case ActionKind::kRecover:
      case ActionKind::kStaleSeal:
        break;
    }
    if (faulting) out.push_back(a.node);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<NodeId> Schedule::honest_nodes() const {
  const std::vector<NodeId> faulted = faulted_nodes();
  std::vector<NodeId> honest;
  for (NodeId id = 0; id < n; ++id) {
    if (!std::binary_search(faulted.begin(), faulted.end(), id)) {
      honest.push_back(id);
    }
  }
  return honest;
}

std::uint32_t Schedule::min_rounds() const {
  switch (target) {
    case FuzzTarget::kErb:
    case FuzzTarget::kErngBasic:
      // Every honest node force-accepts (value or ⊥) by instance round t+3.
      return t + 3;
    case FuzzTarget::kErngOpt: {
      // Forced ⊥ lands at final_round_ + 2 = (n_c − 1)/2 + 6 in the
      // deterministic-fallback regime validate() pins the fuzzer to.
      const std::uint32_t n_c = (2 * n + 2) / 3;
      return (n_c - 1) / 2 + 6;
    }
    case FuzzTarget::kRecovery: {
      // The fresh join's window closes (and its WELCOME goes out) in the
      // first round of the next window; +1 slack for the delivery.
      std::uint32_t crash_round = 0;
      std::uint32_t recover_round = 0;
      for (const FaultAction& a : actions) {
        if (a.kind == ActionKind::kCrash) crash_round = a.round;
        if (a.kind == ActionKind::kRecover) recover_round = a.round;
      }
      const scenario::RecoveryWindows w =
          scenario::recovery_windows(t, crash_round, recover_round);
      return (static_cast<std::uint32_t>(w.w_extra) + 1) * w.W + 2;
    }
    case FuzzTarget::kShard: {
      // The shard runner drives two chained epochs (so the beacon handoff is
      // exercised); each needs the full epoch budget at this geometry.
      const std::uint32_t c =
          committee_size != 0 ? committee_size : shard::auto_committee_size(n);
      return 2 * shard::epoch_round_budget(n, c);
    }
  }
  return 1;
}

bool Schedule::validate(std::string* error) const {
  auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (n < 2 || n > 256) return fail("n out of range [2, 256]");
  if (2 * t >= n) return fail("t must satisfy 2t < n");
  if (max_rounds == 0 || max_rounds > 512) {
    return fail("rounds out of range [1, 512]");
  }
  if (actions.size() > 256) return fail("more than 256 actions");
  if (target == FuzzTarget::kRecovery &&
      (checkpoint_every == 0 || checkpoint_every > max_rounds)) {
    return fail("checkpoint_every out of range");
  }
  if (target == FuzzTarget::kShard) {
    if (committee_size != 0 && (committee_size < 4 || committee_size > n)) {
      return fail("shard: committee_size must be 0 (auto) or in [4, n]");
    }
    // Election placement is seed-dependent, so the budget must hold even if
    // every faulted node lands in one committee: t ≤ (c − 1) / 2, the
    // smallest per-committee byzantine bound any committee can have.
    const std::uint32_t c =
        committee_size != 0 ? committee_size : shard::auto_committee_size(n);
    if (t > (c - 1) / 2) {
      return fail("shard: t exceeds the per-committee budget (c-1)/2");
    }
  } else if (committee_size != 0) {
    return fail("committee_size only valid for the shard target");
  }
  for (const FaultAction& a : actions) {
    if (a.node >= n) return fail("action node out of range");
    if (a.round == 0 || a.round > max_rounds) {
      return fail("action round out of range");
    }
    if (a.peer != kNoNode && a.peer >= n) {
      return fail("action peer out of range");
    }
    if ((a.kind == ActionKind::kRecover || a.kind == ActionKind::kStaleSeal) &&
        target != FuzzTarget::kRecovery) {
      return fail("recover/stale_seal only valid for the recovery target");
    }
  }
  // The honest-node oracles quantify over non-faulted nodes, so a schedule
  // that faults more than t hosts asserts nothing the protocol promises.
  std::vector<NodeId> faulted = faulted_nodes();
  if (faulted.size() > t) {
    return fail("faulted nodes exceed the byzantine budget t");
  }
  if (target == FuzzTarget::kErngOpt) {
    // Keep fuzzing inside the deterministic 2N/3 fallback-cluster regime
    // (N < 4γ with γ ≥ 4) so cluster membership is a function of n alone,
    // and leave the FINAL quorum ⌊n_c/2⌋+1 reachable by honest members.
    if (n > 15) return fail("erng_opt schedules support n <= 15");
    const std::uint32_t n_c = (2 * n + 2) / 3;
    const std::uint32_t cap = n_c - (n_c / 2 + 1);
    std::uint32_t in_cluster = 0;
    for (NodeId f : faulted) in_cluster += f < n_c ? 1 : 0;
    if (in_cluster > cap) {
      return fail("erng_opt: faulted cluster members exceed quorum slack");
    }
  }
  if (target == FuzzTarget::kRecovery) {
    // The scenario is single-victim: node `crash.node` crashes and (maybe)
    // recovers; sponsors 0 and 2 plus the fresh joiner n−1 must stay clean
    // or the liveness oracle would assert an unreachable rejoin.
    const FaultAction* crash = nullptr;
    const FaultAction* recover = nullptr;
    for (const FaultAction& a : actions) {
      if (a.kind == ActionKind::kCrash) {
        if (crash != nullptr) return fail("recovery: more than one crash");
        crash = &a;
      }
      if (a.kind == ActionKind::kRecover) {
        if (recover != nullptr) return fail("recovery: more than one recover");
        recover = &a;
      }
    }
    if (n < 5) return fail("recovery schedules need n >= 5 (roster + joiner)");
    for (const FaultAction& a : actions) {
      if (a.kind == ActionKind::kRecover || a.kind == ActionKind::kStaleSeal) {
        if (crash == nullptr || a.node != crash->node) {
          return fail("recovery: recover/stale_seal must match the victim");
        }
      }
    }
    if (recover != nullptr &&
        (crash == nullptr || recover->round <= crash->round)) {
      return fail("recovery: recover must come after the crash");
    }
    if (crash != nullptr && (crash->node == 0 || crash->node == 2 ||
                             crash->node == n - 1)) {
      return fail("recovery: victim collides with a sponsor or the joiner");
    }
    for (NodeId f : faulted) {
      if (f == 0 || f == 2 || f == n - 1) {
        return fail("recovery: sponsors and the fresh joiner must stay clean");
      }
    }
    // A recovering victim is silent from its crash until the rejoin WELCOME
    // lands, so the join-window ERBs run with it as a crash-fault: it
    // occupies one byzantine slot even though faulted_nodes() exempts it.
    // Without this, t message-faulting extras plus the mute victim exceed
    // the 2t < n bound inside a window and an honest sponsor may P4-halt —
    // permitted protocol behavior the liveness oracle must not call a bug.
    if (crash != nullptr && recover != nullptr && faulted.size() + 1 > t) {
      return fail(
          "recovery: recovering victim consumes a byzantine slot; message "
          "faults must fit in t-1");
    }
  }
  if (max_rounds < min_rounds()) {
    return fail("rounds below the target's liveness horizon (min " +
                std::to_string(min_rounds()) + ")");
  }
  return true;
}

std::string Schedule::to_text() const {
  std::ostringstream out;
  out << kMagic << '\n';
  out << "target " << target_name(target) << '\n';
  out << "n " << n << '\n';
  out << "t " << t << '\n';
  out << "seed " << seed << '\n';
  out << "rounds " << max_rounds << '\n';
  if (target == FuzzTarget::kRecovery) {
    out << "checkpoint_every " << checkpoint_every << '\n';
  }
  if (target == FuzzTarget::kShard && committee_size != 0) {
    out << "committee_size " << committee_size << '\n';
  }
  for (const FaultAction& a : actions) {
    out << "action " << action_kind_name(a.kind) << ' ' << a.node << ' '
        << a.round << ' ';
    if (a.peer == kNoNode) {
      out << '*';
    } else {
      out << a.peer;
    }
    out << ' ' << a.param << '\n';
  }
  for (const std::string& v : expect_violations) {
    out << "expect_violation " << v << '\n';
  }
  if (!expect_digest.empty()) out << "expect_digest " << expect_digest << '\n';
  out << "end\n";
  return out.str();
}

std::optional<Schedule> Schedule::from_text(const std::string& text,
                                            std::string* error) {
  auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kMagic) {
    return fail("missing sgxp2p-schedule-v1 header");
  }
  Schedule s;
  bool saw_end = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "end") {
      saw_end = true;
      break;
    }
    if (key == "target") {
      std::string name;
      ls >> name;
      auto t = target_from(name);
      if (!t) return fail("unknown target '" + name + "'");
      s.target = *t;
    } else if (key == "n") {
      ls >> s.n;
    } else if (key == "t") {
      ls >> s.t;
    } else if (key == "seed") {
      ls >> s.seed;
    } else if (key == "rounds") {
      ls >> s.max_rounds;
    } else if (key == "checkpoint_every") {
      ls >> s.checkpoint_every;
    } else if (key == "committee_size") {
      ls >> s.committee_size;
    } else if (key == "action") {
      std::string kind_name, peer_str;
      FaultAction a;
      ls >> kind_name >> a.node >> a.round >> peer_str >> a.param;
      auto kind = action_kind_from(kind_name);
      if (!kind) return fail("unknown action kind '" + kind_name + "'");
      a.kind = *kind;
      if (peer_str == "*") {
        a.peer = kNoNode;
      } else {
        a.peer = static_cast<NodeId>(std::strtoul(peer_str.c_str(), nullptr, 10));
      }
      s.actions.push_back(a);
    } else if (key == "expect_violation") {
      std::string v;
      ls >> v;
      s.expect_violations.push_back(v);
    } else if (key == "expect_digest") {
      ls >> s.expect_digest;
    } else {
      return fail("unknown line '" + line + "'");
    }
    if (ls.fail()) return fail("malformed line '" + line + "'");
  }
  if (!saw_end) return fail("missing 'end' terminator");
  if (!s.validate(error)) return std::nullopt;
  return s;
}

bool Schedule::write_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << to_text();
  return static_cast<bool>(out);
}

std::optional<Schedule> Schedule::load_file(const std::string& path,
                                            std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return from_text(buf.str(), error);
}

}  // namespace sgxp2p::fuzz
