#include "fuzz/mcheck.hpp"

#include <algorithm>
#include <set>
#include <tuple>
#include <unordered_set>

#include "common/check.hpp"
#include "common/log.hpp"
#include "fuzz/runner.hpp"
#include "fuzz/shrinker.hpp"
#include "obs/metrics.hpp"
#include "scenario/scenario.hpp"

namespace sgxp2p::fuzz {

namespace {

// ----- Base deployment ---------------------------------------------------

/// Roster members a recovery schedule may fault: everyone except the
/// sponsors (0 and 2) and the fresh joiner (n − 1).
std::vector<NodeId> recovery_victims(std::uint32_t n) {
  std::vector<NodeId> out;
  for (NodeId id = 1; id + 1 < n; ++id) {
    if (id != 2) out.push_back(id);
  }
  return out;
}

/// Largest liveness floor any alphabet combination can demand. Only the
/// recovery target's floor depends on the actions (the rejoin window moves
/// with the recover round), so probe every (crash, recover) pair inside the
/// horizon; the base schedule's max_rounds must cover the worst one or
/// validate would prune those combinations as "rounds below the horizon".
std::uint32_t recovery_round_budget(const Schedule& base,
                                    std::uint32_t horizon) {
  std::uint32_t best = base.min_rounds();
  const NodeId victim = 1;  // min_rounds only reads the rounds, not the node
  for (std::uint32_t crash = 1; crash <= horizon; ++crash) {
    Schedule s = base;
    s.actions = {{ActionKind::kCrash, victim, crash, kNoNode, 0}};
    best = std::max(best, s.min_rounds());
    for (std::uint32_t rec = crash + 1; rec <= horizon; ++rec) {
      Schedule s2 = base;
      s2.actions = {{ActionKind::kCrash, victim, crash, kNoNode, 0},
                    {ActionKind::kRecover, victim, rec, kNoNode, 0}};
      best = std::max(best, s2.min_rounds());
    }
  }
  return best;
}

Schedule base_schedule(const ModelCheckOptions& opt) {
  Schedule s;
  s.target = opt.target;
  s.seed = opt.seed;
  switch (opt.target) {
    case FuzzTarget::kErb:
    case FuzzTarget::kErngBasic:
      s.n = std::max(opt.n, 3u);
      s.t = (s.n - 1) / 2;
      break;
    case FuzzTarget::kErngOpt:
      s.n = std::max(opt.n, 3u);
      s.t = scenario::erng_opt_t(s.n);
      break;
    case FuzzTarget::kRecovery:
      s.n = std::max(opt.n, 5u);  // roster + fresh joiner
      s.t = (s.n - 2) / 2;
      s.checkpoint_every = 2;
      break;
    case FuzzTarget::kShard:
      s.n = std::max(opt.n, 4u);
      s.committee_size = 4;
      s.t = std::min((s.committee_size - 1) / 2, (s.n - 1) / 2);
      break;
  }
  s.max_rounds = opt.target == FuzzTarget::kRecovery
                     ? recovery_round_budget(s, opt.rounds)
                     : std::max(s.min_rounds(), opt.rounds);
  std::string error;
  CHECK_MSG(s.validate(&error), "mcheck base schedule unsound");
  return s;
}

// ----- Fault alphabet ----------------------------------------------------

/// The quantized alphabet, in the pruning-critical order crash < recover <
/// stale_seal < message faults (see mcheck.hpp): DFS extends subsets with
/// higher indices only, so with recovers below everything else an invalid
/// subset (e.g. a recover with no crash) can never become valid again by
/// extension — validity pruning stays sound.
std::vector<FaultAction> build_alphabet(const Schedule& base,
                                        const ModelCheckOptions& opt) {
  std::vector<FaultAction> out;
  std::vector<NodeId> nodes;
  if (base.target == FuzzTarget::kRecovery) {
    nodes = recovery_victims(base.n);
  } else {
    for (NodeId id = 0; id < base.n; ++id) nodes.push_back(id);
  }
  const std::uint32_t horizon = std::min(opt.rounds, base.max_rounds);

  for (NodeId node : nodes) {
    for (std::uint32_t round = 1; round <= horizon; ++round) {
      out.push_back({ActionKind::kCrash, node, round, kNoNode, 0});
    }
  }
  if (base.target == FuzzTarget::kRecovery) {
    for (NodeId node : nodes) {
      for (std::uint32_t round = 2; round <= horizon; ++round) {
        out.push_back({ActionKind::kRecover, node, round, kNoNode, 0});
      }
    }
    for (NodeId node : nodes) {
      out.push_back({ActionKind::kStaleSeal, node, 1, kNoNode, 0});
    }
  }
  // One representative per message-fault param class; peers stay kNoNode
  // (the broadcast flavor dominates the selective one at these sizes, and
  // per-peer entries would square the alphabet).
  struct MsgKind {
    ActionKind kind;
    std::uint64_t param;
  };
  constexpr MsgKind kMenu[] = {
      {ActionKind::kDrop, 0},          {ActionKind::kDelay, 600},
      {ActionKind::kDuplicate, 100},   {ActionKind::kCorrupt, 0x5eed5eed},
      {ActionKind::kReorder, 0},       {ActionKind::kPartition, 1},
  };
  for (const MsgKind& m : kMenu) {
    for (NodeId node : nodes) {
      for (std::uint32_t round = 1; round <= horizon; ++round) {
        out.push_back({m.kind, node, round, kNoNode, m.param});
      }
    }
  }
  return out;
}

// ----- Symmetry canonicalization -----------------------------------------

/// Node classes whose members the target treats interchangeably. Shard gets
/// none: committee placement is a seed-dependent election, so distinct ids
/// genuinely land in distinct committees.
std::vector<std::vector<NodeId>> symmetry_classes(const Schedule& base) {
  std::vector<std::vector<NodeId>> classes;
  switch (base.target) {
    case FuzzTarget::kErb: {  // initiator 0 is pinned; the rest echo alike
      std::vector<NodeId> rest;
      for (NodeId id = 1; id < base.n; ++id) rest.push_back(id);
      if (rest.size() > 1) classes.push_back(std::move(rest));
      break;
    }
    case FuzzTarget::kErngBasic: {  // fully symmetric roster
      std::vector<NodeId> all;
      for (NodeId id = 0; id < base.n; ++id) all.push_back(id);
      classes.push_back(std::move(all));
      break;
    }
    case FuzzTarget::kErngOpt: {  // fallback cluster vs the rest
      const NodeId n_c = static_cast<NodeId>((2 * base.n + 2) / 3);
      std::vector<NodeId> cluster, rest;
      for (NodeId id = 0; id < base.n; ++id) {
        (id < n_c ? cluster : rest).push_back(id);
      }
      if (cluster.size() > 1) classes.push_back(std::move(cluster));
      if (rest.size() > 1) classes.push_back(std::move(rest));
      break;
    }
    case FuzzTarget::kRecovery: {  // the plain (non-sponsor) members
      std::vector<NodeId> plain = recovery_victims(base.n);
      if (plain.size() > 1) classes.push_back(std::move(plain));
      break;
    }
    case FuzzTarget::kShard:
      break;
  }
  return classes;
}

std::string serialize_actions(std::vector<FaultAction> actions) {
  std::sort(actions.begin(), actions.end(),
            [](const FaultAction& a, const FaultAction& b) {
              return std::tie(a.kind, a.node, a.round, a.peer, a.param) <
                     std::tie(b.kind, b.node, b.round, b.peer, b.param);
            });
  std::string out;
  for (const FaultAction& a : actions) {
    out += std::to_string(static_cast<int>(a.kind)) + ":" +
           std::to_string(a.node) + ":" + std::to_string(a.round) + ":" +
           std::to_string(a.peer) + ":" + std::to_string(a.param) + ";";
  }
  return out;
}

/// Canonical key: lexicographic minimum, over every product of within-class
/// node permutations, of the permuted-and-sorted action list. Two subsets
/// share a key iff one is a class-respecting relabeling of the other.
class Canonicalizer {
 public:
  Canonicalizer(const Schedule& base)
      : n_(base.n), classes_(symmetry_classes(base)) {}

  [[nodiscard]] std::string key(const std::vector<FaultAction>& actions) {
    std::vector<NodeId> perm(n_);
    for (NodeId id = 0; id < n_; ++id) perm[id] = id;
    best_.clear();
    apply_class(actions, perm, 0);
    return best_;
  }

 private:
  void apply_class(const std::vector<FaultAction>& actions,
                   std::vector<NodeId>& perm, std::size_t ci) {
    if (ci == classes_.size()) {
      std::vector<FaultAction> mapped = actions;
      for (FaultAction& a : mapped) {
        a.node = perm[a.node];
        if (a.peer != kNoNode) a.peer = perm[a.peer];
      }
      std::string s = serialize_actions(std::move(mapped));
      if (best_.empty() || s < best_) best_ = std::move(s);
      return;
    }
    const std::vector<NodeId>& members = classes_[ci];
    std::vector<NodeId> image = members;  // ascending = first permutation
    do {
      for (std::size_t i = 0; i < members.size(); ++i) {
        perm[members[i]] = image[i];
      }
      apply_class(actions, perm, ci + 1);
    } while (std::next_permutation(image.begin(), image.end()));
    for (NodeId id : members) perm[id] = id;
  }

  NodeId n_;
  std::vector<std::vector<NodeId>> classes_;
  std::string best_;
};

// ----- The search --------------------------------------------------------

std::string repro_filename(const ModelCheckOptions& opt, std::size_t k) {
  std::string name = "mcheck-" + std::string(target_name(opt.target)) + "-n" +
                     std::to_string(opt.n) + "-r" + std::to_string(opt.rounds) +
                     "-" + std::to_string(k) + ".sched";
  if (opt.out_dir.empty()) return name;
  std::string dir = opt.out_dir;
  if (dir.back() != '/') dir += '/';
  return dir + name;
}

struct Search {
  const ModelCheckOptions& opt;
  Schedule base;
  std::vector<FaultAction> alphabet;
  Canonicalizer canon;
  RunOptions run_options;
  ModelCheckResult result;
  std::unordered_set<std::string> seen;
  std::set<std::vector<std::string>> emitted;  // distinct violation sets
  bool stopped = false;

  // mcheck.* bookkeeping lives on the ambient (campaign-level) registry,
  // captured once here — run_schedule rebinds current() per run, so these
  // handles must never be resolved inside the loop (same discipline as
  // run_campaign).
  obs::Counter& c_explored =
      obs::MetricsRegistry::current().counter("mcheck.states_explored");
  obs::Counter& c_pruned =
      obs::MetricsRegistry::current().counter("mcheck.states_pruned");
  obs::Counter& c_violations =
      obs::MetricsRegistry::current().counter("mcheck.violations");

  explicit Search(const ModelCheckOptions& options)
      : opt(options), base(base_schedule(options)),
        alphabet(build_alphabet(base, options)), canon(base) {
    run_options.canary = options.canary;
  }

  Schedule make(const std::vector<FaultAction>& chosen) const {
    Schedule s = base;
    s.actions = chosen;
    return s;
  }

  void prune(std::uint64_t count = 1) {
    result.states_pruned += count;
    c_pruned.inc(count);
  }

  void run(const std::vector<FaultAction>& chosen) {
    if (opt.max_states != 0 && result.states_explored >= opt.max_states) {
      result.exhausted = false;
      stopped = true;
      return;
    }
    Schedule s = make(chosen);
    RunReport report = run_schedule(s, run_options);
    ++result.states_explored;
    c_explored.inc();
    result.coverage.merge(report.coverage);
    if (report.passed()) return;
    ++result.violations_found;
    c_violations.inc();
    std::vector<std::string> set = report.violated_oracles();
    if (!emitted.insert(set).second ||
        result.violations.size() >= opt.max_emitted) {
      return;
    }
    LOG_WARN("mcheck: ", target_name(opt.target), " state ",
             result.states_explored, " violated ", report.violations.size(),
             " oracle(s); shrinking");
    ShrinkResult shrunk = shrink(s, run_options, opt.shrink_budget);
    ModelCheckViolation v;
    v.shrunk = shrunk.schedule;
    v.report = shrunk.report;
    v.shrink_runs = shrunk.runs;
    v.shrunk.expect_violations = shrunk.report.violated_oracles();
    v.shrunk.expect_digest = shrunk.report.digest;
    std::string path = repro_filename(opt, result.violations.size());
    v.repro_path = v.shrunk.write_file(path) ? path : "";
    if (v.repro_path.empty()) {
      LOG_ERROR("mcheck: cannot write reproducer to ", path);
    }
    result.violations.push_back(std::move(v));
  }

  /// Enumerates every subset extending `chosen` with alphabet indices ≥
  /// `next`, running each canonical-new valid one. Invalid extensions cut
  /// their subtree (sound: see the ordering argument in mcheck.hpp);
  /// symmetry twins skip only the run, never the recursion, so every
  /// subset is still enumerated exactly once.
  void visit(std::vector<FaultAction>& chosen, std::size_t next) {
    if (stopped) return;
    if (seen.insert(canon.key(chosen)).second) {
      run(chosen);
    } else {
      prune();
    }
    if (chosen.size() >= opt.bound) return;
    for (std::size_t i = next; i < alphabet.size() && !stopped; ++i) {
      chosen.push_back(alphabet[i]);
      if (make(chosen).validate(nullptr)) {
        visit(chosen, i + 1);
      } else {
        prune(subtree_size(chosen.size(), i + 1));
      }
      chosen.pop_back();
    }
  }

  /// Number of subsets an invalid branch cuts (itself plus every extension
  /// within the bound) — keeps states_pruned an honest account of the
  /// space NOT run rather than a count of cut points (Stress-SGX's lesson:
  /// keep explored-state accounting honest).
  [[nodiscard]] std::uint64_t subtree_size(std::size_t depth,
                                           std::size_t next) const {
    const std::uint64_t remaining = alphabet.size() - next;
    std::uint64_t total = 1;  // the invalid subset itself
    std::uint64_t term = 1;
    const std::size_t extra = opt.bound > depth ? opt.bound - depth : 0;
    for (std::size_t k = 1; k <= extra; ++k) {
      term = term * (remaining - (k - 1)) / k;  // C(remaining, k)
      total += term;
    }
    return total;
  }
};

}  // namespace

ModelCheckResult check_model(const ModelCheckOptions& options) {
  Search search(options);
  std::vector<FaultAction> chosen;
  search.visit(chosen, 0);
  return std::move(search.result);
}

}  // namespace sgxp2p::fuzz
