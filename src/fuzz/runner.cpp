#include "fuzz/runner.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <sstream>

#include "adversary/schedule_strategy.hpp"
#include "common/check.hpp"
#include "crypto/sha256.hpp"
#include "net/testbed.hpp"
#include "obs/causal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "protocol/erb_node.hpp"
#include "protocol/erng_basic.hpp"
#include "protocol/erng_opt.hpp"
#include "recovery/coordinator.hpp"
#include "recovery/recoverable_node.hpp"
#include "shard/coordinator.hpp"

namespace sgxp2p::fuzz {

namespace {

constexpr const char* kErbPayload = "fuzz erb payload";

/// The schedule's actions, split by who executes them: message-level faults
/// run inside each node's ScheduleStrategy; partitions and crashes are
/// driven by the runner's round hook; the recovery pivots parameterize the
/// RecoveryCoordinator.
struct CompiledSchedule {
  std::vector<std::vector<adversary::MsgFault>> per_node;
  std::vector<bool> stale;
  // round → [(node, rounds isolated)]
  std::map<std::uint32_t, std::vector<std::pair<NodeId, std::uint32_t>>>
      partitions;
  // round → nodes killed there (non-recovery targets only)
  std::map<std::uint32_t, std::vector<NodeId>> crashes;
  // Recovery pivots (0 = absent).
  NodeId victim = kNoNode;
  std::uint32_t crash_round = 0;
  std::uint32_t recover_round = 0;
};

adversary::MsgFaultKind msg_kind(ActionKind kind) {
  switch (kind) {
    case ActionKind::kDrop:
      return adversary::MsgFaultKind::kDrop;
    case ActionKind::kDelay:
      return adversary::MsgFaultKind::kDelay;
    case ActionKind::kDuplicate:
      return adversary::MsgFaultKind::kDuplicate;
    case ActionKind::kCorrupt:
      return adversary::MsgFaultKind::kCorrupt;
    default:
      return adversary::MsgFaultKind::kReorder;
  }
}

CompiledSchedule compile(const Schedule& s) {
  CompiledSchedule c;
  c.per_node.resize(s.n);
  c.stale.resize(s.n, false);
  for (const FaultAction& a : s.actions) {
    switch (a.kind) {
      case ActionKind::kDrop:
      case ActionKind::kDelay:
      case ActionKind::kDuplicate:
      case ActionKind::kCorrupt:
      case ActionKind::kReorder:
        c.per_node[a.node].push_back(
            {msg_kind(a.kind), a.round, a.peer, a.param});
        break;
      case ActionKind::kPartition:
        c.partitions[a.round].emplace_back(
            a.node, static_cast<std::uint32_t>(a.param));
        break;
      case ActionKind::kCrash:
        if (s.target == FuzzTarget::kRecovery) {
          c.victim = a.node;
          c.crash_round = a.round;
        } else {
          c.crashes[a.round].push_back(a.node);
        }
        break;
      case ActionKind::kRecover:
        c.recover_round = a.round;
        break;
      case ActionKind::kStaleSeal:
        c.stale[a.node] = true;
        break;
    }
  }
  return c;
}

std::vector<NodeId> honest_set(const Schedule& s) {
  std::vector<NodeId> faulted = s.faulted_nodes();
  std::vector<NodeId> honest;
  for (NodeId id = 0; id < s.n; ++id) {
    if (!std::binary_search(faulted.begin(), faulted.end(), id)) {
      honest.push_back(id);
    }
  }
  return honest;
}

/// One shared driver: builds the testbed, wires strategies + round hook,
/// runs, and leaves target-specific outcome collection to the caller.
struct RunContext {
  sim::Testbed bed;
  std::shared_ptr<adversary::ScheduleClock> clock;
  CompiledSchedule compiled;
  // Pending partition heals: round → cut pairs to release.
  std::map<std::uint32_t, std::vector<std::pair<NodeId, NodeId>>> heal_at;

  RunContext(const Schedule& s, obs::MetricsRegistry& registry)
      : bed(make_config(s, registry)),
        clock(std::make_shared<adversary::ScheduleClock>()),
        compiled(compile(s)) {
    // No round is "active" during the setup handshakes.
    clock->t0 = std::numeric_limits<SimTime>::max();
  }

  static sim::TestbedConfig make_config(const Schedule& s,
                                        obs::MetricsRegistry& registry) {
    sim::TestbedConfig cfg;
    cfg.n = s.n;
    cfg.t = s.t;
    cfg.seed = s.seed;
    cfg.net.base_delay = milliseconds(100);
    cfg.net.max_jitter = milliseconds(100);
    cfg.registry = &registry;
    return cfg;
  }

  [[nodiscard]] sim::Testbed::StrategyFactory strategy_factory() {
    return [this](NodeId id) -> std::unique_ptr<adversary::Strategy> {
      if (compiled.per_node[id].empty() && !compiled.stale[id]) return nullptr;
      return std::make_unique<adversary::ScheduleStrategy>(
          compiled.per_node[id], clock, compiled.stale[id]);
    };
  }

  /// Installs the partition/crash driver. Call AFTER any coordinator
  /// install() (this chains; set_round_hook replaces).
  void install_fault_hook(std::uint32_t n) {
    bed.add_round_hook([this, n](std::uint32_t round) {
      if (auto it = heal_at.find(round); it != heal_at.end()) {
        for (auto [a, b] : it->second) bed.network().unblock_link(a, b);
        heal_at.erase(it);
      }
      if (auto it = compiled.partitions.find(round);
          it != compiled.partitions.end()) {
        for (auto [node, len] : it->second) {
          for (NodeId peer = 0; peer < n; ++peer) {
            if (peer == node) continue;
            bed.network().block_link(node, peer);
            heal_at[round + len].emplace_back(node, peer);
          }
        }
      }
      if (auto it = compiled.crashes.find(round);
          it != compiled.crashes.end()) {
        for (NodeId node : it->second) {
          if (bed.has_enclave(node)) bed.kill_enclave(node);
        }
      }
    });
  }

  /// start() + clock fix-up; the strategies' round arithmetic is live after
  /// this.
  void start() {
    bed.start();
    clock->t0 = bed.start_time();
    clock->round_ms = bed.config().effective_round();
  }
};

std::string hex8(const Bytes& b) {
  return hex_encode(ByteView(b.data(), std::min<std::size_t>(8, b.size())));
}

void check_metrics_conservation(const obs::MetricsSnapshot& snap,
                                RunReport& report) {
  auto value = [&snap](const char* name) -> std::uint64_t {
    const obs::CounterSample* c = snap.find_counter(name);
    return c != nullptr ? c->value : 0;
  };
  const std::uint64_t sends = value("net.sends");
  const std::uint64_t delivered = value("net.delivered");
  const std::uint64_t bytes = value("net.bytes");
  const std::uint64_t delivered_bytes = value("net.delivered_bytes");
  if (delivered > sends) {
    report.violations.push_back(
        {oracle::kMetricsConservation,
         "net.delivered " + std::to_string(delivered) + " > net.sends " +
             std::to_string(sends)});
  }
  if (delivered_bytes > bytes) {
    report.violations.push_back(
        {oracle::kMetricsConservation,
         "net.delivered_bytes " + std::to_string(delivered_bytes) +
             " > net.bytes " + std::to_string(bytes)});
  }
}

void finalize(const Schedule& schedule, const obs::MetricsRegistry& registry,
              RunReport& report) {
  obs::MetricsSnapshot snap = registry.snapshot();
  check_metrics_conservation(snap, report);
  std::string material = snap.to_json() + "\n" + report.outcome + "\n" +
                         std::to_string(report.rounds);
  report.digest = hex_encode(crypto::Sha256::hash_bytes(
      ByteView(reinterpret_cast<const std::uint8_t*>(material.data()),
               material.size())));
  // Every coverage input (snapshot, violations, outcome, rounds) is part of
  // — or derived the same way as — the digest material, so the map inherits
  // the digest's same-seed byte-identity.
  report.coverage = compute_coverage(schedule, report.violated_oracles(),
                                     report.outcome, report.rounds, snap);
}

// ----- ERB ---------------------------------------------------------------

RunReport run_erb(const Schedule& s, const RunOptions& opts,
                  obs::MetricsRegistry& registry) {
  RunContext ctx(s, registry);
  const Bytes payload = to_bytes(kErbPayload);
  const NodeId initiator = 0;
  ctx.bed.build(
      [&payload, initiator](NodeId id, sgx::SgxPlatform& platform,
                            net::Host& host, protocol::PeerConfig pc,
                            const sgx::SimIAS& ias)
          -> std::unique_ptr<protocol::PeerEnclave> {
        return std::make_unique<protocol::ErbNode>(
            platform, id, host, pc, ias, initiator,
            id == initiator ? payload : Bytes{});
      },
      ctx.strategy_factory());
  ctx.install_fault_hook(s.n);
  ctx.start();

  const std::vector<NodeId> honest = honest_set(s);
  RunReport report;
  report.rounds = ctx.bed.run_rounds(s.max_rounds, [&]() {
    for (NodeId id : honest) {
      if (!ctx.bed.has_enclave(id) ||
          !ctx.bed.enclave_as<protocol::ErbNode>(id).result().decided) {
        return false;
      }
    }
    return true;
  });

  std::ostringstream outcome;
  bool have_ref = false;
  std::optional<Bytes> ref;
  const bool initiator_honest =
      std::find(honest.begin(), honest.end(), initiator) != honest.end();
  for (NodeId id = 0; id < s.n; ++id) {
    const bool is_honest =
        std::find(honest.begin(), honest.end(), id) != honest.end();
    if (!ctx.bed.has_enclave(id)) {
      outcome << id << ":dead ";
      continue;
    }
    const auto& r = ctx.bed.enclave_as<protocol::ErbNode>(id).result();
    outcome << id << (r.decided ? (r.value ? ":m=" + hex8(*r.value) : ":bot")
                                : ":undecided")
            << " ";
    if (!is_honest) continue;
    if (!r.decided) {
      report.violations.push_back(
          {oracle::kErbTermination,
           "honest node " + std::to_string(id) + " undecided after " +
               std::to_string(report.rounds) + " rounds"});
      continue;
    }
    if (!have_ref) {
      ref = r.value;
      have_ref = true;
    } else if (r.value != ref) {
      report.violations.push_back(
          {oracle::kErbAgreement,
           "honest node " + std::to_string(id) + " disagrees with the first "
           "honest decision"});
    }
    if (initiator_honest && (!r.value || *r.value != payload)) {
      report.violations.push_back(
          {oracle::kErbValidity,
           "initiator honest but node " + std::to_string(id) +
               " did not decide m"});
    }
    if (opts.canary && !r.value) {
      report.violations.push_back(
          {oracle::kCanaryNoBottom,
           "node " + std::to_string(id) + " decided ⊥"});
    }
  }
  report.outcome = outcome.str();
  finalize(s, registry, report);
  return report;
}

// ----- ERNG (basic + opt share the oracle shape) -------------------------

template <typename NodeT>
RunReport run_erng(const Schedule& s, obs::MetricsRegistry& registry,
                   const sim::Testbed::EnclaveFactory& factory) {
  RunContext ctx(s, registry);
  ctx.bed.build(factory, ctx.strategy_factory());
  ctx.install_fault_hook(s.n);
  ctx.start();

  const std::vector<NodeId> honest = honest_set(s);
  RunReport report;
  report.rounds = ctx.bed.run_rounds(s.max_rounds, [&]() {
    for (NodeId id : honest) {
      if (!ctx.bed.has_enclave(id) ||
          !ctx.bed.enclave_as<NodeT>(id).result().done) {
        return false;
      }
    }
    return true;
  });

  std::ostringstream outcome;
  bool have_ref = false;
  bool ref_bottom = false;
  Bytes ref_value;
  for (NodeId id = 0; id < s.n; ++id) {
    const bool is_honest =
        std::find(honest.begin(), honest.end(), id) != honest.end();
    if (!ctx.bed.has_enclave(id)) {
      outcome << id << ":dead ";
      continue;
    }
    const auto& r = ctx.bed.enclave_as<NodeT>(id).result();
    outcome << id
            << (r.done ? (r.is_bottom ? ":bot" : ":r=" + hex8(r.value))
                       : ":pending")
            << " ";
    if (!is_honest) continue;
    if (!r.done) {
      report.violations.push_back(
          {oracle::kErngTermination,
           "honest node " + std::to_string(id) + " has no output after " +
               std::to_string(report.rounds) + " rounds"});
      continue;
    }
    if (!have_ref) {
      ref_bottom = r.is_bottom;
      ref_value = r.value;
      have_ref = true;
    } else if (r.is_bottom != ref_bottom ||
               (!r.is_bottom && r.value != ref_value)) {
      report.violations.push_back(
          {oracle::kErngAgreement,
           "honest node " + std::to_string(id) +
               " output differs from the first honest output"});
    }
  }
  report.outcome = outcome.str();
  finalize(s, registry, report);
  return report;
}

// ----- Recovery ----------------------------------------------------------

RunReport run_recovery(const Schedule& s, obs::MetricsRegistry& registry) {
  RunContext ctx(s, registry);
  const std::uint32_t roster_n = s.n - 1;
  const NodeId extra = s.n - 1;  // joins fresh — the liveness proof
  const bool recovers = ctx.compiled.recover_round != 0;

  // Join plan, derived purely from the schedule so replays are identical.
  // recovery_windows() is the same geometry Schedule::min_rounds uses, so a
  // validated schedule always has enough rounds for the last window here.
  const RecoveryWindows rw = recovery_windows(s);
  std::vector<protocol::JoinPlanEntry> join_plan(rw.w_extra + 1);
  if (recovers) {
    join_plan[rw.w_rejoin] = {ctx.compiled.victim, NodeId{0}, true};
    join_plan[rw.w_rejoin + 1] = {ctx.compiled.victim, NodeId{2}, true};
  }
  join_plan[rw.w_extra] = {extra, NodeId{0}, false};

  std::vector<NodeId> roster0;
  for (NodeId id = 0; id < roster_n; ++id) roster0.push_back(id);
  sim::Testbed::EnclaveFactory factory =
      [roster0, join_plan](NodeId id, sgx::SgxPlatform& platform,
                           net::Host& host, protocol::PeerConfig pc,
                           const sgx::SimIAS& ias)
      -> std::unique_ptr<protocol::PeerEnclave> {
    return std::make_unique<recovery::RecoverableNode>(platform, id, host, pc,
                                                       ias, roster0, join_plan);
  };
  ctx.bed.build(factory, ctx.strategy_factory());

  recovery::RecoveryPlan plan;
  plan.victim = ctx.compiled.victim;
  plan.crash_round = ctx.compiled.crash_round;
  plan.recover_round = ctx.compiled.recover_round;
  plan.checkpoint_interval = s.checkpoint_every;
  recovery::RecoveryCoordinator coord(ctx.bed, factory, plan);
  coord.install();                 // takes the primary round hook…
  ctx.install_fault_hook(s.n);     // …and the fault driver chains after it
  ctx.start();

  const std::vector<NodeId> honest = honest_set(s);
  auto converged = [&]() {
    if (recovers && !coord.rejoin_complete()) return false;
    for (NodeId id : honest) {
      if (!ctx.bed.has_enclave(id)) return false;
      auto& node = ctx.bed.enclave_as<recovery::RecoverableNode>(id);
      const auto& roster = node.roster();
      if (!node.is_member() ||
          std::find(roster.begin(), roster.end(), extra) == roster.end()) {
        return false;
      }
    }
    return true;
  };
  RunReport report;
  report.rounds = ctx.bed.run_rounds(s.max_rounds, converged);

  std::ostringstream outcome;
  for (NodeId id = 0; id < s.n; ++id) {
    if (!ctx.bed.has_enclave(id)) {
      outcome << id << ":dead ";
      continue;
    }
    auto& node = ctx.bed.enclave_as<recovery::RecoverableNode>(id);
    outcome << id << (node.is_member() ? ":member" : ":out") << "/r"
            << node.roster().size() << " ";
  }
  outcome << "rejoin=" << (coord.rejoin_complete() ? 1 : 0)
          << " fallback=" << (coord.used_fresh_fallback() ? 1 : 0);
  report.outcome = outcome.str();

  if (!converged()) {
    report.violations.push_back(
        {oracle::kRecoveryLiveness,
         "honest roster did not converge (rejoin/fresh join incomplete) "
         "after " + std::to_string(report.rounds) + " rounds"});
  }
  if (recovers) {
    // Checkpoints land at rounds k, 2k, … strictly before the crash, so the
    // store's depth at relaunch is a schedule constant — which makes the
    // restore outcome exactly predictable.
    const std::uint32_t depth =
        (ctx.compiled.crash_round - 1) / s.checkpoint_every;
    const bool stale = ctx.compiled.victim != kNoNode &&
                       ctx.compiled.stale[ctx.compiled.victim];
    if (depth == 0) {
      if (!coord.used_fresh_fallback()) {
        report.violations.push_back(
            {oracle::kRecoveryRestore,
             "no checkpoint existed yet the relaunch did not fall back"});
      }
    } else if (stale && depth >= 2) {
      if (coord.restore_outcome() != recovery::RestoreOutcome::kStale ||
          !coord.used_fresh_fallback()) {
        report.violations.push_back(
            {oracle::kRecoveryStaleDetect,
             "stale seal replay was not detected as a rollback"});
      }
    } else {  // honest host, or stale replay of a single (= newest) seal
      if (coord.restore_outcome() != recovery::RestoreOutcome::kRestored ||
          coord.used_fresh_fallback()) {
        report.violations.push_back(
            {oracle::kRecoveryRestore,
             "valid newest seal was not restored at relaunch"});
      }
    }
  }
  finalize(s, registry, report);
  return report;
}

// ----- Shard -------------------------------------------------------------

RunReport run_shard(const Schedule& s, obs::MetricsRegistry& registry) {
  RunContext ctx(s, registry);
  ctx.bed.build(shard::ShardCoordinator::make_factory(),
                ctx.strategy_factory());
  ctx.install_fault_hook(s.n);
  ctx.start();

  const std::vector<NodeId> honest = honest_set(s);
  shard::ShardConfig cfg;
  cfg.committee_size = s.committee_size;
  cfg.epochs = 2;  // two chained epochs exercise the beacon handoff
  cfg.is_honest = [honest](NodeId id) {
    return std::binary_search(honest.begin(), honest.end(), id);
  };
  shard::ShardCoordinator coord(ctx.bed, std::move(cfg));
  const std::vector<shard::EpochSummary> epochs = coord.run_all();

  RunReport report;
  report.rounds = ctx.bed.rounds_run();
  std::ostringstream outcome;
  for (const shard::EpochSummary& e : epochs) {
    outcome << "e" << e.epoch << ":" << hex8(e.global_digest) << "/"
            << e.decided << "of" << e.honest << " ";
    const std::string at = " (epoch " + std::to_string(e.epoch) + ")";
    if (!e.termination) {
      report.violations.push_back(
          {oracle::kShardTermination,
           std::to_string(e.honest - e.decided) +
               " honest node(s) undecided after " +
               std::to_string(e.rounds_used) + " rounds" + at});
    }
    if (!e.agreement) {
      report.violations.push_back(
          {oracle::kShardAgreement,
           "honest nodes hold divergent digests" + at});
    }
    if (!e.validity) {
      report.violations.push_back(
          {oracle::kShardValidity,
           "agreed digest does not match the bottom-up recomputation" + at});
    }
  }
  report.outcome = outcome.str();
  finalize(s, registry, report);
  return report;
}

}  // namespace

namespace {

/// Parses the just-recorded causal trace and turns every DAG defect into a
/// causal.conservation violation. Runs after finalize(): tracing never feeds
/// back into metrics, so the digest is identical with the oracle on or off.
void check_causal_conservation(const obs::TraceRecorder& tr,
                               RunReport& report) {
  std::string error;
  auto graph = obs::CausalGraph::parse(tr.to_jsonl(), &error);
  if (!graph) {
    report.violations.push_back(
        {oracle::kCausalConservation, "trace unparsable: " + error});
    return;
  }
  for (const std::string& defect : graph->check_conservation()) {
    report.violations.push_back({oracle::kCausalConservation, defect});
  }
}

}  // namespace

RunReport run_schedule(const Schedule& schedule, const RunOptions& options) {
  std::string error;
  CHECK_MSG(schedule.validate(&error), "run_schedule: invalid schedule");
  obs::MetricsRegistry registry;
  obs::MetricsRegistry::ScopedCurrent scoped(registry);
  obs::TraceRecorder& tr = obs::TraceRecorder::global();
  const bool was_tracing = tr.enabled();
  if (options.check_causal) {
    tr.enable();  // fresh spans — enable() resets the ring and counters
    tr.reset();
  }
  RunReport report;
  switch (schedule.target) {
    case FuzzTarget::kErb:
      report = run_erb(schedule, options, registry);
      break;
    case FuzzTarget::kErngBasic:
      report = run_erng<protocol::ErngBasicNode>(
          schedule, registry,
          [](NodeId id, sgx::SgxPlatform& platform, net::Host& host,
             protocol::PeerConfig pc, const sgx::SimIAS& ias)
              -> std::unique_ptr<protocol::PeerEnclave> {
            return std::make_unique<protocol::ErngBasicNode>(platform, id,
                                                             host, pc, ias);
          });
      break;
    case FuzzTarget::kErngOpt:
      report = run_erng<protocol::ErngOptNode>(
          schedule, registry,
          [](NodeId id, sgx::SgxPlatform& platform, net::Host& host,
             protocol::PeerConfig pc, const sgx::SimIAS& ias)
              -> std::unique_ptr<protocol::PeerEnclave> {
            return std::make_unique<protocol::ErngOptNode>(platform, id, host,
                                                           pc, ias);
          });
      break;
    case FuzzTarget::kRecovery:
      report = run_recovery(schedule, registry);
      break;
    case FuzzTarget::kShard:
      report = run_shard(schedule, registry);
      break;
    default:
      CHECK_MSG(false, "run_schedule: unknown target");
  }
  if (options.check_causal) {
    check_causal_conservation(tr, report);
    if (!was_tracing) tr.disable();
  }
  return report;
}

}  // namespace sgxp2p::fuzz
