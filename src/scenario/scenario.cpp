#include "scenario/scenario.hpp"

#include <algorithm>
#include <numeric>

#include "common/check.hpp"
#include "protocol/eba.hpp"
#include "recovery/recoverable_node.hpp"

namespace sgxp2p::scenario {

// ----- config rules -------------------------------------------------------

sim::NetworkConfig network(SimDuration delta) {
  sim::NetworkConfig net;
  net.base_delay = delta / 2;
  net.max_jitter = delta - delta / 2;
  return net;
}

sim::TestbedConfig sim_config(std::uint32_t n, std::uint64_t seed,
                              SimDuration delta, protocol::ChannelMode mode) {
  sim::TestbedConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.net = network(delta);
  cfg.mode = mode;
  return cfg;
}

std::uint32_t erng_opt_t(std::uint32_t n) {
  const std::uint32_t t = std::max(1u, n / 3);
  return 2 * t >= n ? (n - 1) / 2 : t;
}

sim::Testbed::StrategyFactory chain(std::uint32_t f) {
  if (f == 0) return {};
  auto plan = std::make_shared<adversary::ChainPlan>();
  for (NodeId id = 0; id < f; ++id) plan->order.push_back(id);
  plan->release = adversary::ChainPlan::Release::kSingleHonest;
  plan->honest_target = f;
  return [plan, f](NodeId id) -> std::unique_ptr<adversary::Strategy> {
    if (id < f) return std::make_unique<adversary::ChainStrategy>(plan);
    return nullptr;
  };
}

// ----- factories ----------------------------------------------------------

Factory erb_factory(NodeId initiator, Bytes payload, bool enable_halt) {
  return [initiator, payload = std::move(payload), enable_halt](
             NodeId id, sgx::SgxPlatform& platform,
             sgx::EnclaveHostIface& host, protocol::PeerConfig cfg,
             const sgx::SimIAS& ias) -> std::unique_ptr<protocol::PeerEnclave> {
    return std::make_unique<protocol::ErbNode>(
        platform, id, host, cfg, ias, initiator,
        id == initiator ? payload : Bytes{}, enable_halt);
  };
}

Factory erng_basic_factory() {
  return [](NodeId id, sgx::SgxPlatform& platform, sgx::EnclaveHostIface& host,
            protocol::PeerConfig cfg,
            const sgx::SimIAS& ias) -> std::unique_ptr<protocol::PeerEnclave> {
    return std::make_unique<protocol::ErngBasicNode>(platform, id, host, cfg,
                                                     ias);
  };
}

Factory erng_opt_factory(protocol::ErngOptParams params) {
  return [params](NodeId id, sgx::SgxPlatform& platform,
                  sgx::EnclaveHostIface& host, protocol::PeerConfig cfg,
                  const sgx::SimIAS& ias)
             -> std::unique_ptr<protocol::PeerEnclave> {
    return std::make_unique<protocol::ErngOptNode>(platform, id, host, cfg,
                                                   ias, params);
  };
}

Factory recoverable_factory(std::vector<NodeId> roster,
                            std::vector<protocol::JoinPlanEntry> plan) {
  return [roster = std::move(roster), plan = std::move(plan)](
             NodeId id, sgx::SgxPlatform& platform,
             sgx::EnclaveHostIface& host, protocol::PeerConfig cfg,
             const sgx::SimIAS& ias) -> std::unique_ptr<protocol::PeerEnclave> {
    return std::make_unique<recovery::RecoverableNode>(platform, id, host, cfg,
                                                       ias, roster, plan);
  };
}

// ----- one report per run -------------------------------------------------

bool Report::honest_done() const {
  return std::all_of(nodes.begin(), nodes.end(), [](const NodeReport& r) {
    return !r.honest || (r.live && r.done);
  });
}

double Report::termination_s() const {
  SimTime latest = 0;
  for (const NodeReport& r : nodes) {
    if (r.honest) latest = std::max(latest, r.decided_at);
  }
  return to_seconds(latest - start);
}

namespace {

NodeReport decision(bool done, const std::optional<Bytes>& value,
                    SimTime decided_at) {
  return {.live = true,
          .done = done,
          .bottom = !value,
          .value = value.value_or(Bytes{}),
          .decided_at = decided_at};
}

template <typename NodeT>
NodeReport erng_report(const NodeT& node) {
  const auto& r = node.result();
  return {.live = true,
          .done = r.done,
          .bottom = r.is_bottom,
          .value = r.value,
          .decided_at = r.decided_at};
}

}  // namespace

NodeReport node_report(const protocol::PeerEnclave& enclave) {
  if (const auto* erb = dynamic_cast<const protocol::ErbNode*>(&enclave)) {
    const auto& r = erb->result();
    return decision(r.decided, r.value, r.decided_at);
  }
  if (const auto* eba = dynamic_cast<const protocol::EbaNode*>(&enclave)) {
    const auto& r = eba->result();
    return decision(r.done, r.decision, r.decided_at);
  }
  if (const auto* basic =
          dynamic_cast<const protocol::ErngBasicNode*>(&enclave)) {
    return erng_report(*basic);
  }
  const auto* opt = dynamic_cast<const protocol::ErngOptNode*>(&enclave);
  CHECK_MSG(opt != nullptr, "node_report: not an ERB, ERNG or EBA enclave");
  return erng_report(*opt);
}

namespace {

// Shared by both testbeds; the TcpTestbed's run_rounds evaluates its stop
// predicate under the state lock, and collect() takes the lock itself.
template <typename Bed>
bool all_done(Bed& bed, const std::vector<NodeId>& honest) {
  return std::all_of(honest.begin(), honest.end(), [&bed](NodeId id) {
    return bed.has_enclave(id) && node_report(bed.enclave(id)).done;
  });
}

template <typename Bed>
Report collect_nodes(Bed& bed, std::uint32_t n, std::uint32_t rounds,
                     const std::vector<NodeId>& honest) {
  Report report;
  report.rounds = rounds;
  report.nodes.resize(n);
  for (NodeId id = 0; id < n; ++id) {
    NodeReport& r = report.nodes[id];
    if (bed.has_enclave(id)) r = node_report(bed.enclave(id));
    r.honest = std::find(honest.begin(), honest.end(), id) != honest.end();
  }
  return report;
}

}  // namespace

std::function<bool()> honest_done(sim::Testbed& bed) {
  return [&bed]() { return all_done(bed, bed.honest_nodes()); };
}

std::function<bool()> honest_done(sim::Testbed& bed,
                                  std::vector<NodeId> honest) {
  return [&bed, honest = std::move(honest)]() { return all_done(bed, honest); };
}

std::function<bool()> honest_done(net::TcpTestbed& bed,
                                  std::vector<NodeId> honest) {
  return [&bed, honest = std::move(honest)]() { return all_done(bed, honest); };
}

Report collect(sim::Testbed& bed, std::uint32_t rounds) {
  return collect(bed, rounds, bed.honest_nodes());
}

Report collect(sim::Testbed& bed, std::uint32_t rounds,
               const std::vector<NodeId>& honest) {
  Report report = collect_nodes(bed, bed.config().n, rounds, honest);
  report.start = bed.start_time();
  report.messages = bed.network().meter().messages();
  report.bytes = bed.network().meter().bytes();
  return report;
}

Report collect(net::TcpTestbed& bed, std::uint32_t rounds,
               const std::vector<NodeId>& honest) {
  return bed.locked(
      [&] { return collect_nodes(bed, bed.config().n, rounds, honest); });
}

namespace {

Report run(const sim::TestbedConfig& cfg, const Factory& factory,
           std::uint32_t max_rounds,
           const sim::Testbed::StrategyFactory& strategies = {}) {
  sim::Testbed bed(cfg);
  bed.build(factory, strategies);
  bed.start();
  return collect(bed, bed.run_rounds(max_rounds, honest_done(bed)));
}

}  // namespace

Report run_erb(const sim::TestbedConfig& cfg, const Bytes& payload,
               std::uint32_t f, bool enable_halt) {
  return run(cfg, erb_factory(0, payload, enable_halt),
             t_budget(cfg.effective_t()), chain(f));
}

Report run_erng_basic(const sim::TestbedConfig& cfg) {
  return run(cfg, erng_basic_factory(), t_budget(cfg.effective_t()));
}

Report run_erng_opt(sim::TestbedConfig cfg, protocol::ErngOptParams params) {
  cfg.t = erng_opt_t(cfg.n);
  return run(cfg, erng_opt_factory(params), n_budget(cfg.n));
}

// ----- crash recovery -----------------------------------------------------

RecoveryWindows recovery_windows(std::uint32_t t, std::uint32_t crash_round,
                                 std::uint32_t recover_round) {
  RecoveryWindows w;
  w.W = t + 2;
  if (recover_round != 0) {
    w.w_rejoin = (recover_round - 1 + w.W - 1) / w.W;
    w.w_extra = w.w_rejoin + 2;
  } else {
    w.w_extra = crash_round != 0 ? crash_round / w.W + 1 : 1;
  }
  return w;
}

std::vector<protocol::JoinPlanEntry> join_plan(const RecoveryWindows& w,
                                               NodeId rejoiner, NodeId joiner) {
  std::vector<protocol::JoinPlanEntry> plan(w.w_extra + 1);
  if (rejoiner != kNoNode) {
    plan[w.w_rejoin] = {rejoiner, NodeId{0}, true};
    plan[w.w_rejoin + 1] = {rejoiner, NodeId{2}, true};  // sponsor retry
  }
  if (joiner != kNoNode) plan[w.w_extra] = {joiner, NodeId{0}, false};
  return plan;
}

Recovery::Recovery(sim::Testbed& bed, NodeId victim, std::uint32_t crash_round,
                   std::uint32_t recover_round, std::uint32_t checkpoint_every,
                   const sim::Testbed::StrategyFactory& strategies)
    : bed_(&bed),
      joiner_(bed.config().n - 1),
      rejoins_(recover_round != 0),
      windows_(recovery_windows(bed.config().effective_t(), crash_round,
                                recover_round)) {
  std::vector<NodeId> roster;
  for (NodeId id = 0; id < joiner_; ++id) roster.push_back(id);
  Factory factory = recoverable_factory(
      std::move(roster),
      join_plan(windows_, rejoins_ ? victim : kNoNode, joiner_));
  bed.build(factory, strategies);
  recovery::RecoveryPlan plan;
  plan.victim = victim;
  plan.crash_round = crash_round;
  plan.recover_round = recover_round;
  plan.checkpoint_interval = checkpoint_every;
  coord_ = std::make_unique<recovery::RecoveryCoordinator>(
      bed, std::move(factory), plan);
  coord_->install();
}

bool Recovery::converged(const std::vector<NodeId>& nodes) const {
  if (rejoins_ && !coord_->rejoin_complete()) return false;
  return std::all_of(nodes.begin(), nodes.end(), [this](NodeId id) {
    if (!bed_->has_enclave(id)) return false;
    auto& node = bed_->enclave_as<recovery::RecoverableNode>(id);
    const auto& roster = node.roster();
    return node.is_member() &&
           std::find(roster.begin(), roster.end(), joiner_) != roster.end();
  });
}

bool Recovery::converged() const {
  std::vector<NodeId> all(bed_->config().n);
  std::iota(all.begin(), all.end(), NodeId{0});
  return converged(all) &&
         std::all_of(all.begin(), all.end(), [this, &all](NodeId id) {
           return bed_->enclave_as<recovery::RecoverableNode>(id)
                      .roster()
                      .size() == all.size();
         });
}

}  // namespace sgxp2p::scenario
