#include "recovery/coordinator.hpp"

#include "common/check.hpp"
#include "obs/trace.hpp"

namespace sgxp2p::recovery {

namespace {
RecoverableNode* as_recoverable(sim::Testbed& bed, NodeId id) {
  if (!bed.has_enclave(id)) return nullptr;
  return dynamic_cast<RecoverableNode*>(&bed.enclave(id));
}
}  // namespace

RecoveryCoordinator::RecoveryCoordinator(sim::Testbed& bed,
                                         sim::Testbed::EnclaveFactory factory,
                                         RecoveryPlan plan)
    : bed_(&bed), factory_(std::move(factory)), plan_(plan) {
  stores_.resize(bed.config().n);
  managers_.resize(bed.config().n);
}

void RecoveryCoordinator::install() {
  for (NodeId id = 0; id < bed_->config().n; ++id) {
    auto* node = as_recoverable(*bed_, id);
    if (node != nullptr) {
      managers_[id] = std::make_unique<CheckpointManager>(
          *node, stores_[id], plan_.checkpoint_interval);
    }
  }
  bed_->add_round_hook([this](std::uint32_t round) { on_round(round); });
}

void RecoveryCoordinator::on_round(std::uint32_t round) {
  if (round == plan_.crash_round && !crashed_) crash(round);
  if (round == plan_.recover_round && crashed_ && !relaunched_) recover(round);
  for (auto& manager : managers_) {
    if (manager) manager->on_round(round);
  }
  // Re-admission lands via WELCOME mid-round; detect it at the boundary.
  if (relaunched_ && !rejoined_) {
    auto* node = as_recoverable(*bed_, plan_.victim);
    if (node != nullptr && node->is_member() && !node->rejoin_pending()) {
      rejoined_ = true;
      rejoin_round_ = round;
      RecoveryMetrics::get().rejoins->inc();
      obs::trace_event(bed_->simulator().now(), plan_.victim, "recovery",
                       "rejoin_complete", obs::fnum("round", round),
                       obs::fnum("fallback", fallback_ ? 1 : 0));
    }
  }
}

void RecoveryCoordinator::crash(std::uint32_t round) {
  managers_[plan_.victim].reset();
  bed_->kill_enclave(plan_.victim);
  crashed_ = true;
  RecoveryMetrics::get().crashes->inc();
  obs::trace_event(bed_->simulator().now(), plan_.victim, "recovery", "crash",
                   obs::fnum("round", round));
}

void RecoveryCoordinator::recover(std::uint32_t round) {
  auto& m = RecoveryMetrics::get();
  bed_->relaunch_enclave(
      plan_.victim, factory_, [&](protocol::PeerEnclave& enclave) {
        auto* node = dynamic_cast<RecoverableNode*>(&enclave);
        CHECK_MSG(node != nullptr,
                  "RecoveryCoordinator: factory must build a RecoverableNode");
        // Restore: the sealed blob comes back through the host's strategy —
        // an honest OS returns the newest, a byzantine one whatever it likes.
        auto blob =
            stores_[plan_.victim].fetch(bed_->host(plan_.victim).strategy());
        outcome_ = blob ? node->restore_checkpoint(*blob)
                        : RestoreOutcome::kInvalid;
        if (outcome_ != RestoreOutcome::kRestored) {
          node->recover_fresh();
          fallback_ = true;
          m.fresh_fallbacks->inc();
          obs::trace_event(bed_->simulator().now(), plan_.victim, "recovery",
                           "fresh_fallback", obs::fnum("round", round),
                           obs::fstr("cause",
                                     outcome_ == RestoreOutcome::kStale
                                         ? "stale_seal"
                                         : "no_valid_seal"));
        }
        // Re-attestation with every live peer, harness-mediated like the
        // original setup phase. Fresh session keys replace any restored
        // ones: the peers' replay windows moved on while we were down.
        if (bed_->config().mode == protocol::ChannelMode::kAttested) {
          Bytes hello = node->handshake_blob();
          for (NodeId id = 0; id < bed_->config().n; ++id) {
            if (id == plan_.victim || !bed_->has_enclave(id)) continue;
            auto& peer = bed_->enclave(id);
            bool ok = peer.accept_handshake(hello) &&
                      node->accept_handshake(peer.handshake_blob());
            CHECK_MSG(ok, "RecoveryCoordinator: re-attestation failed");
          }
        } else {
          for (NodeId id = 0; id < bed_->config().n; ++id) {
            if (id != plan_.victim) node->install_fast_link(id);
          }
        }
      });
  relaunched_ = true;
  m.relaunches->inc();
  obs::trace_event(bed_->simulator().now(), plan_.victim, "recovery",
                   "relaunch", obs::fnum("round", round),
                   obs::fnum("restored",
                             outcome_ == RestoreOutcome::kRestored ? 1 : 0));
  auto* node = as_recoverable(*bed_, plan_.victim);
  managers_[plan_.victim] = std::make_unique<CheckpointManager>(
      *node, stores_[plan_.victim], plan_.checkpoint_interval);
}

}  // namespace sgxp2p::recovery
