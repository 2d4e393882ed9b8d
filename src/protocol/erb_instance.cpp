#include "protocol/erb_instance.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "crypto/sha256.hpp"
#include "obs/trace.hpp"

namespace sgxp2p::protocol {

ErbInstance::ErbInstance(ErbConfig config) : cfg_(std::move(config)) {
  CHECK_MSG(!cfg_.participants.empty(), "ErbInstance: empty group");
  std::sort(cfg_.participants.begin(), cfg_.participants.end());
  first_ = cfg_.participants.front();
  contiguous_ = static_cast<std::size_t>(cfg_.participants.back() - first_) + 1 ==
                cfg_.participants.size();
  CHECK_MSG(is_participant(cfg_.self), "ErbInstance: self not in group");
  max_rounds_ = cfg_.max_rounds != 0 ? cfg_.max_rounds : cfg_.t + 2;
  const auto n = static_cast<std::uint32_t>(cfg_.participants.size());
  // Halt when fewer than t ACKs arrive (Algorithm 2's `Nack < t`), but never
  // demand more ACKs than there are other participants.
  ack_threshold_ = std::min(cfg_.t, n - 1);
  // Accept at |S_echo| ≥ N − t (= t + 1 for N = 2t + 1).
  accept_threshold_ = n - cfg_.t;
  self_rank_ = participant_rank(cfg_.self);
  initiator_rank_ = participant_rank(cfg_.instance.initiator);
  s_echo_ = RankSet(cfg_.participants.size());
}

std::uint32_t ErbInstance::instance_round(std::uint32_t global) const {
  if (global < cfg_.start_round) return 0;
  return global - cfg_.start_round + 1;
}

bool ErbInstance::is_participant(NodeId id) const {
  return participant_rank(id) >= 0;
}

int ErbInstance::participant_rank(NodeId id) const {
  if (contiguous_) {
    // Testbed groups are 0..n−1 (and cluster groups a contiguous slice), so
    // rank lookup on the n²-per-round receive path is one subtraction.
    if (id < first_ || id - first_ >= cfg_.participants.size()) return -1;
    return static_cast<int>(id - first_);
  }
  auto it = std::lower_bound(cfg_.participants.begin(),
                             cfg_.participants.end(), id);
  if (it == cfg_.participants.end() || *it != id) return -1;
  return static_cast<int>(it - cfg_.participants.begin());
}

void ErbInstance::multicast(Val val, std::uint32_t global_round, Sends& out) {
  serialize_into(val, hash_scratch_);
  Bytes hash = crypto::Sha256::hash_bytes(hash_scratch_);
  pending_ack_ =
      PendingAck{global_round, std::move(hash), RankSet(cfg_.participants.size())};
  out.multicasts.push_back(std::move(val));
}

void ErbInstance::ack(NodeId to, const Val& val, std::uint32_t global_round,
                      Sends& out) {
  const bool carries_m = m_ && val.payload == *m_;
  Bytes hash;
  if (carries_m && !ack_memo_.hash.empty() && ack_memo_.type == val.type &&
      ack_memo_.initiator == val.initiator && ack_memo_.seq == val.seq &&
      ack_memo_.round == val.round) {
    hash = ack_memo_.hash;
  } else {
    serialize_into(val, hash_scratch_);
    hash = crypto::Sha256::hash_bytes(hash_scratch_);
    if (carries_m) {
      ack_memo_ = AckMemo{val.type, val.initiator, val.seq, val.round, hash};
    }
  }
  out.unicasts.push_back(Send{to, Val{MsgType::kAck, cfg_.instance.initiator,
                                      cfg_.instance.epoch, global_round,
                                      std::move(hash)}});
}

void ErbInstance::maybe_accept(std::uint32_t instance_rnd) {
  if (accepted_) return;
  if (s_echo_.size() >= accept_threshold_) {
    accepted_ = true;
    value_ = m_;
    accept_round_ = instance_rnd;
  }
}

ErbInstance::Sends ErbInstance::on_round_begin(std::uint32_t global_round) {
  Sends sends;
  sends.group = &cfg_.participants;
  if (wants_halt_) return sends;
  std::uint32_t rnd = instance_round(global_round);
  if (rnd == 0) return sends;

  // 1. Halt-on-divergence (P4): a multicast from an earlier round must have
  //    gathered at least t ACKs by now.
  if (pending_ack_ && pending_ack_->round < global_round) {
    if (cfg_.enable_halt && pending_ack_->ackers.size() < ack_threshold_) {
      wants_halt_ = true;
      return sends;
    }
    pending_ack_.reset();
  }

  // 2. Initiator: multicast ⟨INIT, id_init, seq_init, m, rnd⟩ in round 1.
  if (cfg_.is_initiator && rnd == 1) {
    m_ = cfg_.init_payload;
    s_echo_.insert(static_cast<std::size_t>(self_rank_));
    Val init{MsgType::kInit, cfg_.instance.initiator, cfg_.instance.epoch,
             global_round, cfg_.init_payload};
    multicast(std::move(init), global_round, sends);
    maybe_accept(rnd);
  }

  // 3. Scheduled ECHO from a first receipt in the previous round
  //    ("Wait(rnd) then Multicast(ECHO, …, rnd+1)").
  if (echo_due_round_ && *echo_due_round_ == rnd && rnd <= max_rounds_) {
    Val echo{MsgType::kEcho, cfg_.instance.initiator, cfg_.instance.epoch,
             global_round, *m_};
    multicast(std::move(echo), global_round, sends);
    // The ECHO's real trigger is last round's INIT/ECHO delivery, not this
    // round tick — hand its span back so the owner scopes the sends to it.
    sends.cause = echo_cause_;
    echo_due_round_.reset();
    echo_cause_ = 0;
  }

  // 4. Timeout: past instance round t + 2 without enough echoes → accept ⊥.
  if (rnd > max_rounds_ && !accepted_) {
    accepted_ = true;
    value_.reset();  // ⊥
    accept_round_ = rnd;
  }
  return sends;
}

ErbInstance::Sends ErbInstance::on_val(NodeId from, const Val& val,
                                       std::uint32_t global_round) {
  Sends sends;
  sends.group = &cfg_.participants;
  if (wants_halt_) return sends;
  std::uint32_t rnd = instance_round(global_round);
  if (rnd == 0 || rnd > max_rounds_) return sends;
  const int from_rank = participant_rank(from);
  if (from_rank < 0) return sends;

  switch (val.type) {
    case MsgType::kInit: {
      // Only the initiator originates INIT. A stale round tag (P5) or wrong
      // sequence number (P6) is treated as an omitted message.
      if (from != cfg_.instance.initiator) break;
      if (val.round != global_round || val.seq != cfg_.instance.epoch) break;
      if (!m_) {
        m_ = val.payload;
        s_echo_.insert(static_cast<std::size_t>(initiator_rank_));
        s_echo_.insert(static_cast<std::size_t>(self_rank_));
        echo_due_round_ = rnd + 1;
        echo_cause_ = obs::TraceRecorder::global().current_cause();
        maybe_accept(rnd);
      }
      ack(from, val, global_round, sends);
      break;
    }
    case MsgType::kEcho: {
      if (val.round != global_round || val.seq != cfg_.instance.epoch) break;
      if (!m_) {
        m_ = val.payload;
        s_echo_.insert(static_cast<std::size_t>(self_rank_));
        echo_due_round_ = rnd + 1;
        echo_cause_ = obs::TraceRecorder::global().current_cause();
      }
      ack(from, val, global_round, sends);
      s_echo_.insert(static_cast<std::size_t>(from_rank));
      maybe_accept(rnd);
      break;
    }
    case MsgType::kAck: {
      if (!pending_ack_) break;
      // The ACK must arrive in the multicast's round and carry H(val) of
      // exactly what we sent.
      if (val.round != pending_ack_->round ||
          global_round != pending_ack_->round) {
        break;
      }
      if (val.payload != pending_ack_->expected_hash) break;
      pending_ack_->ackers.insert(static_cast<std::size_t>(from_rank));
      break;
    }
    default:
      break;
  }
  return sends;
}

}  // namespace sgxp2p::protocol
