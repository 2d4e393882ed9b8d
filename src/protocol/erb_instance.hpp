// ErbInstance — the Enclaved Reliable Broadcast state machine (Algorithm 2).
//
// Pure protocol logic with no I/O: events come in (round boundaries,
// received vals), send actions come out. This lets one enclave multiplex
// many concurrent instances — exactly what ERNG does (Algorithm 3 runs N of
// these; Algorithm 6 runs them inside a sampled cluster with its own
// participant set and thresholds).
//
// Faithful points, mapped to the paper:
//   - INIT/ECHO carry ⟨type, id_init, seq_init, m, rnd⟩; receivers check
//     rnd′ = rnd (P5, lockstep) and seq = seq_init (P6, freshness); a
//     mismatch is *treated as an omission* — ignored, not an error.
//   - Every valid INIT/ECHO is acknowledged with ⟨ACK, id_init, seq, H(val),
//     rnd⟩ to its sender.
//   - A node that multicast in round r and collected fewer than t ACKs by
//     the end of r halts (P4, halt-on-divergence) — surfaced as
//     wants_halt(); the owning enclave then churns itself out.
//   - ECHO is multicast at the start of the round after first receipt
//     ("Wait(rnd) then Multicast(…, rnd+1)").
//   - Accept m when |S_echo| ≥ N − t; accept ⊥ after instance round t + 2.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "protocol/wire.hpp"

namespace sgxp2p::protocol {

/// Distinct-member accumulator over participant ranks: a fixed bitmap plus
/// a count. The protocol only ever asks "how many distinct participants"
/// (|S_echo| and Nack against thresholds), never enumerates the members, so
/// this replaces the former std::set<NodeId> — at n = 1000 that set's ~n²
/// per-round node allocations and tree walks were the single hottest item
/// in the bench_scale profile.
class RankSet {
 public:
  RankSet() = default;
  explicit RankSet(std::size_t n) : bits_((n + 63) / 64, 0) {}

  /// Inserts rank `r` (< n); duplicate inserts are no-ops, like set::insert.
  void insert(std::size_t r) {
    std::uint64_t& word = bits_[r >> 6];
    const std::uint64_t mask = std::uint64_t{1} << (r & 63);
    count_ += (word & mask) == 0 ? 1 : 0;
    word |= mask;
  }
  [[nodiscard]] std::size_t size() const { return count_; }

 private:
  std::vector<std::uint64_t> bits_;
  std::size_t count_ = 0;
};

struct ErbConfig {
  NodeId self = kNoNode;
  InstanceId instance;                // initiator + expected seq (epoch)
  std::vector<NodeId> participants;   // the broadcast group, incl. self
  std::uint32_t t = 0;                // byzantine bound within the group
  std::uint32_t start_round = 1;      // global round of instance round 1
  std::uint32_t max_rounds = 0;       // instance rounds; 0 → t + 2
  bool is_initiator = false;
  Bytes init_payload;                 // m, when initiator
  // Ablation switch (DESIGN.md §4.1): with halt-on-divergence disabled the
  // protocol degenerates to passive timeout detection — byzantine nodes are
  // never churned and the traffic reduction of Fig. 3c disappears.
  bool enable_halt = true;
};

class ErbInstance {
 public:
  struct Send {
    NodeId to;
    Val val;
  };
  /// Output actions of one event. Multicasts are returned as one Val per
  /// group-wide message (the owner fans them out via broadcast_val, sealing
  /// one serialization per link) instead of |group| copies; ACKs stay
  /// targeted unicasts. Consumers must emit multicasts before unicasts —
  /// that reproduces the per-peer order the flat vector used to carry.
  struct Sends {
    std::vector<Val> multicasts;
    std::vector<Send> unicasts;
    /// Group the multicasts address (the instance's sorted participants,
    /// self included — senders skip self). Valid as long as the instance.
    const std::vector<NodeId>* group = nullptr;
    /// Causal token (a trace span id) for deferred actions: an ECHO emitted
    /// at a round boundary was really triggered by the INIT/ECHO delivery
    /// one round earlier, and the owner scopes the sends to that delivery so
    /// the critical path crosses the "Wait(rnd)" gap. 0 = no deferral — the
    /// sends belong to whatever event is being handled right now.
    std::uint64_t cause = 0;

    [[nodiscard]] bool empty() const {
      return multicasts.empty() && unicasts.empty();
    }
  };

  explicit ErbInstance(ErbConfig config);

  /// Round-boundary event (global round). Order of effects: ACK-shortfall
  /// check for the previous round's multicast (may set wants_halt), then the
  /// scheduled ECHO / initial INIT multicast, then the ⊥ timeout.
  Sends on_round_begin(std::uint32_t global_round);

  /// A val for this instance arrived from `from` during `global_round`.
  Sends on_val(NodeId from, const Val& val, std::uint32_t global_round);

  // ----- status -----
  [[nodiscard]] bool accepted() const { return accepted_; }
  [[nodiscard]] bool has_value() const { return accepted_ && value_.has_value(); }
  /// The accepted m; only meaningful when has_value().
  [[nodiscard]] const Bytes& value() const { return *value_; }
  /// Instance round at which the decision was made.
  [[nodiscard]] std::uint32_t accept_round() const { return accept_round_; }
  /// P4 violation detected: the owner must Halt the whole node.
  [[nodiscard]] bool wants_halt() const { return wants_halt_; }
  [[nodiscard]] const ErbConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t echo_count() const { return s_echo_.size(); }

 private:
  [[nodiscard]] std::uint32_t instance_round(std::uint32_t global) const;
  [[nodiscard]] bool is_participant(NodeId id) const;
  /// Rank of `id` in the sorted participant list, or -1 if not a member.
  [[nodiscard]] int participant_rank(NodeId id) const;
  /// Appends a group-wide multicast of `val` to `out` and registers the
  /// pending-ACK expectation for `global_round`.
  void multicast(Val val, std::uint32_t global_round, Sends& out);
  /// Appends ⟨ACK, id_init, seq, H(val), rnd⟩ for `val` to `out`.
  void ack(NodeId to, const Val& val, std::uint32_t global_round, Sends& out);
  void maybe_accept(std::uint32_t instance_rnd);

  ErbConfig cfg_;
  std::uint32_t max_rounds_;
  std::uint32_t ack_threshold_;
  std::uint32_t accept_threshold_;
  int self_rank_ = -1;
  int initiator_rank_ = -1;
  bool contiguous_ = false;  // participants are first_ .. first_ + n − 1
  NodeId first_ = 0;
  Bytes hash_scratch_;       // serialize-for-hash reuse (one per ACK)
  // H(val) of the last acknowledged val whose payload was m̄. Every ECHO of
  // an instance round serializes to the same bytes (a val names no
  // sender), so the header plus "payload == m̄" identifies them all.
  struct AckMemo {
    MsgType type = MsgType::kInit;
    NodeId initiator = kNoNode;
    std::uint64_t seq = 0;
    std::uint32_t round = 0;
    Bytes hash;  // empty: no memo yet
  };
  AckMemo ack_memo_;

  std::optional<Bytes> m_;              // m̄, the stored message
  RankSet s_echo_;                      // S_echo (distinct count only)
  std::optional<std::uint32_t> echo_due_round_;  // multicast ECHO at this instance round
  std::uint64_t echo_cause_ = 0;        // span of the delivery that armed it

  // Pending multicast awaiting ACKs: (global round it was sent in, the
  // H(val) receivers will echo back, distinct ackers so far).
  struct PendingAck {
    std::uint32_t round = 0;
    Bytes expected_hash;
    RankSet ackers;
  };
  std::optional<PendingAck> pending_ack_;

  bool accepted_ = false;
  std::optional<Bytes> value_;
  std::uint32_t accept_round_ = 0;
  bool wants_halt_ = false;
};

}  // namespace sgxp2p::protocol
