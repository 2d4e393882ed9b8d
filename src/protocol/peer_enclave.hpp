// PeerEnclave — the protocol enclave runtime shared by ERB and ERNG.
//
// Owns the per-peer SecureLinks, the one-time setup (attested handshake +
// initial instance-sequence exchange), and the lockstep round driver (P5):
// rounds are computed from trusted time only, never from the host. Concrete
// protocols subclass and react to `on_round_begin` / `on_val`.
//
// Channel modes:
//   kAttested  — full fidelity: X25519 handshake bound into attestation
//                quotes, AEAD-sealed transport, replay windows. Used by all
//                tests and the byzantine benchmarks.
//   kAccounted — large-scale benchmark mode: payloads travel with the same
//                on-wire size (the AEAD overhead is padded in as zeros) but
//                without the cipher work, so O(N³) message counts stay
//                simulable. Equal plaintexts therefore seal to equal blobs:
//                each distinct one is sealed once into an immutable shared
//                buffer that every recipient of a fan-out and every ACK of
//                an instance round reuse. An honest host moves it without a
//                copy and the receiving enclave parses it in place. No MAC
//                and no replay window: a corrupted or replayed blob reaches
//                the protocol as it is. The SETUP blob is shared the same
//                way: one per sender serves all of its peers.
//
// Per-peer state is sized for N in the thousands: the expected-sequence
// table is one id-sorted vector of 16-byte entries, with no heap node per
// peer, and setup installs into it in ascending id order, where an install
// is an append.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "channel/secure_link.hpp"
#include "common/ids.hpp"
#include "common/time.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "protocol/wire.hpp"
#include "sgx/attestation.hpp"
#include "sgx/enclave.hpp"

namespace sgxp2p::protocol {

enum class ChannelMode { kAttested, kAccounted };

struct PeerConfig {
  NodeId self = kNoNode;
  std::uint32_t n = 0;          // network size (assumption S1)
  std::uint32_t t = 0;          // byzantine bound, t < N/2 (S4)
  SimDuration round_ms = 0;     // 2Δ (S3)
  ChannelMode mode = ChannelMode::kAttested;
};

/// Per-node per-type send counters (ERB/ERNG message classes), used by the
/// benches to report the paper's INIT/ECHO/ACK sizing remarks. The registry
/// carries the process-wide aggregate as `<ns>.send{TYPE}` counters; this
/// struct remains the per-enclave view (a registry label per node would mean
/// N×|types| instruments at benchmark scale).
struct SendStats {
  static constexpr std::size_t kTypeSlots = 16;
  std::uint64_t by_type[kTypeSlots] = {};
  std::uint64_t bytes = 0;
  void count(MsgType type, std::size_t sz) {
    auto slot = static_cast<std::size_t>(type);
    if (slot < kTypeSlots) ++by_type[slot];
    bytes += sz;
  }
  [[nodiscard]] std::uint64_t of(MsgType type) const {
    auto slot = static_cast<std::size_t>(type);
    return slot < kTypeSlots ? by_type[slot] : 0;
  }
};

class PeerEnclave : public sgx::Enclave {
 public:
  PeerEnclave(sgx::SgxPlatform& platform, sgx::CpuId cpu,
              const sgx::ProgramIdentity& program, sgx::EnclaveHostIface& host,
              PeerConfig config, const sgx::SimIAS& ias);

  // ----- setup phase (one-time, before protocol start) -----

  /// kAttested: this enclave's handshake message (quote over its ephemeral
  /// DH public key). One blob serves all peers.
  Bytes handshake_blob();
  /// kAttested: installs the link for the sender of `blob`; false when
  /// attestation fails (the peer is then not admitted — paper setup phase).
  bool accept_handshake(ByteView blob);
  /// kAccounted: installs a size-accounting link for `peer`.
  void install_fast_link(NodeId peer);

  /// Sealed SETUP value carrying this node's initial instance sequence
  /// number for `to` (P6 material).
  Bytes make_seq_blob(NodeId to);
  /// kAccounted: the SETUP blob every peer receives, built once — it does
  /// not depend on the recipient. nullptr in kAttested, where each link
  /// seals its own through make_seq_blob.
  std::shared_ptr<const Bytes> shared_seq_blob();
  /// Installs the sender's sequence from a SETUP blob; false when the blob
  /// does not open or is not `from`'s SETUP value.
  bool accept_seq_blob(NodeId from, ByteView blob);

  /// Marks setup complete and fixes the synchronous start time T0 (S2).
  void start_protocol(SimTime t0);

  // ----- runtime -----

  /// Trusted-timer callback at each round boundary.
  void on_tick();

  /// ECALL: inbound blob from the host.
  void deliver(NodeId from, ByteView blob) final;

  [[nodiscard]] bool halted() const { return halted_; }
  [[nodiscard]] bool started() const { return started_; }
  [[nodiscard]] const PeerConfig& config() const { return cfg_; }
  [[nodiscard]] const SendStats& send_stats() const { return send_stats_; }

  /// Current round from trusted time: 1 + (now − T0) / 2Δ.
  [[nodiscard]] std::uint32_t current_round() const;

  /// This node's own initial instance sequence number.
  [[nodiscard]] std::uint64_t my_seq() const { return my_seq_; }
  /// The expected instance sequence number for `initiator` (from setup).
  [[nodiscard]] std::optional<std::uint64_t> expected_seq(
      NodeId initiator) const;
  /// Advances every initiator's expected sequence (end of a valid instance).
  void bump_all_seqs();

 protected:
  virtual void on_protocol_start() {}
  virtual void on_round_begin(std::uint32_t round) = 0;
  virtual void on_val(NodeId from, const Val& val) = 0;

  /// Seals and transfers a protocol value to `to`.
  void send_val(NodeId to, const Val& val);

  /// Seals and transfers one value to every node in `group` (self skipped).
  /// Behaviorally identical to calling send_val per peer in group order, but
  /// the value is serialized once into a reused scratch buffer and each link
  /// seals those same bytes — the O(N²) fan-outs pay one encode per value
  /// instead of one per (value, peer).
  void broadcast_val(const std::vector<NodeId>& group, const Val& val);

  /// P4: the node detected its own divergence (ACK shortfall) and leaves.
  void halt_self();

  /// Installs/overrides the expected instance sequence for a peer — used by
  /// the setup exchange, and by the membership extension when a join record
  /// (id, seq₀) is admitted. O(1) when `peer` is above every id in the
  /// table, as in every setup loop; otherwise an in-place insert.
  void install_peer_seq(NodeId peer, std::uint64_t seq) {
    put_seq(peer_seq_, peer, seq);
  }

  /// All peer ids with an established link, ascending.
  [[nodiscard]] std::vector<NodeId> peers() const;

  // ----- checkpoint support (src/recovery/) -----

  /// Serializes P6-critical runtime state: the own instance sequence, the
  /// peer sequence table, and every SecureLink (session keys + replay
  /// windows). Contains key material — callers must pass the result through
  /// Enclave::seal before it reaches the host.
  [[nodiscard]] Bytes export_core_state() const;
  /// Restores export_core_state() output into a freshly launched enclave
  /// (same program, same CPU). Links are reinstated as-is; a subsequent
  /// re-attested handshake replaces them with fresh keys.
  bool import_core_state(ByteView data);

  // ----- observability (namespace = "erb", "erng", or "eba") -----

  /// Synchronous start time T0, for decision-latency instrumentation.
  [[nodiscard]] SimTime start_time() const { return start_time_; }
  /// The metric/trace namespace this enclave reports under.
  [[nodiscard]] const char* obs_ns() const { return obs_ns_; }
  /// Registry counter `<ns>.<name>{label}`; resolved once then cached by
  /// the registry, so fine to call on warm paths.
  obs::Counter& obs_counter(const char* name, const char* label = "");
  /// Trace event stamped with trusted time, self id, and the namespace.
  /// Returns the assigned span id (0 when tracing is off) so callers can
  /// scope follow-on work to this event via TraceRecorder::Scope.
  std::uint64_t obs_event(const char* event, obs::TraceField f0 = {},
                          obs::TraceField f1 = {}, obs::TraceField f2 = {},
                          obs::TraceField f3 = {});

 private:
  Bytes seal_for(NodeId to, ByteView plaintext);
  /// kAttested: the plaintext of `blob` if the link from `from` opens it.
  std::optional<Bytes> open_from(NodeId from, ByteView blob);
  /// kAccounted: the sealed form of wire_scratch_ as an immutable blob,
  /// reused while the serialized bytes repeat (a fan-out, the ACKs of one
  /// instance round). nullptr in kAttested, where every link seals its own.
  std::shared_ptr<const Bytes> accounted_blob();
  /// Seals wire_scratch_ for `to`, or sends `shared` when it is set, and
  /// transfers the blob with its send accounting.
  void transfer_val(NodeId to, const Val& val,
                    const std::shared_ptr<const Bytes>& shared);
  /// Shared send accounting: SendStats, registry counters, trace event.
  void account_send(const Val& val, NodeId to, std::size_t wire_bytes);
  /// Serializes this node's SETUP value into wire_scratch_.
  void serialize_setup();

  /// One peer's expected instance sequence.
  struct PeerSeq {
    NodeId id;
    std::uint64_t seq;
  };
  static_assert(sizeof(PeerSeq) <= 16);
  /// Sets `id`'s entry of an id-sorted table (see install_peer_seq).
  static void put_seq(std::vector<PeerSeq>& table, NodeId id,
                      std::uint64_t seq);

  PeerConfig cfg_;
  const sgx::SimIAS* ias_;
  Bytes dh_private_;
  // x25519_public(dh_private_), derived on the first handshake_blob() call:
  // recovery asks every live peer for its blob at each relaunch. Not derived
  // in the constructor, because accounted-mode enclaves never handshake.
  Bytes dh_public_;
  std::uint64_t my_seq_;
  std::unordered_map<NodeId, channel::SecureLink> links_;
  std::vector<NodeId> fast_peers_;  // kAccounted membership
  std::vector<PeerSeq> peer_seq_;   // sorted by id, self excluded
  bool started_ = false;
  bool halted_ = false;
  SimTime start_time_ = 0;
  SendStats send_stats_;
  Bytes wire_scratch_;  // reused Val serialization buffer (send/broadcast)
  std::shared_ptr<const Bytes> accounted_blob_;  // last accounted_blob()
  // Cached registry handles for the send hot path.
  const char* obs_ns_;
  obs::Counter* type_counters_[SendStats::kTypeSlots] = {};
  obs::Counter* send_bytes_ctr_ = nullptr;
  obs::Counter* rounds_ctr_ = nullptr;
};

}  // namespace sgxp2p::protocol
