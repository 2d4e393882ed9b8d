// The enclave runtime (SGX feature F1).
//
// An Enclave is the trusted half of a peer (Fig. 1 of the paper). It can:
//   - read unbiased randomness (F2) via `read_rand()`,
//   - read trusted elapsed time (F4) via `trusted_time()`,
//   - produce attestation quotes (F3) via `quote()`,
//   - seal state to the host with a key the host does not have.
//
// It cannot touch the network. All I/O flows through the EnclaveHostIface
// OCALL interface — the host decides whether bytes actually move, which is
// the paper's reduction: once the channel payloads are encrypted and MAC'd
// (P2/P3), the *only* leverage a byzantine host retains over the protocol is
// omission/delay/replay of opaque blobs (Theorem A.2), and P5/P6 reduce
// delay/replay to omission.
//
// Lifecycle: destroying an Enclave destroys all its state. A relaunched
// enclave gets a fresh DRBG and no session keys (the paper's P6 note on
// restarts); rejoining an ongoing execution requires sealed, rollback-
// protected checkpoints plus re-attestation — see src/recovery/.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "crypto/drbg.hpp"
#include "obs/trace.hpp"
#include "sgx/attestation.hpp"
#include "sgx/measurement.hpp"
#include "sgx/platform.hpp"

namespace sgxp2p::sgx {

/// OCALL surface: everything an enclave may ask of its untrusted host.
/// Byzantine hosts implement this adversarially (see src/adversary/).
class EnclaveHostIface {
 public:
  virtual ~EnclaveHostIface() = default;
  /// Asks the host to transfer an opaque blob to peer `to`. The host may
  /// drop, delay, or replay it; it cannot decrypt or undetectably modify it.
  virtual void transfer(NodeId to, Bytes blob) = 0;
  /// The same for an immutable blob the enclave hands to several peers.
  /// A host that can move it without copying overrides this; the default
  /// gives transfer() a copy.
  virtual void transfer_shared(NodeId to, std::shared_ptr<const Bytes> blob) {
    transfer(to, Bytes(blob->begin(), blob->end()));
  }
};

class Enclave {
 public:
  /// Loads `program` into a new enclave on CPU `cpu`. `host` is the OCALL
  /// sink; `platform` provides the hardware features. Both must outlive the
  /// enclave.
  Enclave(SgxPlatform& platform, CpuId cpu, const ProgramIdentity& program,
          EnclaveHostIface& host);
  virtual ~Enclave() = default;

  Enclave(const Enclave&) = delete;
  Enclave& operator=(const Enclave&) = delete;

  [[nodiscard]] const Measurement& measurement() const { return measurement_; }
  [[nodiscard]] CpuId cpu() const { return cpu_; }

  /// ECALL: the host delivers an inbound blob claimed to come from `from`.
  /// (The claim is untrusted; authenticity is established by the channel
  /// layer inside the enclave.)
  virtual void deliver(NodeId from, ByteView blob) = 0;

  /// The accounted entry point hosts call instead of deliver(): meters the
  /// world switch (sgx.ecalls, and virtual cost when the run's cost model
  /// is on) before crossing into trusted code.
  void ecall_deliver(NodeId from, ByteView blob) {
    account_ecall("deliver");
    deliver(from, blob);
  }

 protected:
  /// Meters one enclave entry of the given kind ("deliver", "tick", …) and
  /// emits an `sgx ecall` trace event when the cost model charged anything.
  /// Subclasses call this for ECALLs that don't route through
  /// ecall_deliver (e.g. the round tick).
  void account_ecall(const char* kind) {
    const SimDuration cost = platform_->transitions().ecall(transition_carry_);
    if (cost > 0) {
      obs::trace_event(trusted_time(), static_cast<std::uint32_t>(cpu_),
                       "sgx", "ecall", obs::fstr("kind", kind),
                       obs::fnum("cost_ms", cost));
    }
  }
  /// F2 — hardware randomness, invisible to the host.
  crypto::Drbg& read_rand() { return drbg_; }

  /// F4 — trusted elapsed time in milliseconds since platform start.
  [[nodiscard]] SimTime trusted_time() const {
    return platform_->clock().now();
  }

  /// F3 — attestation quote over `report_data`.
  [[nodiscard]] Quote quote(ByteView report_data) const {
    return make_quote(*platform_, measurement_, cpu_, report_data);
  }

  /// Sealing: encrypt state for storage by the host. Only this program on
  /// this CPU can unseal. The nonce is drawn from the enclave DRBG — a
  /// per-launch counter would repeat after a relaunch while the sealing key
  /// (CPU + measurement) stays fixed, giving the host two ciphertexts under
  /// one (key, nonce) pair.
  [[nodiscard]] Bytes seal(ByteView data);
  [[nodiscard]] std::optional<Bytes> unseal(ByteView sealed) const;

  /// Anti-rollback: the platform monotonic counter for this (CPU, program).
  /// Survives enclave destruction — binding a counter value into sealed
  /// state lets a relaunch detect a host replaying a stale blob.
  [[nodiscard]] std::uint64_t monotonic_read() const {
    return platform_->counter_read(cpu_, measurement_);
  }
  std::uint64_t monotonic_increment() {
    return platform_->counter_increment(cpu_, measurement_);
  }

  /// OCALL: hand a blob to the host for transfer. Metered: each exit adds
  /// its virtual cost to the pending charge the Network folds into this
  /// message's arrival time, so a fan-out of k sends pays k serialized
  /// transitions.
  void ocall_transfer(NodeId to, Bytes blob) {
    account_ocall();
    host_->transfer(to, std::move(blob));
  }
  /// The same OCALL for a blob shared by several transfers: still one
  /// metered exit per recipient.
  void ocall_transfer_shared(NodeId to, std::shared_ptr<const Bytes> blob) {
    account_ocall();
    host_->transfer_shared(to, std::move(blob));
  }

 private:
  /// Meters one transfer OCALL (sgx.ocalls, and virtual cost when the run's
  /// cost model is on).
  void account_ocall() {
    const SimDuration cost = platform_->transitions().ocall(transition_carry_);
    if (cost > 0) {
      obs::trace_event(trusted_time(), static_cast<std::uint32_t>(cpu_),
                       "sgx", "ocall", obs::fstr("kind", "transfer"),
                       obs::fnum("cost_ms", cost));
    }
  }

  SgxPlatform* platform_;
  CpuId cpu_;
  Measurement measurement_;
  EnclaveHostIface* host_;
  crypto::Drbg drbg_;
  // Sub-millisecond remainder of the calibrated transition model. Per
  // enclave so ms-boundary crossings follow this node's own transition
  // order.
  TransitionMeter::NsCarry transition_carry_;
};

}  // namespace sgxp2p::sgx
