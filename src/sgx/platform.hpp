// Simulated SGX platform (the "hardware").
//
// One SgxPlatform instance models the fleet of SGX-enabled CPUs in a
// deployment: it owns the provisioning secrets that real hardware carries —
// the attestation root key (EPID analogue), the per-CPU sealing root, and
// the hardware entropy source behind RDRAND. Enclaves obtain derived secrets
// through the platform; untrusted hosts have no accessor for any of them.
// The trust boundary of the paper's model (Fig. 1) is therefore enforced by
// the type system: code that only holds a Host/OS reference cannot reach
// enclave state or platform secrets.
//
// Determinism: the platform is seeded explicitly so whole-network simulations
// replay bit-for-bit. Within the model this loses nothing — the host cannot
// observe the seed, so the randomness is still "unbiased" from the
// adversary's standpoint (feature F2), which is the only property the
// protocol proofs use.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "common/bytes.hpp"
#include "crypto/drbg.hpp"
#include "crypto/hmac.hpp"
#include "sgx/measurement.hpp"
#include "sgx/transition.hpp"
#include "sgx/trusted_time.hpp"

namespace sgxp2p::sgx {

using CpuId = std::uint64_t;

class SgxPlatform {
 public:
  /// `clock` must outlive the platform. `seed` roots all platform secrets.
  SgxPlatform(const TrustedClock& clock, ByteView seed);

  [[nodiscard]] const TrustedClock& clock() const { return *clock_; }

  /// Fresh entropy stream for a newly launched enclave. Each launch gets an
  /// independent stream (an enclave that is destroyed and relaunched does
  /// not resume its old randomness — matching P6's "restart = new node").
  crypto::Drbg make_enclave_drbg(CpuId cpu);

  /// Sealing key bound to (CPU, measurement) — MRENCLAVE policy: only the
  /// same program on the same CPU can unseal.
  Bytes sealing_key(CpuId cpu, const Measurement& measurement) const;

  /// Quote signing key. Private to the platform and to SimIAS.
  [[nodiscard]] const Bytes& attestation_root_key() const {
    return attestation_root_;
  }

  /// Monotonic counters (SGX's anti-rollback primitive, sgx_create/
  /// increment_monotonic_counter). One counter per (CPU, measurement); the
  /// value lives in the platform "hardware", so it survives enclave
  /// destruction and relaunch. The host has no API to decrement or reset it
  /// — a sealed blob bound to an old counter value is therefore detectable
  /// as a rollback by any later incarnation of the same program.
  [[nodiscard]] std::uint64_t counter_read(CpuId cpu,
                                           const Measurement& m) const;
  /// Increments and returns the new value (first increment returns 1).
  std::uint64_t counter_increment(CpuId cpu, const Measurement& m);

  /// Fleet-wide enclave-transition meter (counts every ecall/ocall on any
  /// CPU of this platform; charges virtual cost when configured). Lives on
  /// the platform because transitions are a hardware property, not protocol
  /// state — the Testbed binds it to its registry and cost model.
  [[nodiscard]] TransitionMeter& transitions() { return transitions_; }

 private:
  const TrustedClock* clock_;
  Bytes attestation_root_;
  Bytes sealing_root_;
  crypto::Drbg entropy_;
  std::uint64_t launch_counter_ = 0;
  // Guards the counters_ map structure. Each (CPU, measurement) key is only
  // touched by its own node, so per-counter values stay deterministic.
  mutable std::mutex counters_mu_;
  std::map<std::pair<CpuId, Measurement>, std::uint64_t> counters_;
  TransitionMeter transitions_;
};

}  // namespace sgxp2p::sgx
