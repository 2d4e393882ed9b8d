// Enclave-transition accounting (the cost the paper's testbed pays for
// free in simulation).
//
// Real SGX enclaves pay microseconds per world switch: an ECALL flushes and
// refills TLBs, an OCALL exits and re-enters the trusted environment
// (Stress-SGX and the IIT-Delhi SGX benchmark suite in PAPERS.md measure
// 8–14k cycles per transition on client parts). The simulator's virtual
// clock ignores this by default, which flatters the O(n²) clique protocols:
// every round a node performs one ECALL per inbound message plus one OCALL
// per outbound message, so transition overhead scales with message
// complexity — exactly the term committee sharding is supposed to shrink.
//
// Two cost resolutions coexist:
//   - ecall_ms/ocall_ms: coarse per-transition milliseconds (PR 6's model,
//     handy for exaggerated what-if runs);
//   - ecall_ns/ocall_ns: the calibrated sub-millisecond model. Nanoseconds
//     accumulate in a caller-owned NsCarry and are charged to the virtual
//     clock whenever whole milliseconds accrue, so ~250 transitions at
//     ~4 µs cost 1 virtual ms. The carry lives per enclave, so each node's
//     ms-boundary crossings follow its own transition order and do not
//     depend on how other nodes' transitions interleave with it.
//
// The calibrated preset also models the EPC paging cliff: beyond the
// resident-set threshold (~93 MiB usable of the 128 MiB EPC on the measured
// parts), every transition pays a working-set miss fraction of the EWB
// evict+reload cost (≈40k cycles/page). The penalty is a deterministic
// smooth fraction — fault_ns · (ws − resident)/ws — not a random fault
// draw, so runs stay reproducible.
//
// TransitionMeter counts every ecall/ocall and, when configured with
// nonzero per-transition costs, charges the virtual cost through a caller-
// supplied hook (the Testbed wires it to Simulator::charge, which folds the
// accumulated cost into the arrival time of the handler's next sends).
// Default costs are zero, so existing baselines, traces, and bench tables
// are unchanged unless a run opts in. Counters are relaxed atomics.
//
// Metrics (registered by bind(), typically on the testbed's registry):
//   sgx.ecalls              total enclave entries
//   sgx.ocalls              total enclave exits
//   sgx.transition_cost_ms  virtual ms charged to the simulator clock
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <utility>

#include "common/time.hpp"
#include "obs/metrics.hpp"

namespace sgxp2p::sgx {

/// Per-transition virtual costs. Zero (the default) disables charging
/// while counting still happens.
struct TransitionCosts {
  SimDuration ecall_ms = 0;
  SimDuration ocall_ms = 0;

  // Calibrated sub-millisecond model: per-transition nanoseconds, plus the
  // EPC working-set penalty applied to every transition when the enclave's
  // working set exceeds the resident EPC.
  std::uint64_t ecall_ns = 0;
  std::uint64_t ocall_ns = 0;
  std::uint64_t epc_working_set_kb = 0;  // per-enclave heap+code footprint
  std::uint64_t epc_resident_kb = 0;     // usable EPC before paging begins
  std::uint64_t epc_fault_ns = 0;        // EWB evict + ELDU reload, per touch

  [[nodiscard]] bool enabled() const {
    return ecall_ms > 0 || ocall_ms > 0 || ecall_ns > 0 || ocall_ns > 0;
  }

  /// Extra nanoseconds every transition pays once the working set spills
  /// out of the EPC: the miss fraction (ws − resident)/ws of one fault.
  [[nodiscard]] std::uint64_t paging_penalty_ns() const {
    if (epc_working_set_kb == 0 || epc_working_set_kb <= epc_resident_kb) {
      return 0;
    }
    return epc_fault_ns * (epc_working_set_kb - epc_resident_kb) /
           epc_working_set_kb;
  }
  [[nodiscard]] std::uint64_t effective_ecall_ns() const {
    return ecall_ns == 0 ? 0 : ecall_ns + paging_penalty_ns();
  }
  [[nodiscard]] std::uint64_t effective_ocall_ns() const {
    return ocall_ns == 0 ? 0 : ocall_ns + paging_penalty_ns();
  }

  /// The `--sgx-costs calibrated` preset. Constants from the PAPERS.md
  /// measurement studies:
  ///   - ECALL ≈ 8.6–10.5k cycles warm (Stress-SGX), OCALL ≈ 12–14.1k
  ///     cycles (IIT-Delhi comprehensive suite); at the ~3.4 GHz client
  ///     parts both studies use that is ≈3.1 µs in / ≈4.0 µs out.
  ///   - EPC: 128 MiB raw, ≈93 MiB usable after SGX metadata; one EWB
  ///     evict + ELDU reload ≈ 40k cycles ≈ 11.8 µs per 4 KiB page.
  /// epc_working_set_kb stays 0 (no paging) unless the run sets it — e.g.
  /// sgxp2p-sim --sgx-working-set.
  [[nodiscard]] static TransitionCosts calibrated() {
    TransitionCosts c;
    c.ecall_ns = 3100;
    c.ocall_ns = 4000;
    c.epc_resident_kb = 95232;
    c.epc_fault_ns = 11800;
    return c;
  }
};

class TransitionMeter {
 public:
  using ChargeFn = std::function<void(SimDuration)>;

  /// Caller-owned nanosecond accumulator for the calibrated model. One per
  /// enclave: sub-ms remainders roll over deterministically in that node's
  /// canonical transition order.
  struct NsCarry {
    std::uint64_t ns = 0;
  };

  /// Registers the sgx.* counters on `registry`. Optional: an unbound meter
  /// still keeps local counts (platforms built outside a Testbed).
  void bind(obs::MetricsRegistry& registry) {
    ecalls_ctr_ = &registry.counter("sgx.ecalls");
    ocalls_ctr_ = &registry.counter("sgx.ocalls");
    cost_ctr_ = &registry.counter("sgx.transition_cost_ms");
  }

  /// Sets the cost model and the sink the virtual cost is charged to (the
  /// Testbed wires it to Simulator::charge).
  void configure(TransitionCosts costs, ChargeFn charge) {
    costs_ = costs;
    eff_ecall_ns_ = costs.effective_ecall_ns();
    eff_ocall_ns_ = costs.effective_ocall_ns();
    charge_ = std::move(charge);
  }

  /// Records one enclave entry; returns the virtual cost charged (0 when
  /// the cost model is off or no whole millisecond accrued yet).
  SimDuration ecall(NsCarry& carry) {
    ecalls_.fetch_add(1, std::memory_order_relaxed);
    if (ecalls_ctr_ != nullptr) ecalls_ctr_->inc();
    return apply(costs_.ecall_ms, eff_ecall_ns_, carry);
  }

  /// Records one enclave exit; returns the virtual cost charged.
  SimDuration ocall(NsCarry& carry) {
    ocalls_.fetch_add(1, std::memory_order_relaxed);
    if (ocalls_ctr_ != nullptr) ocalls_ctr_->inc();
    return apply(costs_.ocall_ms, eff_ocall_ns_, carry);
  }

  [[nodiscard]] const TransitionCosts& costs() const { return costs_; }
  [[nodiscard]] std::uint64_t ecalls() const {
    return ecalls_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t ocalls() const {
    return ocalls_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t charged_ms() const {
    return charged_ms_.load(std::memory_order_relaxed);
  }

 private:
  SimDuration apply(SimDuration ms_cost, std::uint64_t ns_cost,
                    NsCarry& carry) {
    SimDuration cost = ms_cost;
    if (ns_cost > 0) {
      carry.ns += ns_cost;
      cost += static_cast<SimDuration>(carry.ns / 1000000);
      carry.ns %= 1000000;
    }
    if (cost <= 0) return 0;
    charged_ms_.fetch_add(static_cast<std::uint64_t>(cost),
                          std::memory_order_relaxed);
    if (cost_ctr_ != nullptr) cost_ctr_->inc(static_cast<std::uint64_t>(cost));
    if (charge_) charge_(cost);
    return cost;
  }

  TransitionCosts costs_;
  std::uint64_t eff_ecall_ns_ = 0;
  std::uint64_t eff_ocall_ns_ = 0;
  ChargeFn charge_;
  std::atomic<std::uint64_t> ecalls_{0};
  std::atomic<std::uint64_t> ocalls_{0};
  std::atomic<std::uint64_t> charged_ms_{0};
  obs::Counter* ecalls_ctr_ = nullptr;
  obs::Counter* ocalls_ctr_ = nullptr;
  obs::Counter* cost_ctr_ = nullptr;
};

}  // namespace sgxp2p::sgx
