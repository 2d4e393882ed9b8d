// Ablations for the design decisions DESIGN.md §4 calls out:
//   1. Halt-on-divergence (P4) on/off under the chain adversary — active
//      elimination is what shrinks byzantine-case traffic (Fig. 3c) and
//      what sanitizes the network.
//   2. Blinded channel vs signature chains — per-message wire and CPU cost
//      (the Appendix B efficiency argument).
//   3. ERNG-opt one-phase vs two-phase cluster sampling — O(γ³) vs
//      O(γ^{5/2}) intra-cluster traffic.
#include <chrono>
#include <cstdio>
#include <memory>

#include "bench_util.hpp"
#include "crypto/aead.hpp"
#include "crypto/merkle.hpp"
#include "stats/table.hpp"

namespace {
using namespace sgxp2p;

sim::TestbedConfig ablation_config(std::uint32_t n, std::uint64_t seed) {
  return scenario::sim_config(n, seed, scenario::kBenchDelta,
                              protocol::ChannelMode::kAccounted);
}

}  // namespace

int main(int argc, char** argv) {
  auto obs = sgxp2p::bench::parse_obs(argc, argv, "ablation");
  std::printf("=== Ablation 1: halt-on-divergence (P4) on/off ===\n");
  std::printf("N=129, chain adversary with f=16\n\n");
  {
    stats::Table table({"P4", "rounds", "messages", "bytes"});
    for (bool halt : {true, false}) {
      auto r = scenario::run_erb(ablation_config(129, 5), to_bytes("payload"),
                                 16, halt);
      table.add_row({halt ? "on" : "off", std::to_string(r.rounds),
                     stats::fmt_int(r.messages), stats::fmt_int(r.bytes)});
    }
    table.print();
    std::printf("with P4 off, chain members are never churned: they keep "
                "receiving multicasts (and the network keeps paying for "
                "them), and a repeated-instance deployment never "
                "sanitizes.\n\n");
  }

  std::printf("=== Ablation 2: blinded channel vs signature chain ===\n\n");
  {
    using namespace sgxp2p::crypto;
    using clock = std::chrono::steady_clock;
    // ERB pays one AEAD seal per message (~100 B); RBsig pays a WOTS sign on
    // relay and a chain verify per receipt, with ~2.2 KiB per signature.
    Bytes key(kAeadKeySize, 0x42), nonce(kAeadNonceSize, 0), msg(100, 0x55);
    auto t0 = clock::now();
    constexpr int kIters = 2000;
    std::size_t sink = 0;
    for (int i = 0; i < kIters; ++i) {
      store_le32(nonce.data(), static_cast<std::uint32_t>(i));
      sink += aead_seal(key, nonce, {}, msg).size();
    }
    if (sink == 0) std::printf("unreachable\n");
    double aead_us = std::chrono::duration<double, std::micro>(clock::now() - t0)
                         .count() / kIters;

    Bytes seed = Sha256::hash_bytes(to_bytes("ablation"));
    WotsKeyPair kp = wots_keygen(seed, 0);
    t0 = clock::now();
    Bytes sig;
    for (int i = 0; i < 50; ++i) sig = wots_sign(kp, 0, msg);
    double sign_us =
        std::chrono::duration<double, std::micro>(clock::now() - t0).count() /
        50;
    t0 = clock::now();
    for (int i = 0; i < 50; ++i) (void)wots_verify(kp.public_key, 0, msg, sig);
    double verify_us =
        std::chrono::duration<double, std::micro>(clock::now() - t0).count() /
        50;

    stats::Table table({"operation", "cost (us)", "wire bytes"});
    table.add_row({"ERB: AEAD seal (100 B val)", stats::fmt(aead_us, 1),
                   std::to_string(100 + kAeadOverhead)});
    table.add_row({"RBsig: WOTS sign", stats::fmt(sign_us, 1),
                   std::to_string(kWotsSigSize)});
    table.add_row({"RBsig: WOTS verify", stats::fmt(verify_us, 1), "-"});
    table.print();
    std::printf("\n");
  }

  std::printf("=== Ablation 3: ERNG-opt one-phase vs two-phase sampling ===\n");
  std::printf("N=192, t=64, sampled cluster\n\n");
  {
    stats::Table table({"sampling", "rounds", "messages", "bytes"});
    for (bool one_phase : {false, true}) {
      auto r = scenario::run_erng_opt(ablation_config(192, 7),
                                      {.one_phase = one_phase});
      table.add_row({one_phase ? "one-phase (all initiate)" : "two-phase (γ')",
                     std::to_string(r.rounds), stats::fmt_int(r.messages),
                     stats::fmt_int(r.bytes)});
    }
    table.print();
    std::printf("two-phase keeps only ~√γ initiators, trimming the "
                "intra-cluster ERB traffic from O(γ³) toward O(γ^{5/2}) "
                "(Appendix F).\n");
  }
  sgxp2p::bench::finish_obs(obs);
  return 0;
}
