// bench_micro — crypto primitive throughput (the costs behind Section 6's
// implementation remarks).
//
// Self-contained chrono harness (no external benchmark framework) so it can
// emit the same metrics-JSON contract as the figure benches. Measures the
// batched ChaCha20 keystream (scalar and, when the binary carries one, the
// SIMD kernel — toggled via chacha20_force_scalar()), the AeadKey
// single-allocation seal/open and the cached-key SecureLink seal. One X25519
// shared secret, the unit of the attested setup phase, is timed in ns/op.
// The crypto.* and channel.* counters are time-boxed iteration counts that
// CI compares against tests/baselines/BENCH_perf.json.
//
// Flags:
//   --quick           shorter measurement windows (CI smoke mode)
//   --repeats <n>     repetitions per benchmark (default 3); the reported
//                     number and the metrics JSON carry the MEDIAN, with
//                     min/max alongside, so `check_bench_json --compare`
//                     can run a tolerance well below the old 2x
//   --metrics-out [p] write {"bench":"perf","metrics":…} JSON (default
//                     BENCH_perf.json)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "channel/secure_link.hpp"
#include "sgx/measurement.hpp"
#include "crypto/aead.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/drbg.hpp"
#include "crypto/sha256.hpp"
#include "crypto/x25519.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace sgxp2p;
using namespace sgxp2p::crypto;

// Prevents the optimizer from deleting a benchmarked computation.
inline void keep(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

// ----- measurement harness -----

double g_seconds_per_bench = 0.25;  // --quick drops this to 0.05
int g_repeats = 3;  // odd, so the median is a real sample, not an average

struct Result {
  std::string name;
  double mbps = 0;      // median across repeats — the comparison-stable number
  double mbps_min = 0;
  double mbps_max = 0;
  double ns_per_op = 0;     // from the median repetition
  std::uint64_t iters = 0;  // iterations of the median repetition
};

/// Runs `fn` for ~g_seconds_per_bench, g_repeats times, and reports the
/// median throughput (min/max alongside). Scheduler noise hits min and max;
/// the median is what `check_bench_json --compare` gates on. With
/// `bytes_per_op` 0 the row is an operation, not a stream: it reports and
/// mirrors ns/op instead of MB/s.
template <typename Fn>
Result measure(const std::string& name, std::size_t bytes_per_op, Fn&& fn) {
  using clock = std::chrono::steady_clock;
  fn();  // warmup (touches caches, faults pages)
  struct Rep {
    double mbps = 0;
    double ns_per_op = 0;
    std::uint64_t iters = 0;
  };
  std::vector<Rep> reps;
  for (int rep = 0; rep < g_repeats; ++rep) {
    std::uint64_t iters = 0;
    auto start = clock::now();
    auto deadline =
        start + std::chrono::duration_cast<clock::duration>(
                    std::chrono::duration<double>(g_seconds_per_bench));
    clock::time_point now;
    do {
      for (int i = 0; i < 32; ++i) fn();  // amortize the clock reads
      iters += 32;
      now = clock::now();
    } while (now < deadline);
    double elapsed = std::chrono::duration<double>(now - start).count();
    Rep r;
    r.iters = iters;
    r.ns_per_op = elapsed * 1e9 / static_cast<double>(iters);
    r.mbps = static_cast<double>(iters) * static_cast<double>(bytes_per_op) /
             elapsed / (1024.0 * 1024.0);
    reps.push_back(r);
  }
  // Slowest repetition first.
  std::sort(reps.begin(), reps.end(), [](const Rep& a, const Rep& b) {
    return a.ns_per_op > b.ns_per_op;
  });
  const Rep& med = reps[reps.size() / 2];
  Result r;
  r.name = name;
  r.mbps = med.mbps;
  r.mbps_min = reps.front().mbps;
  r.mbps_max = reps.back().mbps;
  r.ns_per_op = med.ns_per_op;
  r.iters = med.iters;
  // Mirror into the metrics registry so the JSON snapshot carries the table.
  auto& reg = obs::MetricsRegistry::current();
  if (bytes_per_op == 0) {
    const double fastest = reps.back().ns_per_op;
    const double slowest = reps.front().ns_per_op;
    std::printf("  %-34s %10.0f ns/op  [%.0f..%.0f]\n", name.c_str(),
                r.ns_per_op, fastest, slowest);
    reg.gauge("bench." + name + ".ns_per_op")
        .set(static_cast<std::int64_t>(r.ns_per_op));
    reg.gauge("bench." + name + ".ns_per_op_min")
        .set(static_cast<std::int64_t>(fastest));
    reg.gauge("bench." + name + ".ns_per_op_max")
        .set(static_cast<std::int64_t>(slowest));
    return r;
  }
  std::printf("  %-34s %10.1f MB/s  [%.1f..%.1f]  %12.0f ns/op\n",
              name.c_str(), r.mbps, r.mbps_min, r.mbps_max, r.ns_per_op);
  reg.gauge("bench." + name + ".mbps").set(static_cast<std::int64_t>(r.mbps));
  reg.gauge("bench." + name + ".mbps_min")
      .set(static_cast<std::int64_t>(r.mbps_min));
  reg.gauge("bench." + name + ".mbps_max")
      .set(static_cast<std::int64_t>(r.mbps_max));
  return r;
}

int flag_present(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return i;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (flag_present(argc, argv, "--quick") != 0) g_seconds_per_bench = 0.05;
  if (int i = flag_present(argc, argv, "--repeats"); i != 0 && i + 1 < argc) {
    int reps = std::atoi(argv[i + 1]);
    if (reps > 0) g_repeats = reps;
  }
  std::string metrics_path;
  if (int i = flag_present(argc, argv, "--metrics-out"); i != 0) {
    metrics_path = (i + 1 < argc && argv[i + 1][0] != '-') ? argv[i + 1]
                                                           : "BENCH_perf.json";
  }

  auto& reg = obs::MetricsRegistry::current();
  std::printf("=== bench_micro: crypto primitive throughput ===\n");
  std::printf("chacha20 backend: %s, sha256 backend: %s   "
              "(window %.2fs/bench)\n\n",
              chacha20_backend(), sha256_backend(), g_seconds_per_bench);

  Bytes key32(kChaChaKeySize, 0x01), nonce(kChaChaNonceSize, 0x02);
  Bytes key64(kAeadKeySize, 0x42);
  AeadKey aead_key{ByteView(key64)};

  // --- keystream throughput: batched scalar vs batched SIMD ---
  std::printf("[chacha20 keystream, 4 KiB blocks]\n");
  Bytes buf(4096, 0x03);
  chacha20_force_scalar() = true;
  auto ks_scalar = measure("chacha20_scalar_4096", buf.size(), [&] {
    ChaCha20 c(key32, nonce, 1);
    c.crypt(buf.data(), buf.size());
    keep(buf.data());
  });
  chacha20_force_scalar() = false;
  auto ks_simd = measure(std::string("chacha20_") + chacha20_backend() +
                             "_4096",
                         buf.size(), [&] {
                           ChaCha20 c(key32, nonce, 1);
                           c.crypt(buf.data(), buf.size());
                           keep(buf.data());
                         });

  // --- AEAD seal/open on protocol-sized (100 B) and bulk (1 KiB) messages --
  std::uint64_t sealed_bytes = 0, opened_bytes = 0;
  std::vector<std::size_t> sizes{100, 1024};
  for (std::size_t sz : sizes) {
    std::printf("[aead seal/open, %zu B messages]\n", sz);
    Bytes msg(sz, 0x55);
    Bytes sealed = aead_seal(aead_key, nonce, {}, msg);
    auto seal_now = measure("aead_seal_" + std::to_string(sz), sz, [&] {
      Bytes out = aead_seal(aead_key, nonce, {}, msg);
      keep(out.data());
    });
    auto open_now = measure("aead_open_" + std::to_string(sz), sz, [&] {
      auto out = aead_open(aead_key, {}, sealed);
      keep(&out);
    });
    // Counters reflect the MEDIAN repetition only — summing all repeats
    // would scale crypto.seal_bytes with --repeats and break baseline
    // comparisons.
    sealed_bytes += seal_now.iters * sz;
    opened_bytes += open_now.iters * sz;
    std::printf("\n");
  }
  reg.counter("crypto.seal_bytes").inc(sealed_bytes);
  reg.counter("crypto.open_bytes").inc(opened_bytes);

  // --- the per-message channel cost ERB pays (cached-key SecureLink) ---
  std::printf("[secure link, 100 B protocol messages]\n");
  {
    channel::LinkKeys keys;
    Drbg d(to_bytes("link-bench"));
    keys.send_key = d.generate(kAeadKeySize);
    keys.recv_key = keys.send_key;
    sgx::Measurement m = sgx::measure({"bench", "1.0"});
    // The timed loop's own channel.* increments would scale with --repeats,
    // so the link runs against a scratch registry and the real one is
    // credited with the median repetition's seal count afterwards.
    Result r;
    {
      obs::MetricsRegistry scratch;
      obs::MetricsRegistry::ScopedCurrent scoped(scratch);
      channel::SecureLink a(0, 1, keys, m);
      Bytes msg(100, 0x12);
      r = measure("securelink_seal_100", msg.size(), [&] {
        Bytes sealed = a.seal(msg);
        keep(sealed.data());
      });
    }
    reg.gauge("bench.securelink_seal_100.mbps")
        .set(static_cast<std::int64_t>(r.mbps));
    reg.gauge("bench.securelink_seal_100.mbps_min")
        .set(static_cast<std::int64_t>(r.mbps_min));
    reg.gauge("bench.securelink_seal_100.mbps_max")
        .set(static_cast<std::int64_t>(r.mbps_max));
    reg.counter("channel.sealed").inc(r.iters);
    // Register the remaining channel instruments (zero in this bench) so
    // the snapshot keeps the full channel.* shape the baseline expects.
    reg.counter("channel.opened");
    reg.counter("channel.replay_rejected");
    reg.counter("channel.mac_failed");
    reg.counter("channel.window_overflow");
  }

  // --- one X25519 shared secret: the attested setup phase computes one per
  // ordered pair of enclaves, plus one public key per enclave ---
  std::printf("\n[x25519, one ladder]\n");
  {
    Drbg d(to_bytes("x25519-bench"));
    Bytes private_key = d.generate(kX25519KeySize);
    Bytes peer_public = x25519_public(d.generate(kX25519KeySize));
    measure("x25519_shared", 0, [&] {
      Bytes shared = x25519_shared(private_key, peer_public);
      keep(shared.data());
    });
  }

  std::printf("\n[summary]\n");
  std::printf("  keystream: scalar-batched %.0f MB/s, %s %.0f MB/s "
              "(%.2fx over scalar)\n",
              ks_scalar.mbps, chacha20_backend(), ks_simd.mbps,
              ks_simd.mbps / ks_scalar.mbps);

  if (!metrics_path.empty()) {
    std::string json =
        "{\"bench\":\"perf\",\"metrics\":" + reg.to_json() + "}\n";
    std::FILE* f = std::fopen(metrics_path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write metrics to %s\n",
                   metrics_path.c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("\nmetrics snapshot written to %s\n", metrics_path.c_str());
  }
  return 0;
}
