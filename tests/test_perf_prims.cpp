// Perf-primitive correctness: the batched/SIMD ChaCha20 kernels against the
// RFC 8439 vectors and the scalar path, the SHA-256 backend dispatch, the
// cached-key AEAD against the raw-key path, the fixed-width replay window's
// edges, and the --jobs invariance of the parallel sweep runner.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "channel/handshake.hpp"
#include "channel/secure_link.hpp"
#include "common/serde.hpp"
#include "crypto/aead.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/drbg.hpp"
#include "crypto/sha256.hpp"
#include "crypto/x25519.hpp"
#include "obs/metrics.hpp"
#include "sgx/enclave.hpp"

namespace sgxp2p {
namespace {

using namespace sgxp2p::crypto;

Bytes from_hex(const std::string& hex) {
  Bytes out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(
        std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

// RAII around the force-scalar hooks so a failing assertion can't leak the
// override into other tests.
struct ForceScalar {
  ForceScalar() {
    chacha20_force_scalar() = true;
    sha256_force_scalar() = true;
  }
  ~ForceScalar() {
    chacha20_force_scalar() = false;
    sha256_force_scalar() = false;
  }
};

// ----- RFC 8439 vectors -----

TEST(ChaChaRfc, KeystreamTestVector1) {
  // RFC 8439 A.1 test vector #1: zero key, zero nonce, counter 0.
  Bytes key(kChaChaKeySize, 0), nonce(kChaChaNonceSize, 0);
  Bytes expected = from_hex(
      "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7"
      "da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586");
  ChaCha20 c(key, nonce, 0);
  EXPECT_EQ(c.keystream(64), expected);

  // The same vector must come out of the forced-scalar path.
  ForceScalar scalar;
  ChaCha20 c2(key, nonce, 0);
  EXPECT_EQ(c2.keystream(64), expected);
}

TEST(ChaChaRfc, SunscreenEncryption) {
  // RFC 8439 §2.4.2: key 00..1f, nonce 00 00 00 00 00 00 00 4a 00 00 00 00,
  // counter 1.
  Bytes key(kChaChaKeySize);
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i);
  }
  Bytes nonce = from_hex("000000000000004a00000000");
  Bytes plaintext = to_bytes(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.");
  Bytes expected = from_hex(
      "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
      "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
      "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
      "5af90bbf74a35be6b40b8eedf2785e42874d");
  EXPECT_EQ(chacha20_crypt(key, nonce, 1, plaintext), expected);
}

// ----- scalar vs batched/SIMD equivalence -----

TEST(ChaChaBackend, ScalarAndSimdKeystreamsIdentical) {
  Bytes key = Drbg(to_bytes("cc-key")).generate(kChaChaKeySize);
  Bytes nonce = Drbg(to_bytes("cc-nonce")).generate(kChaChaNonceSize);
  // Every length through four batches, then batch-boundary neighborhoods.
  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len <= 300; ++len) lengths.push_back(len);
  for (std::size_t len : {511u, 512u, 513u, 1023u, 1024u, 1025u, 2048u,
                          4095u, 4096u, 4097u}) {
    lengths.push_back(len);
  }
  for (std::size_t len : lengths) {
    Bytes fast, slow;
    {
      ChaCha20 c(key, nonce, 1);
      fast = c.keystream(len);
    }
    {
      ForceScalar scalar;
      ChaCha20 c(key, nonce, 1);
      slow = c.keystream(len);
    }
    ASSERT_EQ(fast, slow) << "keystream diverges at length " << len;
  }
}

TEST(ChaChaBackend, StaggeredCryptMatchesOneShot) {
  // Consuming the stream through ragged crypt() calls must equal one shot —
  // exercises the refill/remainder bookkeeping around the batch buffer.
  Bytes key = Drbg(to_bytes("stagger-key")).generate(kChaChaKeySize);
  Bytes nonce = Drbg(to_bytes("stagger-nonce")).generate(kChaChaNonceSize);
  Bytes data = Drbg(to_bytes("stagger-data")).generate(3000);

  Bytes oneshot = chacha20_crypt(key, nonce, 1, data);
  Bytes staggered = data;
  ChaCha20 c(key, nonce, 1);
  std::size_t off = 0;
  // 1, 2, 4, 8, … ragged chunk sizes, never aligned to the block size.
  for (std::size_t chunk = 1; off < staggered.size(); chunk = chunk * 2 + 3) {
    std::size_t take = std::min(chunk, staggered.size() - off);
    c.crypt(staggered.data() + off, take);
    off += take;
  }
  EXPECT_EQ(staggered, oneshot);
}

TEST(ChaChaBackend, CounterWrapMatchesScalar) {
  // A batch that straddles the 32-bit block-counter wrap must match the
  // scalar path (the RFC counter is mod 2^32).
  Bytes key = Drbg(to_bytes("wrap-key")).generate(kChaChaKeySize);
  Bytes nonce = Drbg(to_bytes("wrap-nonce")).generate(kChaChaNonceSize);
  Bytes fast, slow;
  {
    ChaCha20 c(key, nonce, 0xFFFFFFFEu);
    fast = c.keystream(64 * 12);
  }
  {
    ForceScalar scalar;
    ChaCha20 c(key, nonce, 0xFFFFFFFEu);
    slow = c.keystream(64 * 12);
  }
  EXPECT_EQ(fast, slow);
}

TEST(Sha256Backend, ScalarAndAcceleratedDigestsIdentical) {
  for (std::size_t len = 0; len <= 300; ++len) {
    Bytes data = Drbg(to_bytes("sha-" + std::to_string(len))).generate(len);
    Sha256Digest fast = Sha256::hash(data);
    ForceScalar scalar;
    Sha256Digest slow = Sha256::hash(data);
    ASSERT_EQ(fast, slow) << "sha256 diverges at length " << len;
  }
  // One multi-block bulk input.
  Bytes big = Drbg(to_bytes("sha-big")).generate(8192);
  Sha256Digest fast = Sha256::hash(big);
  ForceScalar scalar;
  EXPECT_EQ(fast, Sha256::hash(big));
}

TEST(AeadKeyCache, MatchesRawKeyPath) {
  Bytes key = Drbg(to_bytes("aead-key")).generate(kAeadKeySize);
  AeadKey cached{ByteView(key)};
  Bytes nonce = Drbg(to_bytes("aead-nonce")).generate(kAeadNonceSize);
  Bytes ad = to_bytes("associated data");
  for (std::size_t len : {0u, 1u, 99u, 100u, 1024u, 4096u}) {
    Bytes msg = Drbg(to_bytes("aead-" + std::to_string(len))).generate(len);
    Bytes sealed_cached = aead_seal(cached, nonce, ad, msg);
    Bytes sealed_raw = aead_seal(ByteView(key), nonce, ad, msg);
    ASSERT_EQ(sealed_cached, sealed_raw) << "seal diverges at length " << len;
    auto opened = aead_open(cached, ad, sealed_raw);
    ASSERT_TRUE(opened.has_value());
    EXPECT_EQ(*opened, msg);
  }
}

// ----- replay window edges -----

class NullHost final : public sgx::EnclaveHostIface {
 public:
  void transfer(NodeId, Bytes) override {}
};

class ProbeEnclave final : public sgx::Enclave {
 public:
  using Enclave::Enclave;
  void deliver(NodeId, ByteView) override {}
  sgx::Quote make_quote(ByteView data) const { return quote(data); }
};

struct Links {
  sim::Simulator simulator;
  sgx::SgxPlatform platform{simulator, to_bytes("perf-prims")};
  sgx::SimIAS ias{platform};
  NullHost host;
  sgx::Measurement m = sgx::measure({"perf", "1"});
  std::optional<channel::SecureLink> a, b;

  Links() {
    sgx::ProgramIdentity prog{"perf", "1"};
    ProbeEnclave e_a(platform, 1, prog, host);
    ProbeEnclave e_b(platform, 2, prog, host);
    crypto::Drbg d(to_bytes("links-dh"));
    Bytes priv_a = d.generate(32);
    Bytes priv_b = d.generate(32);
    auto hello_a = channel::make_handshake(
        10, e_a.make_quote(crypto::x25519_public(priv_a)));
    auto hello_b = channel::make_handshake(
        20, e_b.make_quote(crypto::x25519_public(priv_b)));
    auto keys_a = channel::complete_handshake(hello_b, 10, priv_a, m, ias);
    auto keys_b = channel::complete_handshake(hello_a, 20, priv_b, m, ias);
    a.emplace(10, 20, std::move(*keys_a), m);
    b.emplace(20, 10, std::move(*keys_b), m);
  }
};

TEST(ReplayWindow, FarFutureSequenceRejected) {
  Links l;
  // Run the sender kReplayWindow + 5 messages ahead of the receiver's base:
  // accepting the newest would push a hole out of the window.
  std::vector<Bytes> blobs;
  for (std::uint64_t i = 0; i < channel::kReplayWindow + 5; ++i) {
    blobs.push_back(l.a->seal(to_bytes("m" + std::to_string(i))));
  }
  EXPECT_FALSE(l.b->open(blobs.back()).has_value());
  EXPECT_EQ(l.b->window_overflow_count(), 1u);
  EXPECT_EQ(l.b->replay_count(), 0u);
  // Messages inside the window still open fine afterwards.
  EXPECT_TRUE(l.b->open(blobs[0]).has_value());
  EXPECT_TRUE(l.b->open(blobs[100]).has_value());
}

TEST(ReplayWindow, SlidesAcrossManyWindows) {
  Links l;
  // 2·kReplayWindow + 10 in-order messages: the base must keep sliding and
  // every message (and no replay) must be accepted.
  Bytes replayed_early;
  for (std::uint64_t i = 0; i < 2 * channel::kReplayWindow + 10; ++i) {
    Bytes blob = l.a->seal(to_bytes("w" + std::to_string(i)));
    if (i == 3) replayed_early = blob;
    ASSERT_TRUE(l.b->open(blob).has_value()) << "rejected at seq " << i;
  }
  EXPECT_EQ(l.b->opened_count(), 2 * channel::kReplayWindow + 10);
  // A sequence far below the slid base is a replay, not an overflow.
  EXPECT_FALSE(l.b->open(replayed_early).has_value());
  EXPECT_EQ(l.b->replay_count(), 1u);
  EXPECT_EQ(l.b->window_overflow_count(), 0u);
}

TEST(ReplayWindow, ReverseDeliveryWithinWindowAccepted) {
  Links l;
  std::vector<Bytes> blobs;
  for (int i = 0; i < 1000; ++i) {
    blobs.push_back(l.a->seal(to_bytes("r" + std::to_string(i))));
  }
  for (auto it = blobs.rbegin(); it != blobs.rend(); ++it) {
    ASSERT_TRUE(l.b->open(*it).has_value());
  }
  // Base has slid over the contiguous prefix; everything replays as stale.
  EXPECT_FALSE(l.b->open(blobs[0]).has_value());
  EXPECT_FALSE(l.b->open(blobs[999]).has_value());
  EXPECT_EQ(l.b->replay_count(), 2u);
}

TEST(ReplayWindow, SerializeRestoreKeepsContinuity) {
  Links l;
  std::vector<Bytes> blobs;
  for (int i = 0; i < 10; ++i) {
    blobs.push_back(l.a->seal(to_bytes("c" + std::to_string(i))));
  }
  // Open 0–4 (with 3 skipped → a hole), checkpoint, restore, continue.
  for (int i = 0; i < 5; ++i) {
    if (i == 3) continue;
    ASSERT_TRUE(l.b->open(blobs[i]).has_value());
  }
  Bytes saved = l.b->serialize();
  auto restored = channel::SecureLink::deserialize(saved, l.m);
  ASSERT_TRUE(restored.has_value());
  // The hole is still fresh; the already-opened ones are still replays.
  EXPECT_TRUE(restored->open(blobs[3]).has_value());
  EXPECT_FALSE(restored->open(blobs[2]).has_value());
  for (int i = 5; i < 10; ++i) {
    ASSERT_TRUE(restored->open(blobs[i]).has_value());
  }
  // The restored sender side resumes the sequence without nonce reuse.
  auto restored_a = channel::SecureLink::deserialize(l.a->serialize(), l.m);
  ASSERT_TRUE(restored_a.has_value());
  EXPECT_TRUE(restored->open(restored_a->seal(to_bytes("post"))).has_value());
}

TEST(ReplayWindow, V1CheckpointRejected) {
  Links l;
  // A v1-era checkpoint (sparse set window) predates the bitmap layout.
  BinaryWriter w;
  w.str("sgxp2p-link-v1");
  w.u32(10);
  w.u32(20);
  EXPECT_FALSE(
      channel::SecureLink::deserialize(w.take(), l.m).has_value());

  // Truncated v2 payloads are rejected too.
  Bytes good = l.a->serialize();
  good.resize(good.size() - 3);
  EXPECT_FALSE(channel::SecureLink::deserialize(good, l.m).has_value());
}

// ----- sweep runner: --jobs must not change results or metrics -----

TEST(SweepRunner, JobsInvariantResultsAndMetrics) {
  auto point = [](std::size_t i) {
    return scenario::run_erb(
        scenario::sim_config(6, 900 + i, scenario::kBenchDelta,
                             protocol::ChannelMode::kAccounted),
        bench::kErbPayload);
  };
  obs::MetricsRegistry reg_seq, reg_par;
  std::vector<scenario::Report> seq, par;
  {
    obs::MetricsRegistry::ScopedCurrent bind(reg_seq);
    seq = bench::run_sweep<scenario::Report>(5, 1, point);
  }
  {
    obs::MetricsRegistry::ScopedCurrent bind(reg_par);
    par = bench::run_sweep<scenario::Report>(5, 4, point);
  }
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].rounds, par[i].rounds);
    EXPECT_EQ(seq[i].messages, par[i].messages);
    EXPECT_EQ(seq[i].bytes, par[i].bytes);
    EXPECT_DOUBLE_EQ(seq[i].termination_s(), par[i].termination_s());
    EXPECT_EQ(seq[i].honest_done(), par[i].honest_done());
  }
  // The merged parent registries must be byte-identical JSON.
  EXPECT_EQ(reg_seq.to_json(), reg_par.to_json());
}

TEST(SweepRunner, PointExceptionPropagates) {
  EXPECT_THROW(
      bench::run_sweep<int>(3, 2,
                            [](std::size_t i) -> int {
                              if (i == 1) throw std::runtime_error("boom");
                              return static_cast<int>(i);
                            }),
      std::runtime_error);
}

}  // namespace
}  // namespace sgxp2p
