// Crypto substrate tests: published vectors plus algebraic properties.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "crypto/aead.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/ct.hpp"
#include "crypto/drbg.hpp"
#include "crypto/hmac.hpp"
#include "crypto/merkle.hpp"
#include "crypto/sha256.hpp"
#include "crypto/wots.hpp"
#include "crypto/x25519.hpp"

namespace sgxp2p::crypto {
namespace {

Bytes from_hex(const char* hex) {
  auto out = hex_decode(hex);
  EXPECT_TRUE(out.has_value());
  return out.value_or(Bytes{});
}

std::string digest_hex(const Sha256Digest& d) {
  return hex_encode(ByteView(d.data(), d.size()));
}

// --- SHA-256 (FIPS 180-4 examples) ---

TEST(Sha256, EmptyString) {
  EXPECT_EQ(digest_hex(Sha256::hash({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  Bytes msg = to_bytes("abc");
  EXPECT_EQ(digest_hex(Sha256::hash(msg)),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  Bytes msg = to_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  EXPECT_EQ(digest_hex(Sha256::hash(msg)),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(digest_hex(h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    std::size_t len = rng.next_below(500);
    Bytes msg(len);
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next_u64());
    Sha256 h;
    std::size_t pos = 0;
    while (pos < msg.size()) {
      std::size_t take = std::min<std::size_t>(
          msg.size() - pos, 1 + rng.next_below(64));
      h.update(ByteView(msg.data() + pos, take));
      // An empty update (null data pointer) is a no-op, also mid-block.
      h.update(ByteView{});
      pos += take;
    }
    EXPECT_EQ(h.finalize(), Sha256::hash(msg)) << "len=" << len;
  }
}

TEST(Sha256, BoundaryLengths) {
  // Exercise padding edges: 55, 56, 63, 64, 65 bytes.
  for (std::size_t len : {0u, 1u, 55u, 56u, 57u, 63u, 64u, 65u, 127u, 128u}) {
    Bytes msg(len, 0x5a);
    Sha256 h;
    h.update(msg);
    EXPECT_EQ(h.finalize(), Sha256::hash(msg)) << "len=" << len;
  }
}

// --- HMAC-SHA256 (RFC 4231) ---

TEST(Hmac, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  Bytes data = to_bytes("Hi There");
  EXPECT_EQ(digest_hex(HmacSha256::mac(key, data)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  Bytes key = to_bytes("Jefe");
  Bytes data = to_bytes("what do ya want for nothing?");
  EXPECT_EQ(digest_hex(HmacSha256::mac(key, data)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  Bytes key(131, 0xaa);
  Bytes data = to_bytes("Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(digest_hex(HmacSha256::mac(key, data)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, KeySensitivity) {
  Bytes data = to_bytes("message");
  auto t1 = HmacSha256::mac(to_bytes("key1"), data);
  auto t2 = HmacSha256::mac(to_bytes("key2"), data);
  EXPECT_NE(t1, t2);
}

// --- HKDF (RFC 5869 test case 1) ---

TEST(Hkdf, Rfc5869Case1) {
  Bytes ikm(22, 0x0b);
  Bytes salt = from_hex("000102030405060708090a0b0c");
  Bytes info = from_hex("f0f1f2f3f4f5f6f7f8f9");
  Bytes okm = hkdf(salt, ikm, info, 42);
  EXPECT_EQ(hex_encode(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, ExpandLengths) {
  Bytes prk = Sha256::hash_bytes(to_bytes("prk"));
  for (std::size_t len : {1u, 31u, 32u, 33u, 64u, 100u}) {
    Bytes okm = hkdf_expand(prk, to_bytes("info"), len);
    EXPECT_EQ(okm.size(), len);
  }
  // Prefix property: shorter outputs are prefixes of longer ones.
  Bytes a = hkdf_expand(prk, to_bytes("info"), 16);
  Bytes b = hkdf_expand(prk, to_bytes("info"), 48);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
}

// --- ChaCha20 (RFC 8439) ---

TEST(ChaCha20, Rfc8439BlockFunction) {
  // RFC 8439 §2.3.2: key 00..1f, nonce 000000090000004a00000000, counter 1.
  Bytes key(32);
  for (int i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  Bytes nonce = from_hex("000000090000004a00000000");
  ChaCha20 c(key, nonce, 1);
  Bytes ks = c.keystream(64);
  EXPECT_EQ(hex_encode(ks),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20, Rfc8439Section242) {
  // RFC 8439 §2.4.2: key 00..1f, nonce 000000000000004a00000000, counter 1,
  // plaintext "Ladies and Gentlemen..."
  Bytes key = from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Bytes nonce = from_hex("000000000000004a00000000");
  Bytes plaintext = to_bytes(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.");
  Bytes ct = chacha20_crypt(key, nonce, 1, plaintext);
  EXPECT_EQ(hex_encode(ByteView(ct.data(), 16)),
            "6e2e359a2568f98041ba0728dd0d6981");
  // Decrypt round-trips.
  Bytes pt = chacha20_crypt(key, nonce, 1, ct);
  EXPECT_EQ(pt, plaintext);
}

TEST(ChaCha20, RoundTripRandom) {
  Rng rng(13);
  Bytes key(32), nonce(12);
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next_u64());
  for (auto& b : nonce) b = static_cast<std::uint8_t>(rng.next_u64());
  for (std::size_t len : {0u, 1u, 63u, 64u, 65u, 1000u}) {
    Bytes msg(len);
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next_u64());
    Bytes ct = chacha20_crypt(key, nonce, 1, msg);
    EXPECT_EQ(chacha20_crypt(key, nonce, 1, ct), msg);
    if (len > 0) {
      EXPECT_NE(ct, msg);
    }
  }
}

TEST(ChaCha20, IncrementalMatchesOneShot) {
  Bytes key(32, 0x42), nonce(12, 0x24);
  Bytes msg(300, 0xab);
  Bytes expected = chacha20_crypt(key, nonce, 0, msg);
  ChaCha20 c(key, nonce, 0);
  Bytes out = msg;
  c.crypt(out.data(), 100);
  c.crypt(out.data() + 100, 1);
  c.crypt(out.data() + 101, 199);
  EXPECT_EQ(out, expected);
}

// --- DRBG ---

TEST(Drbg, Deterministic) {
  Drbg a(to_bytes("seed"));
  Drbg b(to_bytes("seed"));
  EXPECT_EQ(a.generate(100), b.generate(100));
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Drbg, SeedSeparation) {
  Drbg a(to_bytes("seed-a"));
  Drbg b(to_bytes("seed-b"));
  EXPECT_NE(a.generate(32), b.generate(32));
}

TEST(Drbg, ReseedChangesStream) {
  Drbg a(to_bytes("seed"));
  Drbg b(to_bytes("seed"));
  (void)a.generate(10);
  (void)b.generate(10);
  b.reseed(to_bytes("fresh"));
  EXPECT_NE(a.generate(32), b.generate(32));
}

TEST(Drbg, NextBelowIsInRangeAndCoversRange) {
  Drbg d(to_bytes("range"));
  bool seen[10] = {};
  for (int i = 0; i < 2000; ++i) {
    std::uint64_t v = d.next_below(10);
    ASSERT_LT(v, 10u);
    seen[v] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Drbg, BitBalance) {
  // Crude sanity check of unbiasedness: ones frequency within 1% of half.
  Drbg d(to_bytes("balance"));
  Bytes data = d.generate(1 << 16);
  std::size_t ones = 0;
  for (std::uint8_t b : data) ones += static_cast<std::size_t>(__builtin_popcount(b));
  double frac = static_cast<double>(ones) / (data.size() * 8);
  EXPECT_NEAR(frac, 0.5, 0.01);
}

// --- AEAD ---

TEST(Aead, SealOpenRoundTrip) {
  Bytes key(kAeadKeySize, 0x11);
  Bytes nonce(kAeadNonceSize, 0x22);
  Bytes ad = to_bytes("header");
  Bytes msg = to_bytes("attack at dawn");
  Bytes sealed = aead_seal(key, nonce, ad, msg);
  EXPECT_EQ(sealed.size(), msg.size() + kAeadOverhead);
  auto opened = aead_open(key, ad, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, msg);
}

TEST(Aead, TamperingDetected) {
  Bytes key(kAeadKeySize, 0x11);
  Bytes nonce(kAeadNonceSize, 0x22);
  Bytes msg = to_bytes("attack at dawn");
  Bytes sealed = aead_seal(key, nonce, {}, msg);
  // Flip every byte position in turn; all must fail to open.
  for (std::size_t i = 0; i < sealed.size(); ++i) {
    Bytes bad = sealed;
    bad[i] ^= 0x01;
    EXPECT_FALSE(aead_open(key, {}, bad).has_value()) << "byte " << i;
  }
}

TEST(Aead, WrongAssociatedDataFails) {
  Bytes key(kAeadKeySize, 0x11);
  Bytes nonce(kAeadNonceSize, 0x22);
  Bytes sealed = aead_seal(key, nonce, to_bytes("ad1"), to_bytes("m"));
  EXPECT_FALSE(aead_open(key, to_bytes("ad2"), sealed).has_value());
  EXPECT_TRUE(aead_open(key, to_bytes("ad1"), sealed).has_value());
}

TEST(Aead, WrongKeyFails) {
  Bytes key1(kAeadKeySize, 0x11), key2(kAeadKeySize, 0x12);
  Bytes nonce(kAeadNonceSize, 0);
  Bytes sealed = aead_seal(key1, nonce, {}, to_bytes("m"));
  EXPECT_FALSE(aead_open(key2, {}, sealed).has_value());
}

TEST(Aead, TruncationFails) {
  Bytes key(kAeadKeySize, 0x11);
  Bytes nonce(kAeadNonceSize, 0);
  Bytes sealed = aead_seal(key, nonce, {}, to_bytes("hello"));
  for (std::size_t len = 0; len < sealed.size(); ++len) {
    Bytes prefix(sealed.begin(), sealed.begin() + static_cast<long>(len));
    EXPECT_FALSE(aead_open(key, {}, prefix).has_value()) << "len " << len;
  }
}

TEST(Aead, EmptyPlaintext) {
  Bytes key(kAeadKeySize, 0x31);
  Bytes nonce(kAeadNonceSize, 0x01);
  Bytes sealed = aead_seal(key, nonce, {}, {});
  auto opened = aead_open(key, {}, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_TRUE(opened->empty());
}

// --- X25519 (RFC 7748) ---

TEST(X25519, Rfc7748Vector1) {
  Bytes scalar = from_hex(
      "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  Bytes point = from_hex(
      "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  X25519Key k, u;
  std::copy(scalar.begin(), scalar.end(), k.begin());
  std::copy(point.begin(), point.end(), u.begin());
  X25519Key out = x25519(k, u);
  EXPECT_EQ(hex_encode(ByteView(out.data(), out.size())),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
}

TEST(X25519, Rfc7748DiffieHellman) {
  Bytes alice_priv = from_hex(
      "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
  Bytes bob_priv = from_hex(
      "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
  Bytes alice_pub = x25519_public(alice_priv);
  Bytes bob_pub = x25519_public(bob_priv);
  EXPECT_EQ(hex_encode(alice_pub),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
  EXPECT_EQ(hex_encode(bob_pub),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");
  Bytes s1 = x25519_shared(alice_priv, bob_pub);
  Bytes s2 = x25519_shared(bob_priv, alice_pub);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(hex_encode(s1),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
}

TEST(X25519, RandomKeyAgreement) {
  // Structural check: DH agreement holds for random keys, which fails for
  // essentially any bug in the field arithmetic or ladder.
  Drbg d(to_bytes("x25519-agreement"));
  for (int trial = 0; trial < 8; ++trial) {
    Bytes a = d.generate(32), b = d.generate(32);
    Bytes shared_ab = x25519_shared(a, x25519_public(b));
    Bytes shared_ba = x25519_shared(b, x25519_public(a));
    EXPECT_EQ(shared_ab, shared_ba) << "trial " << trial;
  }
}

namespace {
X25519Key u_coordinate(std::uint8_t low) {
  X25519Key u{};
  u[0] = low;
  return u;
}
}  // namespace

TEST(X25519, Rfc7748Iterated) {
  // RFC 7748 §5.2: k = u = 9, then k, u ← x25519(k, u), k. Each ladder's
  // output feeds the next, so one wrong limb anywhere shows at the end.
  // The 1,000,000-iteration vector is too slow for tier-1.
  X25519Key k = u_coordinate(9), u = k;
  for (int i = 1; i <= 1000; ++i) {
    X25519Key r = x25519(k, u);
    u = k;
    k = r;
    if (i == 1) {
      EXPECT_EQ(
          hex_encode(ByteView(k.data(), k.size())),
          "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079");
    }
  }
  EXPECT_EQ(hex_encode(ByteView(k.data(), k.size())),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51");
}

TEST(X25519, ZeroPointGivesZero) {
  X25519Key k = u_coordinate(9);
  k[17] = 0xa5;
  EXPECT_EQ(x25519(k, u_coordinate(0)), X25519Key{});
}

TEST(X25519, NonCanonicalPointMatchesReduced) {
  // RFC 7748 §5: implementations accept non-canonical u (≥ p) and mask
  // bit 255. p + 9 = 2^255 − 10 and 9 + 2^255 both reduce to u = 9.
  X25519Key k = u_coordinate(9);
  k[31] = 0x42;
  const X25519Key expected = x25519(k, u_coordinate(9));
  X25519Key p_plus_9;
  p_plus_9.fill(0xff);
  p_plus_9[0] = 0xf6;
  p_plus_9[31] = 0x7f;
  EXPECT_EQ(x25519(k, p_plus_9), expected);
  X25519Key top_bit_set = u_coordinate(9);
  top_bit_set[31] = 0x80;
  EXPECT_EQ(x25519(k, top_bit_set), expected);
}

// --- WOTS ---

TEST(Wots, SignVerify) {
  Bytes seed = Sha256::hash_bytes(to_bytes("wots-seed"));
  WotsKeyPair kp = wots_keygen(seed, 0);
  Bytes msg = to_bytes("broadcast payload");
  Bytes sig = wots_sign(kp, 0, msg);
  EXPECT_EQ(sig.size(), kWotsSigSize);
  EXPECT_TRUE(wots_verify(kp.public_key, 0, msg, sig));
}

TEST(Wots, WrongMessageRejected) {
  Bytes seed = Sha256::hash_bytes(to_bytes("wots-seed"));
  WotsKeyPair kp = wots_keygen(seed, 3);
  Bytes sig = wots_sign(kp, 3, to_bytes("m1"));
  EXPECT_FALSE(wots_verify(kp.public_key, 3, to_bytes("m2"), sig));
}

TEST(Wots, WrongAddressRejected) {
  Bytes seed = Sha256::hash_bytes(to_bytes("wots-seed"));
  WotsKeyPair kp = wots_keygen(seed, 5);
  Bytes msg = to_bytes("m");
  Bytes sig = wots_sign(kp, 5, msg);
  EXPECT_FALSE(wots_verify(kp.public_key, 6, msg, sig));
}

TEST(Wots, CorruptedSignatureRejected) {
  Bytes seed = Sha256::hash_bytes(to_bytes("wots-seed"));
  WotsKeyPair kp = wots_keygen(seed, 0);
  Bytes msg = to_bytes("m");
  Bytes sig = wots_sign(kp, 0, msg);
  Rng rng(3);
  for (int trial = 0; trial < 16; ++trial) {
    Bytes bad = sig;
    bad[rng.next_below(bad.size())] ^= 0xff;
    EXPECT_FALSE(wots_verify(kp.public_key, 0, msg, bad));
  }
}

// --- Merkle tree ---

TEST(Merkle, ProofsVerifyForAllLeaves) {
  for (std::size_t n : {1u, 2u, 3u, 5u, 8u, 13u}) {
    std::vector<Bytes> leaves;
    for (std::size_t i = 0; i < n; ++i) {
      leaves.push_back(to_bytes("leaf-" + std::to_string(i)));
    }
    MerkleTree tree(leaves);
    for (std::size_t i = 0; i < n; ++i) {
      auto proof = tree.proof(i);
      EXPECT_TRUE(
          MerkleTree::verify(tree.root(), leaves[i], i, n, proof))
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(Merkle, WrongLeafOrIndexRejected) {
  std::vector<Bytes> leaves;
  for (int i = 0; i < 8; ++i) leaves.push_back(to_bytes("L" + std::to_string(i)));
  MerkleTree tree(leaves);
  auto proof = tree.proof(2);
  EXPECT_FALSE(MerkleTree::verify(tree.root(), to_bytes("evil"), 2, 8, proof));
  EXPECT_FALSE(MerkleTree::verify(tree.root(), leaves[2], 3, 8, proof));
}

TEST(Merkle, SignerSignVerify) {
  Bytes seed = Sha256::hash_bytes(to_bytes("merkle-signer"));
  MerkleSigner signer(seed, 4);
  EXPECT_EQ(signer.remaining(), 16u);
  Bytes msg = to_bytes("hello");
  Bytes sig = signer.sign(msg);
  EXPECT_EQ(sig.size(), merkle_sig_size(4));
  EXPECT_TRUE(merkle_verify(signer.public_key(), msg, sig));
  EXPECT_FALSE(merkle_verify(signer.public_key(), to_bytes("other"), sig));
  EXPECT_EQ(signer.remaining(), 15u);
}

TEST(Merkle, SignerManyMessagesDistinctLeaves) {
  Bytes seed = Sha256::hash_bytes(to_bytes("merkle-many"));
  MerkleSigner signer(seed, 4);
  for (int i = 0; i < 16; ++i) {
    Bytes msg = to_bytes("msg-" + std::to_string(i));
    Bytes sig = signer.sign(msg);
    EXPECT_TRUE(merkle_verify(signer.public_key(), msg, sig)) << i;
  }
  EXPECT_THROW(signer.sign(to_bytes("overflow")), std::runtime_error);
}

TEST(Merkle, CrossSignerRejected) {
  MerkleSigner s1(Sha256::hash_bytes(to_bytes("s1")), 3);
  MerkleSigner s2(Sha256::hash_bytes(to_bytes("s2")), 3);
  Bytes msg = to_bytes("m");
  Bytes sig = s1.sign(msg);
  EXPECT_FALSE(merkle_verify(s2.public_key(), msg, sig));
}

// --- constant-time compare ---

TEST(Ct, Equal) {
  EXPECT_TRUE(ct_equal(to_bytes("abc"), to_bytes("abc")));
  EXPECT_FALSE(ct_equal(to_bytes("abc"), to_bytes("abd")));
  EXPECT_FALSE(ct_equal(to_bytes("abc"), to_bytes("ab")));
  EXPECT_TRUE(ct_equal({}, {}));
}

}  // namespace
}  // namespace sgxp2p::crypto
