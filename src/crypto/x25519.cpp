#include "crypto/x25519.hpp"

#include <cstring>
#include <stdexcept>

namespace sgxp2p::crypto {

namespace {

// Field element in GF(2^255 − 19): five unsigned limbs of 51 bits.
// Invariant maintained between operations: limbs < 2^54 (fe_sub's outputs
// reach about 2^53), the bound fe_mul and fe_sq need.
using Fe = std::array<std::uint64_t, 5>;

constexpr std::uint64_t kMask51 = (1ULL << 51) - 1;

constexpr Fe fe_zero() { return {0, 0, 0, 0, 0}; }
constexpr Fe fe_one() { return {1, 0, 0, 0, 0}; }

Fe fe_add(const Fe& a, const Fe& b) {
  return {a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3], a[4] + b[4]};
}

// a − b, computed as a + 2p − b to avoid underflow. 2p has limbs
// (2^52 − 38, 2^52 − 2, …).
Fe fe_sub(const Fe& a, const Fe& b) {
  constexpr std::uint64_t kTwoP0 = (1ULL << 52) - 38;
  constexpr std::uint64_t kTwoPi = (1ULL << 52) - 2;
  return {a[0] + kTwoP0 - b[0], a[1] + kTwoPi - b[1], a[2] + kTwoPi - b[2],
          a[3] + kTwoPi - b[3], a[4] + kTwoPi - b[4]};
}

// Carries the five 128-bit columns of a product or square down to limbs
// below 2^51 (limb 1 below 2^51 + 2^13). With input limbs below 2^54, columns
// t0–t3 stay below 77·2^108 < 2^115 and t4, which takes no factor 19, below
// 5·2^108, so every carry fits 64 bits and so does 19 times the last one.
[[gnu::always_inline]] inline Fe fe_reduce(unsigned __int128 t0,
                                           unsigned __int128 t1,
                                           unsigned __int128 t2,
                                           unsigned __int128 t3,
                                           unsigned __int128 t4) {
  Fe r;
  std::uint64_t carry;
  r[0] = (std::uint64_t)t0 & kMask51; carry = (std::uint64_t)(t0 >> 51);
  t1 += carry;
  r[1] = (std::uint64_t)t1 & kMask51; carry = (std::uint64_t)(t1 >> 51);
  t2 += carry;
  r[2] = (std::uint64_t)t2 & kMask51; carry = (std::uint64_t)(t2 >> 51);
  t3 += carry;
  r[3] = (std::uint64_t)t3 & kMask51; carry = (std::uint64_t)(t3 >> 51);
  t4 += carry;
  r[4] = (std::uint64_t)t4 & kMask51; carry = (std::uint64_t)(t4 >> 51);
  r[0] += carry * 19;
  carry = r[0] >> 51;
  r[0] &= kMask51;
  r[1] += carry;
  return r;
}

// a·b, 25 products.
[[gnu::always_inline]] inline Fe fe_mul(const Fe& a, const Fe& b) {
  using U128 = unsigned __int128;
  const std::uint64_t b1_19 = b[1] * 19, b2_19 = b[2] * 19,
                      b3_19 = b[3] * 19, b4_19 = b[4] * 19;

  U128 t0 = (U128)a[0] * b[0] + (U128)a[1] * b4_19 + (U128)a[2] * b3_19 +
            (U128)a[3] * b2_19 + (U128)a[4] * b1_19;
  U128 t1 = (U128)a[0] * b[1] + (U128)a[1] * b[0] + (U128)a[2] * b4_19 +
            (U128)a[3] * b3_19 + (U128)a[4] * b2_19;
  U128 t2 = (U128)a[0] * b[2] + (U128)a[1] * b[1] + (U128)a[2] * b[0] +
            (U128)a[3] * b4_19 + (U128)a[4] * b3_19;
  U128 t3 = (U128)a[0] * b[3] + (U128)a[1] * b[2] + (U128)a[2] * b[1] +
            (U128)a[3] * b[0] + (U128)a[4] * b4_19;
  U128 t4 = (U128)a[0] * b[4] + (U128)a[1] * b[3] + (U128)a[2] * b[2] +
            (U128)a[3] * b[1] + (U128)a[4] * b[0];
  return fe_reduce(t0, t1, t2, t3, t4);
}

// a², 15 products: each cross term a_i·a_j (i ≠ j) is computed once and
// doubled. Like fe_mul it relies on input limbs below 2^54, which keeps
// 38·a_i below 2^60 and the columns within fe_reduce's bounds. Inputs coming
// from fe_sub reach about 2^53.
[[gnu::always_inline]] inline Fe fe_sq(const Fe& a) {
  using U128 = unsigned __int128;
  const std::uint64_t a0_2 = a[0] * 2, a1_2 = a[1] * 2, a2_38 = a[2] * 38,
                      a3_19 = a[3] * 19, a4_19 = a[4] * 19, a4_38 = a[4] * 38;

  U128 t0 = (U128)a[0] * a[0] + (U128)a[1] * a4_38 + (U128)a[3] * a2_38;
  U128 t1 = (U128)a0_2 * a[1] + (U128)a[4] * a2_38 + (U128)a[3] * a3_19;
  U128 t2 = (U128)a0_2 * a[2] + (U128)a[1] * a[1] + (U128)a[3] * a4_38;
  U128 t3 = (U128)a0_2 * a[3] + (U128)a1_2 * a[2] + (U128)a[4] * a4_19;
  U128 t4 = (U128)a0_2 * a[4] + (U128)a1_2 * a[3] + (U128)a[2] * a[2];
  return fe_reduce(t0, t1, t2, t3, t4);
}

// a^(2^n): n squarings.
Fe fe_sq_n(Fe a, int n) {
  for (int i = 0; i < n; ++i) a = fe_sq(a);
  return a;
}

// a · 121665, the (A − 2)/4 constant of the Montgomery ladder.
Fe fe_mul121665(const Fe& a) {
  using U128 = unsigned __int128;
  Fe r;
  std::uint64_t carry = 0;
  for (int i = 0; i < 5; ++i) {
    U128 t = (U128)a[i] * 121665 + carry;
    r[i] = (std::uint64_t)t & kMask51;
    carry = (std::uint64_t)(t >> 51);
  }
  r[0] += carry * 19;
  carry = r[0] >> 51;
  r[0] &= kMask51;
  r[1] += carry;
  return r;
}

// z^(p − 2) = z^(2^255 − 21) by the fixed addition chain of ref10 and
// curve25519-donna: 254 squarings and 11 multiplies. The exponent is public,
// so the sequence of operations does not depend on z.
Fe fe_invert(const Fe& z) {
  // Names give the exponent of z held: z9 = z^9, z2_5_0 = z^(2^5 − 2^0).
  Fe z2 = fe_sq(z);
  Fe z9 = fe_mul(fe_sq_n(z2, 2), z);
  Fe z11 = fe_mul(z9, z2);
  Fe z2_5_0 = fe_mul(fe_sq(z11), z9);                      // 2^5 − 1
  Fe z2_10_0 = fe_mul(fe_sq_n(z2_5_0, 5), z2_5_0);         // 2^10 − 1
  Fe z2_20_0 = fe_mul(fe_sq_n(z2_10_0, 10), z2_10_0);      // 2^20 − 1
  Fe z2_40_0 = fe_mul(fe_sq_n(z2_20_0, 20), z2_20_0);      // 2^40 − 1
  Fe z2_50_0 = fe_mul(fe_sq_n(z2_40_0, 10), z2_10_0);      // 2^50 − 1
  Fe z2_100_0 = fe_mul(fe_sq_n(z2_50_0, 50), z2_50_0);     // 2^100 − 1
  Fe z2_200_0 = fe_mul(fe_sq_n(z2_100_0, 100), z2_100_0);  // 2^200 − 1
  Fe z2_250_0 = fe_mul(fe_sq_n(z2_200_0, 50), z2_50_0);    // 2^250 − 1
  return fe_mul(fe_sq_n(z2_250_0, 5), z11);                // 2^255 − 21
}

Fe fe_frombytes(const std::uint8_t* s) {
  Fe t;
  t[0] = load_le64(s) & kMask51;
  t[1] = (load_le64(s + 6) >> 3) & kMask51;
  t[2] = (load_le64(s + 12) >> 6) & kMask51;
  t[3] = (load_le64(s + 19) >> 1) & kMask51;
  t[4] = (load_le64(s + 24) >> 12) & kMask51;  // also drops the top bit
  return t;
}

// Carries the limbs down to < 2^51 each (value then < 2^255 < 2p).
void fe_carry(Fe& t) {
  for (int pass = 0; pass < 3; ++pass) {
    for (int i = 0; i < 4; ++i) {
      t[i + 1] += t[i] >> 51;
      t[i] &= kMask51;
    }
    t[0] += 19 * (t[4] >> 51);
    t[4] &= kMask51;
  }
}

void fe_tobytes(std::uint8_t* out, Fe t) {
  fe_carry(t);
  // Constant-time conditional subtraction of p = 2^255 − 19.
  constexpr std::uint64_t kP0 = kMask51 - 18;
  constexpr std::uint64_t kPi = kMask51;
  Fe d;
  std::uint64_t borrow = 0;
  const std::uint64_t p_limbs[5] = {kP0, kPi, kPi, kPi, kPi};
  for (int i = 0; i < 5; ++i) {
    std::uint64_t diff = t[i] - p_limbs[i] - borrow;
    borrow = diff >> 63;
    d[i] = diff + (borrow << 51);
  }
  // borrow == 0 means t ≥ p: take d.
  std::uint64_t take_d = borrow - 1;  // all-ones iff borrow == 0
  for (int i = 0; i < 5; ++i) t[i] = (t[i] & ~take_d) | (d[i] & take_d);

  std::uint64_t w0 = t[0] | (t[1] << 51);
  std::uint64_t w1 = (t[1] >> 13) | (t[2] << 38);
  std::uint64_t w2 = (t[2] >> 26) | (t[3] << 25);
  std::uint64_t w3 = (t[3] >> 39) | (t[4] << 12);
  store_le64(out, w0);
  store_le64(out + 8, w1);
  store_le64(out + 16, w2);
  store_le64(out + 24, w3);
}

// Constant-time swap of (a, b) when swap == 1.
void fe_cswap(std::uint64_t swap, Fe& a, Fe& b) {
  const std::uint64_t mask = 0 - swap;
  for (int i = 0; i < 5; ++i) {
    std::uint64_t x = mask & (a[i] ^ b[i]);
    a[i] ^= x;
    b[i] ^= x;
  }
}

}  // namespace

X25519Key x25519(const X25519Key& scalar, const X25519Key& point) {
  std::uint8_t k[32];
  std::memcpy(k, scalar.data(), 32);
  k[0] &= 248;
  k[31] &= 127;
  k[31] |= 64;

  Fe x1 = fe_frombytes(point.data());
  Fe x2 = fe_one(), z2 = fe_zero();
  Fe x3 = x1, z3 = fe_one();
  std::uint64_t swap = 0;

  for (int t = 254; t >= 0; --t) {
    std::uint64_t k_t = (k[t >> 3] >> (t & 7)) & 1;
    swap ^= k_t;
    fe_cswap(swap, x2, x3);
    fe_cswap(swap, z2, z3);
    swap = k_t;

    Fe a = fe_add(x2, z2);
    Fe aa = fe_sq(a);
    Fe b = fe_sub(x2, z2);
    Fe bb = fe_sq(b);
    Fe e = fe_sub(aa, bb);
    Fe c = fe_add(x3, z3);
    Fe d = fe_sub(x3, z3);
    Fe da = fe_mul(d, a);
    Fe cb = fe_mul(c, b);
    x3 = fe_sq(fe_add(da, cb));
    z3 = fe_mul(x1, fe_sq(fe_sub(da, cb)));
    x2 = fe_mul(aa, bb);
    z2 = fe_mul(e, fe_add(aa, fe_mul121665(e)));
  }
  fe_cswap(swap, x2, x3);
  fe_cswap(swap, z2, z3);

  Fe out = fe_mul(x2, fe_invert(z2));
  X25519Key result;
  fe_tobytes(result.data(), out);
  return result;
}

X25519Key x25519_base(const X25519Key& scalar) {
  X25519Key base{};
  base[0] = 9;
  return x25519(scalar, base);
}

Bytes x25519_shared(ByteView private_key, ByteView peer_public) {
  if (private_key.size() != kX25519KeySize ||
      peer_public.size() != kX25519KeySize) {
    throw std::invalid_argument("x25519_shared: keys must be 32 bytes");
  }
  X25519Key sk, pk;
  std::memcpy(sk.data(), private_key.data(), 32);
  std::memcpy(pk.data(), peer_public.data(), 32);
  X25519Key shared = x25519(sk, pk);
  return Bytes(shared.begin(), shared.end());
}

Bytes x25519_public(ByteView private_key) {
  if (private_key.size() != kX25519KeySize) {
    throw std::invalid_argument("x25519_public: key must be 32 bytes");
  }
  X25519Key sk;
  std::memcpy(sk.data(), private_key.data(), 32);
  X25519Key pk = x25519_base(sk);
  return Bytes(pk.begin(), pk.end());
}

}  // namespace sgxp2p::crypto
