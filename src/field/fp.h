// Arithmetic in the prime field Z_p with a runtime modulus.
//
// The Feldman-Micali-style coin (Remark 2.3) needs a prime p > n; we default
// to the Mersenne prime 2^61 - 1 so secrets have ~61 bits of entropy and the
// parity of a uniform element is a (1/2 ± 2^-61) coin. Values are plain
// uint64_t in [0, p); the field object carries the modulus. This keeps
// element storage flat (vectors of uint64_t) which matters for the O(n^2)
// share matrices the VSS moves around.
//
// Two arithmetic backends sit behind one API, selected once at construction:
//
//   * Mersenne-61 fast path (the default prime): a 128-bit product reduces
//     with two shift/add folds and one conditional subtract — no hardware
//     division anywhere on the hot path.
//   * Generic fallback for arbitrary runtime primes: the product reduces
//     with `unsigned __int128 % p`. This is also the reference the fast
//     path is property-tested against (tests/field_test.cpp).
//
// Both backends compute the same canonical representative for every input,
// so switching between them is bit-exact.
//
// The scalar ops keep the contract checks from support/check.h; the batch
// kernels (matmul, eval_points, batch_inv, ...) hoist validation and the
// backend dispatch out of the element loop — callers must pass canonical
// elements (the kernels' inputs always come from already-validated flat
// storage in this codebase).
//
// SIMD dispatch design (field/fp_simd.h): on the Mersenne-61 fast path the
// two kernels the coin's hot path runs, matmul (GVSS recovery) and
// eval_points (the node points), additionally route to a runtime-selected
// vector backend (AVX2 today; the m61simd seam admits a NEON backend the
// same way). The remaining batch kernels (scale_vec, submul_vec,
// batch_inv) run on vectors of about n entries off the hot path and keep
// one scalar loop per backend. The decision is made ONCE, at PrimeField
// construction — the ctor probes m61simd::available() (a cached CPUID
// check) and latches `simd_`; the kernels branch on that bool per call,
// never per element. The scalar loops remain the bit-exact reference:
// every backend produces the unique canonical representative of the same
// field result, so replays, wire bytes and trace commitments are
// identical on every path. Building with -DSSBFT_SIMD=off compiles the
// vector backend out entirely, and tests can force the reference path per
// instance via SimdMode::kOff.
#pragma once

#include <cstdint>
#include <vector>

#include "support/check.h"
#include "support/rng.h"

namespace ssbft {

// Backend selection for the Mersenne-61 batch kernels. kAuto picks the
// vector backend iff one is compiled in and the CPU supports it; kOff
// pins the scalar reference path (the property tests compare the two).
enum class SimdMode { kAuto, kOff };

class PrimeField {
 public:
  // Largest prime we use by default: 2^61 - 1.
  static constexpr std::uint64_t kDefaultPrime = 2305843009213693951ULL;

  // p must be prime (checked with Miller-Rabin) and >= 2.
  explicit PrimeField(std::uint64_t p = kDefaultPrime,
                      SimdMode simd = SimdMode::kAuto);

  std::uint64_t modulus() const { return p_; }

  // True iff v is a canonical representative (< p).
  bool valid(std::uint64_t v) const { return v < p_; }

  // Bits needed for a canonical representative: bit width of p - 1 (never
  // 0; p >= 2). The compact wire codec packs field elements at this width.
  unsigned value_bits() const {
    unsigned bits = 0;
    for (std::uint64_t m = p_ - 1; m != 0; m >>= 1) ++bits;
    return bits == 0 ? 1 : bits;
  }

  // Canonicalize an arbitrary 64-bit value (used on untrusted input).
  std::uint64_t reduce(std::uint64_t v) const {
    if (mersenne61_) {
      const std::uint64_t s = (v & kDefaultPrime) + (v >> 61);
      return s >= kDefaultPrime ? s - kDefaultPrime : s;
    }
    return v % p_;
  }

  std::uint64_t add(std::uint64_t a, std::uint64_t b) const {
    SSBFT_CHECK(a < p_ && b < p_);
    std::uint64_t s = a + b;  // p may exceed 2^63: detect wraparound too
    if (s < a || s >= p_) s -= p_;
    return s;
  }

  std::uint64_t sub(std::uint64_t a, std::uint64_t b) const {
    SSBFT_CHECK(a < p_ && b < p_);
    return a >= b ? a - b : a + (p_ - b);
  }

  std::uint64_t neg(std::uint64_t a) const {
    SSBFT_CHECK(a < p_);
    return a == 0 ? 0 : p_ - a;
  }

  std::uint64_t mul(std::uint64_t a, std::uint64_t b) const {
    SSBFT_CHECK(a < p_ && b < p_);
    const unsigned __int128 t = static_cast<unsigned __int128>(a) * b;
    if (mersenne61_) return fold61(t);
    return static_cast<std::uint64_t>(t % p_);
  }

  std::uint64_t pow(std::uint64_t a, std::uint64_t e) const;

  // Multiplicative inverse via extended Euclid; a must be nonzero.
  std::uint64_t inv(std::uint64_t a) const;

  // --- batch kernels ------------------------------------------------------
  //
  // All array arguments must hold canonical elements; `out` may alias an
  // input only where noted. The backend dispatch happens once per call.

  // out[i] = a[i] * c. out may alias a.
  void scale_vec(const std::uint64_t* a, std::uint64_t c, std::uint64_t* out,
                 std::size_t len) const;

  // dst[i] -= c * src[i] (the Gaussian-elimination row update). dst must
  // not alias src.
  void submul_vec(std::uint64_t* dst, const std::uint64_t* src,
                  std::uint64_t c, std::size_t len) const;

  // out = a * b over row-major matrices: a is rows x inner, b is
  // inner x cols, out is rows x cols. out must not alias a or b. GVSS
  // recovery runs on it: Lagrange rows times a block of prefix shares
  // (coin/gvss.h), and 1 x (f+1) x 1 products on the per-dealer table
  // fast path.
  void matmul(const std::uint64_t* a, const std::uint64_t* b,
              std::uint64_t* out, std::size_t rows, std::size_t inner,
              std::size_t cols) const;

  // Evaluates `cols` polynomials of `w` >= 1 coefficients at the small
  // points x = 1..count by Horner's rule. coef is w x cols and
  // coefficient-major (row i holds every polynomial's x^i coefficient).
  // out has count rows, `out_stride` >= cols apart, with
  // out[k][c] = sum_i coef[i][c] * (k+1)^i; entries past cols in a row
  // are left untouched, and out must not alias coef. Since count < 2^20
  // (checked), the Mersenne path skips the full reduction between Horner
  // steps; a vector step is two 32-bit products and one partial fold
  // (field/fp_simd.h). The GVSS rounds at the node points are built on
  // it: the rows of a dealing (coin/gvss.h) and every received row's
  // value at every node point.
  static constexpr std::size_t kMaxEvalPoints = std::size_t{1} << 20;
  void eval_points(const std::uint64_t* coef, std::size_t w, std::size_t cols,
                   std::size_t count, std::uint64_t* out,
                   std::size_t out_stride) const;

  // Montgomery batch inversion: replaces vals[i] with vals[i]^-1 using a
  // single inv() and 3(len-1) multiplications. All vals must be nonzero.
  // scratch must hold len elements and not alias vals.
  void batch_inv(std::uint64_t* vals, std::size_t len,
                 std::uint64_t* scratch) const;

  // Uniformly random element of [0, p).
  std::uint64_t uniform(Rng& rng) const;
  // Uniformly random nonzero element.
  std::uint64_t uniform_nonzero(Rng& rng) const;

  // True iff matmul and eval_points route to a vector backend (decided
  // once at construction; identical results either way).
  bool simd_active() const { return simd_; }

  bool operator==(const PrimeField& o) const { return p_ == o.p_; }

  // Reduces t < 2^122 modulo 2^61 - 1: two shift/add folds bring the value
  // under 2^61 + 1, then one conditional subtract canonicalizes. The one
  // definition of the Mersenne fold — the batch kernels call it too, so
  // scalar and vector paths cannot drift apart.
  static std::uint64_t fold61(unsigned __int128 t) {
    std::uint64_t s = (static_cast<std::uint64_t>(t) & kDefaultPrime) +
                      static_cast<std::uint64_t>(t >> 61);  // < 2^62
    s = (s & kDefaultPrime) + (s >> 61);                    // <= 2^61
    return s >= kDefaultPrime ? s - kDefaultPrime : s;
  }

 private:
  std::uint64_t p_;
  bool mersenne61_;
  bool simd_;
};

}  // namespace ssbft
