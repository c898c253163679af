#include "field/fp.h"

#include "field/fp_simd.h"
#include "field/primes.h"

namespace ssbft {

namespace {

// Unchecked generic modmul for the batch kernels (inputs pre-validated).
inline std::uint64_t mul_mod(std::uint64_t a, std::uint64_t b,
                             std::uint64_t p) {
  return static_cast<std::uint64_t>(static_cast<unsigned __int128>(a) * b % p);
}

inline std::uint64_t mul_m61(std::uint64_t a, std::uint64_t b) {
  return PrimeField::fold61(static_cast<unsigned __int128>(a) * b);
}

inline std::uint64_t add_mod(std::uint64_t a, std::uint64_t b,
                             std::uint64_t p) {
  std::uint64_t s = a + b;
  if (s < a || s >= p) s -= p;
  return s;
}

inline std::uint64_t sub_mod(std::uint64_t a, std::uint64_t b,
                             std::uint64_t p) {
  return a >= b ? a - b : a + (p - b);
}

}  // namespace

PrimeField::PrimeField(std::uint64_t p, SimdMode simd)
    : p_(p),
      mersenne61_(p == kDefaultPrime),
      // The one dispatch decision (see the design note in fp.h): vector
      // kernels serve only the Mersenne-61 path, only when compiled in and
      // supported by this CPU, and only when the caller didn't pin kOff.
      simd_(p == kDefaultPrime && simd == SimdMode::kAuto &&
            m61simd::available()) {
  SSBFT_REQUIRE_MSG(p >= 2 && is_prime_u64(p), "field modulus must be prime, got " << p);
}

std::uint64_t PrimeField::pow(std::uint64_t a, std::uint64_t e) const {
  SSBFT_CHECK(a < p_);
  std::uint64_t base = a, acc = 1 % p_;
  while (e != 0) {
    if (e & 1) acc = mul(acc, base);
    base = mul(base, base);
    e >>= 1;
  }
  return acc;
}

std::uint64_t PrimeField::inv(std::uint64_t a) const {
  SSBFT_REQUIRE_MSG(a != 0 && a < p_, "inverse of zero / non-canonical value");
  // Extended Euclid: ~60 division steps beat the ~61 modmuls of Fermat by a
  // wide margin (each step is one 64-bit divide vs a 128-bit modmul), and
  // it is total on nonzero a because p is prime. Bezout coefficients can
  // exceed int64 range only for p >= 2^63, so track them in 128 bits.
  std::uint64_t r0 = p_, r1 = a;
  __int128 t0 = 0, t1 = 1;
  while (r1 != 0) {
    const std::uint64_t q = r0 / r1;
    const std::uint64_t r2 = r0 - q * r1;
    const __int128 t2 = t0 - static_cast<__int128>(q) * t1;
    r0 = r1;
    r1 = r2;
    t0 = t1;
    t1 = t2;
  }
  SSBFT_CHECK(r0 == 1);  // gcd(a, p) = 1 since p is prime and 0 < a < p
  if (t0 < 0) t0 += static_cast<__int128>(p_);
  return static_cast<std::uint64_t>(t0);
}

void PrimeField::scale_vec(const std::uint64_t* a, std::uint64_t c,
                           std::uint64_t* out, std::size_t len) const {
  SSBFT_CHECK(c < p_);
  if (mersenne61_) {
    for (std::size_t i = 0; i < len; ++i) out[i] = mul_m61(a[i], c);
  } else {
    for (std::size_t i = 0; i < len; ++i) out[i] = mul_mod(a[i], c, p_);
  }
}

void PrimeField::submul_vec(std::uint64_t* dst, const std::uint64_t* src,
                            std::uint64_t c, std::size_t len) const {
  SSBFT_CHECK(c < p_);
  if (mersenne61_) {
    for (std::size_t i = 0; i < len; ++i) {
      dst[i] = sub_mod(dst[i], mul_m61(src[i], c), kDefaultPrime);
    }
  } else {
    for (std::size_t i = 0; i < len; ++i) {
      dst[i] = sub_mod(dst[i], mul_mod(src[i], c, p_), p_);
    }
  }
}

void PrimeField::matmul(const std::uint64_t* a, const std::uint64_t* b,
                        std::uint64_t* out, std::size_t rows,
                        std::size_t inner, std::size_t cols) const {
  if (simd_) {
    m61simd::matmul(a, b, out, rows, inner, cols);
  } else if (mersenne61_) {
    m61simd::matmul_scalar(a, b, out, rows, inner, cols);
  } else {
    // The generic-prime reference: one reduction per product, rows of b
    // accumulated into the output row in order.
    for (std::size_t r = 0; r < rows; ++r) {
      std::uint64_t* o = out + r * cols;
      for (std::size_t c = 0; c < cols; ++c) o[c] = 0;
      for (std::size_t i = 0; i < inner; ++i) {
        const std::uint64_t x = a[r * inner + i];
        const std::uint64_t* brow = b + i * cols;
        for (std::size_t c = 0; c < cols; ++c) {
          o[c] = add_mod(o[c], mul_mod(x, brow[c], p_), p_);
        }
      }
    }
  }
}

void PrimeField::eval_points(const std::uint64_t* coef, std::size_t w,
                             std::size_t cols, std::size_t count,
                             std::uint64_t* out,
                             std::size_t out_stride) const {
  SSBFT_REQUIRE_MSG(w >= 1, "eval_points: polynomials need a coefficient");
  SSBFT_REQUIRE_MSG(out_stride >= cols, "eval_points: out rows overlap");
  SSBFT_REQUIRE_MSG(count < kMaxEvalPoints,
                    "eval_points: " << count << " points, limit 2^20 - 1");
  if (simd_) {
    m61simd::eval_points(coef, w, cols, count, out, out_stride);
  } else if (mersenne61_) {
    m61simd::eval_points_scalar(coef, w, cols, count, out, out_stride);
  } else {
    // The generic-prime reference: one reduction per Horner step.
    for (std::size_t k = 0; k < count; ++k) {
      const std::uint64_t x = (k + 1) % p_;
      std::uint64_t* o = out + k * out_stride;
      for (std::size_t c = 0; c < cols; ++c) o[c] = coef[(w - 1) * cols + c];
      for (std::size_t i = w - 1; i-- > 0;) {
        const std::uint64_t* crow = coef + i * cols;
        for (std::size_t c = 0; c < cols; ++c) {
          o[c] = add_mod(mul_mod(o[c], x, p_), crow[c], p_);
        }
      }
    }
  }
}

void PrimeField::batch_inv(std::uint64_t* vals, std::size_t len,
                           std::uint64_t* scratch) const {
  if (len == 0) return;
  // Prefix products, one inversion of the total, then unwind: each step
  // peels one factor off the running inverse.
  scratch[0] = vals[0];
  for (std::size_t i = 1; i < len; ++i) {
    scratch[i] = mul(scratch[i - 1], vals[i]);
  }
  std::uint64_t run = inv(scratch[len - 1]);
  for (std::size_t i = len; i-- > 1;) {
    const std::uint64_t v = vals[i];
    vals[i] = mul(run, scratch[i - 1]);
    run = mul(run, v);
  }
  vals[0] = run;
}

std::uint64_t PrimeField::uniform(Rng& rng) const { return rng.next_below(p_); }

std::uint64_t PrimeField::uniform_nonzero(Rng& rng) const {
  return 1 + rng.next_below(p_ - 1);
}

}  // namespace ssbft
