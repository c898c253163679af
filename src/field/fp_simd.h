// Vector backends for the Mersenne-61 batch kernels.
//
// Everything here operates on canonical elements of Z_(2^61-1) (the
// PrimeField::kDefaultPrime fast path only — the generic-modulus path has
// no vector backend). The functions are total on every build: when no
// vector unit is compiled in or the CPU lacks it, they fall through to
// straight-line scalar code that shares PrimeField::fold61, so tests can
// call them unconditionally and compare against the scalar reference.
//
// Dispatch contract (see the design note in field/fp.h): `available()`
// probes the CPU once (cached static) and PrimeField consults it a single
// time at construction. The per-call branch inside each kernel reads the
// same cached flag — there is no per-element dispatch anywhere.
//
// Bit-exactness: every kernel returns the canonical representative of the
// exact field result, which is unique, so vector and scalar paths cannot
// diverge (tests/field_test.cpp pins this over adversarial inputs).
#pragma once

#include <cstddef>
#include <cstdint>

namespace ssbft {
namespace m61simd {

// True iff a vector backend is compiled in (x86-64 AVX2, unless the build
// set -DSSBFT_SIMD=off) and this CPU supports it. Evaluated once.
bool available();

// "avx2" when available(), else "scalar" (diagnostics / bench context).
const char* backend_name();

// out[i] = a[i] * b[i] mod 2^61-1. out may alias a or b.
void mul_vec(const std::uint64_t* a, const std::uint64_t* b,
             std::uint64_t* out, std::size_t len);

// out[i] = a[i] * c mod 2^61-1. out may alias a.
void scale_vec(const std::uint64_t* a, std::uint64_t c, std::uint64_t* out,
               std::size_t len);

// dst[i] = dst[i] - c * src[i] mod 2^61-1. dst must not alias src.
void submul_vec(std::uint64_t* dst, const std::uint64_t* src, std::uint64_t c,
                std::size_t len);

// sum_i a[i] * b[i] mod 2^61-1 (the GVSS recover fast path's Lagrange-row
// dot products). Canonical result; lane accumulation reassociates the sum,
// which is exact under modular addition.
std::uint64_t dot(const std::uint64_t* a, const std::uint64_t* b,
                  std::size_t len);

// out = a * b mod 2^61-1 for row-major a (rows x inner), b (inner x cols)
// and out (rows x cols); out must not alias a or b. The vector path works
// on strips of 16 output columns (four 4-lane vectors sharing each
// broadcast a[r][i]): products split into 32-bit partial products that
// accumulate unreduced, fold once per two products, and each output is
// canonicalized once. Column tails run as narrower strips with a masked
// last vector.
void matmul(const std::uint64_t* a, const std::uint64_t* b,
            std::uint64_t* out, std::size_t rows, std::size_t inner,
            std::size_t cols);

// The portable path of matmul (and its fallback without a vector unit):
// 128-bit accumulators take up to 64 raw products (each < 2^122) between
// folds. PrimeField runs it for SimdMode::kOff on the Mersenne prime.
void matmul_scalar(const std::uint64_t* a, const std::uint64_t* b,
                   std::uint64_t* out, std::size_t rows, std::size_t inner,
                   std::size_t cols);

// Evaluates `cols` polynomials of w >= 1 coefficients (coef: w x cols,
// coefficient-major) at x = 1..count, count < 2^20, into out (count rows,
// out_stride >= cols apart); out must not alias coef. Horner's rule with
// an unreduced accumulator: on the vector path each step multiplies by
// the small point x with two 32-bit products and one partial fold, and
// each output is canonicalized once. It evaluates strips of 16 columns at
// two points at a time, with a masked last vector on the column tail.
void eval_points(const std::uint64_t* coef, std::size_t w, std::size_t cols,
                 std::size_t count, std::uint64_t* out, std::size_t out_stride);

// The portable path of eval_points (and its fallback without a vector
// unit): one 64x64 -> 128-bit product and one fold per step, eight points
// per pass. PrimeField runs it for SimdMode::kOff on the Mersenne prime.
void eval_points_scalar(const std::uint64_t* coef, std::size_t w,
                        std::size_t cols, std::size_t count,
                        std::uint64_t* out, std::size_t out_stride);

// Lane passes of Montgomery batch inversion over four contiguous chunks of
// length K (chunk c = [c*K, (c+1)*K)):
//   chunk_prefix: scratch[c*K+i] = prod_{j<=i} vals[c*K+j]
void chunk_prefix(const std::uint64_t* vals, std::uint64_t* scratch,
                  std::size_t K);
//   chunk_unwind: given inv_totals[c] = (chunk c's total product)^-1,
//   replaces vals[c*K+i] with vals[c*K+i]^-1 using the prefixes above.
void chunk_unwind(std::uint64_t* vals, const std::uint64_t* scratch,
                  const std::uint64_t inv_totals[4], std::size_t K);

}  // namespace m61simd
}  // namespace ssbft
